//! The repository benchmark. Runs one named workload for a fixed time
//! and prints every end-to-end metric (untraced, `--trace 0`) or every
//! per-layer metric (traced, `--trace 1`), after checking the outputs.
//!
//! ```text
//! perfbench --workload <paper_grid|serve_capacity|serve_overload>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-expected <workload>   # re-pin default-seed digests
//! perfbench --sweep-capacity              # serve_capacity rate sweep
//! ```
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is nonzero when any
//! check failed. See perfbench/README.md.

mod digest;
mod layers;
mod manifest;
mod measure;
mod spans;
mod stats;
mod sweep;
mod workload;

use digest::{expected_path, Digests};
use measure::{check_cells, check_workload, end_to_end, run_pass, time_cells, Report, ScratchCache, SimSummary, Timed};
use relief_bench::campaign::{self, RunSpec};
use relief_bench::experiments::grid;
use relief_workloads::App;
use stats::Tally;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Workload, DEFAULT_SEED};

/// Fewest timed passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Warm reruns after each cold pass: a warm pass of a serving workload
/// takes milliseconds, so one sample per cold pass is too few.
const WARM_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value()?)?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}' (0 or 1)")),
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Builds the workload's cells, materializes every cell's configuration
/// and applications (DAG build and analysis), and warms up with one solo
/// simulation.
fn setup(w: Workload, seed: u64) -> Vec<RunSpec> {
    let specs = w.specs(seed);
    for s in &specs {
        std::hint::black_box((s.config(), s.apps()));
    }
    std::hint::black_box(grid::solo_run(App::Canny, true).execute());
    specs
}

/// The `--trace 0` run: set-up, then for `seconds` a cold pass, warm
/// reruns and a per-cell timed rerun, then the default-seed check at one
/// worker. Set-up is timed once from
/// process start and repeated after every pass, so that `setup_s` (their
/// trimmed mean) samples the host over the whole run like the other
/// timings.
fn untraced(args: &Args, jobs: usize, start: Instant) -> Report {
    let w = args.workload;
    let specs = setup(w, args.seed);
    let mut setup_times = vec![start.elapsed().as_secs_f64()];
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    let mut timed = Timed::default();
    let mut first: Option<(Digests, SimSummary)> = None;
    let mut rss = 0.0;
    let mut calib_ms = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while timed.cold_s.len() < MIN_PASSES || Instant::now() < deadline {
        let scratch = ScratchCache::fresh();
        let cold = run_pass(w, &specs, jobs, &scratch.cache);
        let reference = first.as_ref().map(|f| &f.0);
        errors.extend(check_cells(&cold, reference, &mut tally));
        if first.is_none() {
            // Peak memory of set-up plus one cold pass; later passes only
            // add allocator drift that depends on run length.
            rss = relief_bench::soak::rss_peak_mb().unwrap_or(0.0);
        }
        for _ in 0..WARM_REPS {
            let warm = run_pass(w, &specs, jobs, &scratch.cache);
            errors.extend(check_cells(&warm, Some(&cold.digests), &mut tally));
            if warm.results.simulated != 0 {
                errors.push(format!("warm pass simulated {} cells", warm.results.simulated));
            }
            if warm.rendered != cold.rendered {
                errors.push("warm pass rendered differently from the cold pass".into());
            }
            timed.warm_s.push(warm.wall_s);
        }
        if first.is_none() {
            let sim = SimSummary::of(w, &cold.results);
            errors.extend(check_workload(w, &sim));
            first = Some((cold.digests.clone(), sim));
        }
        timed.cold_s.push(cold.wall_s);
        let (cells, rerun_s, cell_errors) = time_cells(&specs, jobs, &cold.digests, &mut tally);
        errors.extend(cell_errors);
        timed.add_cells(&cells);
        timed.rerun_s.push(rerun_s);
        let t = Instant::now();
        setup(w, args.seed);
        setup_times.push(t.elapsed().as_secs_f64());
        calib_ms.push(manifest::kernel_ms());
    }
    let (digests, sim) = first.unwrap_or_default();
    errors.extend(check_default_seed(w, args.seed, &digests, &mut tally));
    Report {
        metrics: end_to_end(
            stats::trimmed_mean(&setup_times, measure::TRIM),
            &timed,
            &sim,
            rss,
            stats::trimmed_mean(&calib_ms, measure::TRIM),
        ),
        tally,
        errors,
        printed: vec![measure::latency_attainment(&sim)],
        calib_ms,
    }
}

/// Runs the default-seed cells at one worker and compares them with the
/// pinned digests (recorded at `nproc` workers, so this is also the
/// jobs-invariance check). When the run itself used the default seed, its
/// timed passes must match the pinned digests too.
fn check_default_seed(w: Workload, seed: u64, timed: &Digests, tally: &mut Tally) -> Vec<String> {
    let expected = match std::fs::read_to_string(expected_path(w.name())) {
        Ok(text) => match Digests::parse(&text) {
            Ok(d) => d,
            Err(e) => return vec![format!("expected digests: {e}")],
        },
        Err(e) => return vec![format!("{}: {e}", expected_path(w.name()).display())],
    };
    let scratch = ScratchCache::fresh();
    let pass = run_pass(w, &w.specs(DEFAULT_SEED), 1, &scratch.cache);
    let mut errors: Vec<String> = check_cells(&pass, Some(&expected), tally)
        .into_iter()
        .map(|e| format!("default seed, 1 worker: {e}"))
        .collect();
    if pass.digests.render != expected.render {
        errors.push("default seed, 1 worker: rendered artifacts differ from the pinned digest".into());
    }
    if seed == DEFAULT_SEED {
        errors.extend(timed.diff(&expected).into_iter().map(|e| format!("default seed: {e}")));
    }
    errors
}

/// `--write-expected`: records the default-seed digests at `nproc`
/// workers after checking that one worker produces the same.
fn write_expected(w: Workload, jobs: usize) -> ExitCode {
    let specs = w.specs(DEFAULT_SEED);
    let a = run_pass(w, &specs, jobs, &ScratchCache::fresh().cache);
    let b = run_pass(w, &specs, 1, &ScratchCache::fresh().cache);
    let mut tally = Tally::default();
    let errors = check_cells(&b, Some(&a.digests), &mut tally);
    if !errors.is_empty() || a.digests.render != b.digests.render || tally.attempted == 0 {
        eprintln!("digests differ between {jobs} and 1 workers: {errors:?}");
        return ExitCode::FAILURE;
    }
    let header = format!(
        "Expected digests of perfbench workload {} at seed {DEFAULT_SEED}.\n\
         Regenerate: cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- --write-expected {}",
        w.name(),
        w.name()
    );
    let path = expected_path(w.name());
    if let Err(e) = std::fs::write(&path, a.digests.to_text(&header)) {
        eprintln!("{}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {} ({} cells)", path.display(), a.digests.cells.len());
    ExitCode::SUCCESS
}

/// Prints the manifest, the metrics with their notes, and the JSON line.
fn emit(args: &Args, jobs: usize, report: &Report) {
    let specs = args.workload.specs(args.seed);
    println!(
        "manifest: rev={} workload={} seed={} jobs={jobs} nproc={} config={} trace={} calib_ms={:.3} calib_n={}",
        manifest::source_rev(std::path::Path::new(".")),
        args.workload.name(),
        args.seed,
        campaign::default_jobs(),
        manifest::config_digest(&specs),
        u8::from(args.trace),
        stats::trimmed_mean(&report.calib_ms, measure::TRIM),
        report.calib_ms.len(),
    );
    for m in &report.metrics {
        println!("{:<34} {:>16.6} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
    for m in &report.printed {
        println!("{:<34} {:>16.6} {:<8} {} (not in BENCHMARK.json)", m.name, m.value, m.unit, m.note);
    }
    println!(
        "{:<34} {:>16.6} {:<8} {} failed of {} attempted cells",
        "error_rate",
        report.tally.error_rate(),
        "fraction",
        report.tally.failed,
        report.tally.attempted
    );
    for e in &report.errors {
        println!("CHECK FAILED: {e}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.errors.is_empty(),
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let jobs = campaign::default_jobs();
    match argv.first().map(String::as_str) {
        Some("--write-expected") => {
            return match argv.get(1).map(|s| Workload::parse(s)) {
                Some(Ok(w)) => write_expected(w, jobs),
                _ => {
                    eprintln!("usage: --write-expected <workload>");
                    ExitCode::from(2)
                }
            };
        }
        Some("--sweep-capacity") => return sweep::run(jobs),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        layers::traced(args.workload, args.seed, args.seconds, jobs, start)
    } else {
        untraced(&args, jobs, start)
    };
    emit(&args, jobs, &report);
    if report.errors.is_empty() && report.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
