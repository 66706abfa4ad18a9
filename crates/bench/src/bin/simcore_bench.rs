//! Front end for `xtask bench`: measures the simulation hot path over the
//! pinned campaign subset, writes `BENCH_simcore.json`, and appends the
//! run's medians to the sibling `BENCH_trajectory.json` history (formats
//! documented in README.md).
//!
//! ```text
//! simcore_bench [--iters N] [--out PATH] [--check] [--tolerance PCT] [--service]
//!               [--soak [--smoke] [--jobs N]]
//! ```
//!
//! `--service` measures the pinned service-mode subset instead (the
//! open-loop Poisson stream at ~80% utilisation, see
//! [`walltime::SERVICE_SUBSET`]) and appends its medians to the
//! trajectory history under a `+service` label. It writes no
//! `BENCH_simcore.json` and runs no regression gate: the closed-loop
//! subset stays the committed baseline, the service entry is a second
//! trajectory series.
//!
//! `--soak` runs the million-request MMPP soak ([`soak::SoakSpec`]) in
//! bounded-memory mode: the live-slot high-water mark is hard-gated
//! against the spec's bound, and a `<rev>+soak` trajectory entry is
//! appended carrying peak RSS, the live high-water mark and the
//! calibration kernel's ms.
//! `--soak --smoke` is the `xtask check` `soak-smoke` step: a 0.5 s
//! soak run at `--jobs` 1 and 2 whose deterministic reports must be
//! byte-identical, with the same live-set gate and no trajectory write.
//!
//! `--check` is the CI gate wired into `xtask check`: three iterations,
//! written to `target/BENCH_simcore.check.json` (unless `--out` is
//! given), read back and schema-validated, then compared against the
//! committed `BENCH_simcore.json` baseline — the fresh run's fastest
//! pass, in calibrated units (ns/event over the calibration kernel's ms,
//! see [`walltime::calibration_kernel`]), must stay within `--tolerance`
//! percent (default 10) of the committed median calibrated cost, or the
//! gate fails printing both sides, calibrated and absolute. It then runs
//! a reduced soak and gates its ns/event over the kernel ms timed beside
//! it against the newest committed `+soak` trajectory entry's ratio at a
//! loose 60 % tolerance (soak cost is arrival-path-dominated and noisier
//! than the closed loop), plus the hard live-set bound. A `+soak` entry
//! without `calib_ms` fails the gate until it is re-recorded. A missing
//! baseline skips the corresponding comparison with a notice, so fresh
//! clones and baseline-refresh commits still pass.
//!
//! `--check` gates the closed-loop subset only, and the modes exclude
//! one another: combining `--check` with a mode, or two modes, is a
//! usage error (exit 2) rather than a silently dropped flag.

use relief_bench::soak::{rss_peak_mb, SoakSpec};
use relief_bench::walltime;
use std::process::ExitCode;

/// The committed perf baseline the `--check` gate compares against.
const BASELINE: &str = "BENCH_simcore.json";

/// Calibration-kernel passes whose median pairs with a soak run, both
/// when recording a `+soak` entry and when gating against one.
const SOAK_KERNEL_PASSES: u32 = 5;

fn main() -> ExitCode {
    let mut iters: Option<u32> = None;
    let mut out: Option<String> = None;
    let mut check = false;
    let mut service = false;
    let mut soak = false;
    let mut smoke = false;
    let mut jobs = 1usize;
    let mut tolerance = 0.10;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => iters = Some(n),
                _ => return usage("--iters needs a positive integer"),
            },
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => return usage("--out needs a path"),
            },
            "--check" => check = true,
            "--service" => service = true,
            "--soak" => soak = true,
            "--smoke" => smoke = true,
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => jobs = n,
                _ => return usage("--jobs needs a positive integer"),
            },
            "--tolerance" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) if pct >= 0.0 && pct.is_finite() => tolerance = pct / 100.0,
                _ => return usage("--tolerance needs a non-negative percentage"),
            },
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    // Check mode needs several passes so its min is a usable noise floor;
    // a standalone bench defaults to a longer run for tighter medians.
    let iters = iters.unwrap_or(if check { 3 } else { 5 });
    let out = out.unwrap_or_else(|| {
        if check { "target/BENCH_simcore.check.json".into() } else { "BENCH_simcore.json".into() }
    });

    if smoke && !soak {
        return usage("--smoke only applies to --soak");
    }
    let modes = [(service, "--service"), (soak, "--soak")];
    let mut chosen = modes.iter().filter(|(on, _)| *on).map(|&(_, name)| name);
    if let Some(first) = chosen.next() {
        if let Some(second) = chosen.next() {
            return usage(&format!("{first} and {second} are separate modes; run one at a time"));
        }
        if check {
            return usage(&format!("--check gates the closed-loop subset, not {first}"));
        }
    }
    if soak {
        return run_soak(smoke, jobs, &trajectory_path(&out));
    }
    if service {
        return run_service(iters, &trajectory_path(&out));
    }

    let report = walltime::measure(iters);
    println!(
        "simcore bench: {} runs/iter, {} events/iter, {} iters",
        report.runs_per_iter, report.events_per_iter, report.iters
    );
    print_path(&report.optimized);
    let c = &report.calibration;
    println!(
        "  calibrated {:>8.3} ns/event per kernel-ms (min {:.3}); kernel {:.1} ms median",
        c.ns_per_event_per_kernel_ms.median, c.ns_per_event_per_kernel_ms.min, c.kernel_ms.median,
    );

    let json = walltime::to_json(&report);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("simcore_bench: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("  wrote {out}");

    let trajectory = trajectory_path(&out);
    let entry = walltime::TrajectoryEntry::from_report(&revision_label(), &report);
    let history = std::fs::read_to_string(&trajectory).ok();
    let body = walltime::append_trajectory(history.as_deref(), &entry);
    if let Err(e) = std::fs::write(&trajectory, body) {
        eprintln!("simcore_bench: cannot write {trajectory}: {e}");
        return ExitCode::FAILURE;
    }
    println!("  appended entry '{}' to {trajectory}", entry.label);

    if check {
        let back = match std::fs::read_to_string(&out) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("simcore_bench: cannot read back {out}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = walltime::validate(&back) {
            eprintln!("simcore_bench: {out} failed validation: {e}");
            return ExitCode::FAILURE;
        }
        println!("  check OK: schema valid, events/sec positive");
        match std::fs::read_to_string(BASELINE) {
            Ok(baseline) => match walltime::regression_gate(&baseline, &report, tolerance) {
                Ok(summary) => println!("  no-regression gate OK: {summary}"),
                Err(e) => {
                    eprintln!("simcore_bench: {e}");
                    eprintln!(
                        "simcore_bench: if this is an intended trade-off, refresh {BASELINE} \
                         with 'cargo run -p xtask -- bench' and commit it"
                    );
                    return ExitCode::FAILURE;
                }
            },
            Err(_) => {
                println!("  no committed {BASELINE}; skipping no-regression gate");
            }
        }
        return check_soak();
    }
    ExitCode::SUCCESS
}

/// The `--check` soak gate: a reduced soak whose live-slot high-water
/// mark must stay under the spec's bound (hard), and whose ns/event over
/// kernel ms must stay within 60 % of the newest committed `+soak`
/// trajectory entry's (see [`walltime::soak_gate`]; skipped with a notice
/// when no soak entry is committed yet).
fn check_soak() -> ExitCode {
    const SOAK_TOLERANCE: f64 = 0.60;
    let spec = SoakSpec::check();
    let outcome = match spec.run(1) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simcore_bench: soak check failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "  soak check OK: {} arrivals, {} events, live high-water {} (bound {})",
        outcome.arrivals, outcome.events, outcome.live_high_water, spec.live_bound
    );
    let kernel_ms = walltime::calibration_ms_median(SOAK_KERNEL_PASSES);
    let committed = std::fs::read_to_string("BENCH_trajectory.json")
        .ok()
        .as_deref()
        .and_then(walltime::last_soak);
    let Some(committed) = committed else {
        println!("  no committed +soak trajectory entry; skipping soak gate");
        return ExitCode::SUCCESS;
    };
    match walltime::soak_gate(committed, outcome.ns_per_event(), kernel_ms, SOAK_TOLERANCE) {
        Ok(summary) => {
            println!("  soak no-regression gate OK: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simcore_bench: {e}");
            eprintln!(
                "simcore_bench: if this is an intended trade-off, refresh the +soak entry \
                 with 'cargo run -p xtask -- bench --soak' and commit it"
            );
            ExitCode::FAILURE
        }
    }
}

/// The `--soak` mode: the million-request bounded-memory soak, or its
/// 0.5 s `--smoke` variant (the `xtask check` `soak-smoke` step).
fn run_soak(smoke: bool, jobs: usize, trajectory: &str) -> ExitCode {
    if smoke {
        let spec = SoakSpec::smoke();
        let a = match spec.run(1) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("simcore_bench: soak smoke (jobs=1) failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let b = match spec.run(2) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("simcore_bench: soak smoke (jobs=2) failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if a.report != b.report {
            eprintln!(
                "simcore_bench: soak report depends on --jobs\n--- jobs=1 ---\n{}\n\
                 --- jobs=2 ---\n{}",
                a.report, b.report
            );
            return ExitCode::FAILURE;
        }
        print!("{}", a.report);
        println!(
            "soak smoke OK: {} arrivals, live high-water {} <= bound {}, \
             report byte-identical at jobs 1 and 2",
            a.arrivals, a.live_high_water, spec.live_bound
        );
        return ExitCode::SUCCESS;
    }

    let spec = SoakSpec::default();
    let outcome = match spec.run(jobs) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simcore_bench: soak failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", outcome.report);
    let rss = rss_peak_mb();
    println!(
        "soak: {} arrivals, {} events, {:.1} ns/event, live high-water {} (bound {}), \
         peak RSS {}",
        outcome.arrivals,
        outcome.events,
        outcome.ns_per_event(),
        outcome.live_high_water,
        spec.live_bound,
        match rss {
            Some(mb) => format!("{mb:.1} MB"),
            None => "unavailable".to_string(),
        }
    );
    if outcome.arrivals < 1_000_000 {
        eprintln!(
            "simcore_bench: soak drove only {} arrivals (< 1M) — spec drifted?",
            outcome.arrivals
        );
        return ExitCode::FAILURE;
    }

    let label = format!("{}+soak", revision_label());
    let entry = walltime::TrajectoryEntry {
        label: label.clone(),
        iters: 1,
        optimized_ns_per_event: outcome.ns_per_event(),
        events_per_sec: outcome.events as f64 * 1e9 / outcome.wall_ns.max(1) as f64,
        rss_peak_mb: rss,
        live_high_water: Some(outcome.live_high_water),
        calib_ms: Some(walltime::calibration_ms_median(SOAK_KERNEL_PASSES)),
    };
    let history = std::fs::read_to_string(trajectory).ok();
    let body = walltime::append_trajectory(history.as_deref(), &entry);
    if let Err(e) = std::fs::write(trajectory, body) {
        eprintln!("simcore_bench: cannot write {trajectory}: {e}");
        return ExitCode::FAILURE;
    }
    println!("  appended entry '{label}' to {trajectory}");
    ExitCode::SUCCESS
}

/// The `--service` mode: time the service-mode subset and append one
/// `<rev>+service` entry to the trajectory history.
fn run_service(iters: u32, trajectory: &str) -> ExitCode {
    let report = walltime::measure_service(iters);
    println!(
        "service bench ({}): {} runs/iter, {} events/iter, {} iters",
        walltime::SERVICE_SUBSET,
        report.runs_per_iter,
        report.events_per_iter,
        report.iters
    );
    print_path(&report.optimized);
    let label = format!("{}+service", revision_label());
    let entry = walltime::TrajectoryEntry::from_report(&label, &report);
    let history = std::fs::read_to_string(trajectory).ok();
    let body = walltime::append_trajectory(history.as_deref(), &entry);
    if let Err(e) = std::fs::write(trajectory, body) {
        eprintln!("simcore_bench: cannot write {trajectory}: {e}");
        return ExitCode::FAILURE;
    }
    println!("  appended entry '{label}' to {trajectory}");
    ExitCode::SUCCESS
}

/// Prints one timed series' ns/event spread and events/sec median.
fn print_path(p: &walltime::PathStats) {
    println!(
        "  {:>8.1} ns/event (min {:.1}, max {:.1})  {:>12.0} events/s",
        p.ns_per_event.median, p.ns_per_event.min, p.ns_per_event.max, p.events_per_sec.median,
    );
}

/// `BENCH_trajectory*.json` next to the report it belongs to.
fn trajectory_path(out: &str) -> String {
    if out.contains("BENCH_simcore") {
        out.replace("BENCH_simcore", "BENCH_trajectory")
    } else {
        format!("{out}.trajectory.json")
    }
}

/// Short commit hash of the working tree, or `"worktree"` when git is
/// unavailable — the label is informational, not load-bearing.
fn revision_label() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "worktree".into())
}

fn usage(err: &str) -> ExitCode {
    eprintln!("simcore_bench: {err}");
    eprintln!(
        "usage: simcore_bench [--iters N] [--out PATH] [--check] [--tolerance PCT] \
         [--service] [--soak [--smoke] [--jobs N]]"
    );
    ExitCode::from(2)
}
