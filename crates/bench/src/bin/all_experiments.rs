//! Runs every experiment in sequence — the full paper reproduction.
//! Output is suitable for diffing against EXPERIMENTS.md.
//!
//! The full simulation grid ([`ex::grid::full_grid`]) is executed up
//! front on the deterministic campaign engine (`--jobs N` worker
//! threads, default = available parallelism); the artifact renderers
//! then draw every result from the prewarmed cache. Stdout is
//! byte-identical to the historical serial runner for any `--jobs`
//! value — only wall-clock time changes.
//!
//! Results also persist in the content-addressed campaign cache
//! (`target/campaign-cache/`, see `relief_bench::cache`), so a rerun
//! with an unchanged code-version salt simulates zero cells and emits
//! byte-identical stdout. The Fig. 12 host-latency table and the oracle
//! table are cached as rendered artifacts for the same reason — Fig. 12
//! times host wall-clock and would otherwise differ on every run. Pass
//! `--no-cache` to force full re-simulation (and a fresh Fig. 12
//! measurement).
//!
//! `--only <name>[,<name>...]` prints just the named artifacts, back to
//! back, simulating inline with no prewarm and no cache. An unknown name
//! exits 2 with the valid names.

use relief_bench::cache::CacheConfig;
use relief_bench::campaign::{self, Ctx, ExecOptions};
use relief_bench::experiments as ex;

/// One printed section: a grid artifact, or a table (rendered given
/// `--jobs`) cached as a rendered artifact under its name.
#[derive(Clone, Copy)]
enum Part {
    Grid(fn(&Ctx) -> String),
    Cached(&'static str, fn(usize) -> String),
}

/// Every artifact in full-run print order: its `--only` name and the
/// sections it prints.
const ARTIFACTS: [(&str, &[Part]); 15] = [
    ("table2", &[Part::Grid(ex::table2_with)]),
    ("fig2", &[Part::Grid(ex::fig2_with)]),
    ("fig4", &[Part::Grid(ex::fig4_with), Part::Grid(ex::fig4_colocations_with)]),
    ("fig5", &[Part::Grid(ex::fig5_with)]),
    ("fig6", &[Part::Grid(ex::fig6_with)]),
    ("fig7", &[Part::Grid(ex::fig7_with)]),
    ("fig8", &[Part::Grid(ex::fig8_with)]),
    ("fig9", &[Part::Grid(ex::fig9_with)]),
    ("fig10", &[Part::Grid(ex::fig10_with)]),
    ("table7", &[Part::Grid(ex::table7_with)]),
    ("table8", &[Part::Grid(ex::table8_with)]),
    ("fig11", &[Part::Grid(ex::fig11_with)]),
    ("fig12", &[Part::Cached("fig12-host-latency", |_| ex::fig12())]),
    ("fig13", &[Part::Grid(ex::fig13_with)]),
    ("oracle", &[Part::Cached("table-oracle", relief_bench::oracle::table_oracle)]),
];

fn render(part: Part, ctx: &Ctx, cache: &CacheConfig, jobs: usize) -> String {
    match part {
        Part::Grid(f) => f(ctx),
        Part::Cached(name, f) => cache.lookup_artifact(name).unwrap_or_else(|| {
            let body = f(jobs);
            cache.store_artifact(name, &body);
            body
        }),
    }
}

/// The sections `--only` selects, if given.
fn parse_only(args: &[String]) -> Result<Option<Vec<Part>>, String> {
    let Some(pos) = args.iter().position(|a| a == "--only") else { return Ok(None) };
    let mut parts = Vec::new();
    for name in args.get(pos + 1).ok_or("--only needs a value")?.split(',') {
        let Some((_, p)) = ARTIFACTS.iter().find(|(n, _)| *n == name) else {
            let valid: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown artifact '{name}' (valid: {})", valid.join(", ")));
        };
        parts.extend_from_slice(p);
    }
    Ok(Some(parts))
}

fn main() {
    let t0 = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (jobs, only) = match campaign::parse_jobs(args.iter().cloned())
        .and_then(|jobs| Ok((jobs, parse_only(&args)?)))
    {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Some(parts) = only {
        for part in parts {
            print!("{}", render(part, &Ctx::empty(), &CacheConfig::disabled(), jobs));
        }
        return;
    }
    let cache = if args.iter().any(|a| a == "--no-cache") {
        CacheConfig::disabled()
    } else {
        CacheConfig::standard()
    };
    let grid = ex::grid::full_grid();
    eprintln!("== prewarming {} runs on {jobs} worker(s) ==", grid.len());
    let results = campaign::execute(
        grid,
        &ExecOptions { jobs, cache: cache.clone(), ..Default::default() },
    );
    let failures = results.failures();
    for (label, msg) in &failures {
        eprintln!("run {label} panicked: {msg}");
    }
    for (label, mismatches) in results.mismatched() {
        eprintln!("run {label} failed event/stats reconciliation:");
        for m in mismatches {
            eprintln!("  {m}");
        }
    }
    if !failures.is_empty() {
        eprintln!("== {} run(s) failed; aborting before rendering ==", failures.len());
        std::process::exit(1);
    }
    let ctx = Ctx::from_results(&results);
    eprintln!("== grid done, rendering ({:.0?} elapsed) ==", t0.elapsed());
    for (name, parts) in ARTIFACTS {
        eprintln!("== running {name} ({:.0?} elapsed) ==", t0.elapsed());
        for &part in parts {
            print!("{}", render(part, &ctx, &cache, jobs));
            println!();
        }
    }
    eprintln!("== done in {:.0?} ==", t0.elapsed());
}
