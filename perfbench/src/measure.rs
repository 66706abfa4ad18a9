//! Untraced passes and the end-to-end metrics.
//!
//! A pass runs the workload's cells through `campaign::execute` at
//! `jobs` workers against a fresh private campaign cache (cold), then
//! again against the same cache (warm). `paper_grid` also renders every
//! paper artifact and the oracle table, as `all_experiments` does.

use crate::digest::{cell_digest, Digests};
use crate::manifest::CALIB_REF_MS;
use crate::stats::{median, tail, trimmed_mean, Tally, Tail};
use crate::workload::{Workload, CAPACITY_MAX_SHED};
use relief_bench::cache::CacheConfig;
use relief_bench::campaign::{self, CampaignResults, Ctx, ExecOptions, RunSpec};
use relief_bench::experiments as ex;
use relief_bench::soak::SoakSpec;
use relief_metrics::Histogram;
use std::path::PathBuf;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

/// Where passes keep their private campaign caches (removed after use).
pub const SCRATCH_DIR: &str = ".perfbench";

/// A private campaign cache directory, deleted when dropped.
#[derive(Debug)]
pub struct ScratchCache {
    /// The cache rooted in the directory.
    pub cache: CacheConfig,
    dir: PathBuf,
}

impl ScratchCache {
    /// A fresh, empty cache directory under [`SCRATCH_DIR`].
    pub fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(SCRATCH_DIR).join(format!("cache-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchCache { cache: CacheConfig::at(&dir), dir }
    }
}

impl Drop for ScratchCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leaves the parent only when no other cache is using it.
        let _ = std::fs::remove_dir(SCRATCH_DIR);
    }
}

/// Answers a rendered artifact from the cache, or renders and stores it.
fn artifact(cache: &CacheConfig, name: &str, body: &dyn Fn() -> String) -> String {
    cache.lookup_artifact(name).unwrap_or_else(|| {
        let b = body();
        cache.store_artifact(name, &b);
        b
    })
}

/// Renders every artifact `all_experiments` prints, in its order, as
/// `(name, text)` sections. Fig. 12 and the oracle table go through the
/// rendered-artifact cache exactly as `all_experiments` does.
pub fn render(ctx: &Ctx, cache: &CacheConfig, jobs: usize) -> Vec<(&'static str, String)> {
    let mut out = render_artifacts(ctx, cache);
    out.push(("oracle", artifact(cache, "table-oracle", &|| relief_bench::oracle::table_oracle(jobs))));
    out
}

/// Every section of [`render`] but the oracle table.
pub fn render_artifacts(ctx: &Ctx, cache: &CacheConfig) -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> = [
        ("table2", ex::table2_with as fn(&Ctx) -> String),
        ("fig2", ex::fig2_with),
        ("fig4", ex::fig4_with),
        ("fig4-col", ex::fig4_colocations_with),
        ("fig5", ex::fig5_with),
        ("fig6", ex::fig6_with),
        ("fig7", ex::fig7_with),
        ("fig8", ex::fig8_with),
        ("fig9", ex::fig9_with),
        ("fig10", ex::fig10_with),
        ("table7", ex::table7_with),
        ("table8", ex::table8_with),
        ("fig11", ex::fig11_with),
    ]
    .into_iter()
    .map(|(name, f)| (name, f(ctx)))
    .collect();
    out.push(("fig12", artifact(cache, "fig12-host-latency", &ex::fig12)));
    out.push(("fig13", ex::fig13_with(ctx)));
    out
}

/// Digest of rendered sections, Fig. 12's host-latency table excluded.
pub fn render_digest(sections: &[(&'static str, String)]) -> u64 {
    let mut text = String::new();
    for (name, body) in sections.iter().filter(|(n, _)| *n != "fig12") {
        text.push_str(name);
        text.push('\n');
        text.push_str(body);
    }
    relief_bench::campaign::fnv1a(text.as_bytes())
}

/// One cold or warm pass.
#[derive(Debug)]
pub struct Pass {
    /// Per-cell outcomes.
    pub results: CampaignResults,
    /// Output digests.
    pub digests: Digests,
    /// Wall time of the whole pass (cells, rendering, oracle), seconds.
    pub wall_s: f64,
    /// Rendered artifacts (`paper_grid`).
    pub rendered: Vec<(&'static str, String)>,
}

/// Runs one pass of `specs` at `jobs` workers against `cache`.
pub fn run_pass(w: Workload, specs: &[RunSpec], jobs: usize, cache: &CacheConfig) -> Pass {
    let t0 = Instant::now();
    let results = campaign::execute(
        specs.to_vec(),
        &ExecOptions { jobs, cache: cache.clone(), ..ExecOptions::default() },
    );
    let rendered = if w == Workload::PaperGrid {
        render(&Ctx::from_results(&results), cache, jobs)
    } else {
        Vec::new()
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let mut digests = Digests::default();
    for o in &results.outcomes {
        if let Ok(rec) = &o.outcome {
            digests.cells.insert(o.label.clone(), cell_digest(&rec.result));
        }
    }
    if !rendered.is_empty() {
        digests.render = Some(render_digest(&rendered));
    }
    Pass {
        results,
        digests,
        wall_s,
        rendered,
    }
}

/// Simulates every cell once more on `jobs` workers and times each
/// cell's `RunSpec::execute` (application build, `SocSim::new`, `run`)
/// and the whole rerun, without the campaign's reconciliation and cache
/// I/O, whose file-system latency on this class of host varies
/// several-fold. Counts each cell in `tally` (a panic or a digest other
/// than `reference`'s fails it). Returns each cell's host ms in spec
/// order, the rerun's wall seconds, and one message per failure.
pub fn time_cells(
    specs: &[RunSpec],
    jobs: usize,
    reference: &Digests,
    tally: &mut Tally,
) -> (Vec<f64>, f64, Vec<String>) {
    let ids = AtomicU32::new(0);
    let t0 = Instant::now();
    let (timed, _) = crate::layers::pool(specs.len(), jobs, t0, &ids, |i, _| {
        let t = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| specs[i].execute()));
        (t.elapsed().as_secs_f64() * 1e3, run.map(|r| cell_digest(&r)))
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut errors = Vec::new();
    let mut cells = Vec::with_capacity(timed.len());
    for (i, (ms, run)) in timed.into_iter().enumerate() {
        let label = specs[i].label();
        let ok = match run {
            Ok(d) if reference.cells.get(&label) == Some(&d) => true,
            Ok(_) => {
                errors.push(format!("{label}: timed rerun digest differs"));
                false
            }
            Err(p) => {
                errors.push(format!("{label}: timed rerun panicked: {}", crate::layers::panic_message(p)));
                false
            }
        };
        tally.record(ok);
        cells.push(ms);
    }
    (cells, wall_s, errors)
}

/// Counts every cell of `pass` in `tally`: a cell fails when it panicked
/// (a `StallError` panics in `SocSim::run`), failed reconciliation, or
/// its digest differs from `reference`. Returns one message per failure.
pub fn check_cells(pass: &Pass, reference: Option<&Digests>, tally: &mut Tally) -> Vec<String> {
    let mut errors = Vec::new();
    for o in &pass.results.outcomes {
        let problem = match &o.outcome {
            Err(e) => Some(format!("panicked: {e}")),
            Ok(rec) if !rec.mismatches.is_empty() => {
                Some(format!("failed reconciliation: {:?}", rec.mismatches))
            }
            Ok(rec) => reference.and_then(|r| match r.cells.get(&o.label) {
                Some(&want) if want != cell_digest(&rec.result) => {
                    Some(format!("digest {:016x} != {want:016x}", cell_digest(&rec.result)))
                }
                None => Some("no reference digest".to_string()),
                _ => None,
            }),
        };
        tally.record(problem.is_none());
        if let Some(p) = problem {
            errors.push(format!("{}: {p}", o.label));
        }
    }
    errors
}

/// Simulated outcomes of one cold pass (deterministic for a seed).
#[derive(Debug, Clone, Default)]
pub struct SimSummary {
    /// Simulator events dispatched.
    pub events: u64,
    /// Requests: stream arrivals, or DAG releases for closed-loop cells.
    pub requests: u64,
    /// Admitted requests (every DAG release for closed-loop cells).
    pub admitted: u64,
    /// Shed requests.
    pub shed: u64,
    /// DRAM bytes read and written.
    pub dram_bytes: u64,
    /// DAG instances completed.
    pub dags_done: u64,
    /// Input edges served by forwarding or colocation.
    pub fwd_coloc: u64,
    /// All input edges.
    pub edges: u64,
    /// Node deadlines met.
    pub nodes_met: u64,
    /// Nodes completed.
    pub nodes_done: u64,
    /// Latency-class deadlines met (DAG deadlines for closed-loop cells).
    pub latency_met: u64,
    /// Latency-class requests generated (DAGs completed, closed loop).
    pub latency_total: u64,
    /// Latency-class p99 sojourn, µs (closed loop: p99 DAG runtime).
    pub sojourn_p99_us: f64,
    /// Largest live-slot high-water mark of any simulated cell.
    pub live_high_water: u64,
}

impl SimSummary {
    /// Folds the successful cells of a cold pass.
    pub fn of(w: Workload, results: &CampaignResults) -> SimSummary {
        let mut s = SimSummary::default();
        let mut sojourn = Histogram::default();
        let mut runtimes: Vec<f64> = Vec::new();
        for o in &results.outcomes {
            let Ok(rec) = &o.outcome else { continue };
            let (r, st) = (&rec.result, &rec.result.stats);
            s.events += r.events_dispatched;
            s.dram_bytes += st.traffic.dram_bytes();
            s.fwd_coloc += st.forwards() + st.colocations();
            s.edges += st.edges_total;
            s.live_high_water = s.live_high_water.max(r.live_high_water);
            for a in st.apps.values() {
                s.dags_done += a.dags_completed;
                s.nodes_done += a.nodes_completed;
                s.nodes_met += a.node_deadlines_met;
                if !w.serving() {
                    s.latency_met += a.dag_deadlines_met;
                    s.latency_total += a.dags_completed;
                    runtimes.extend(a.dag_runtimes.iter().map(|d| d.as_us_f64()));
                }
            }
            if w.serving() {
                let svc = &st.service;
                s.requests += svc.arrivals();
                s.admitted += svc.admitted();
                s.shed += svc.shed_bucket() + svc.shed_capacity() + svc.shed_breaker();
                s.latency_met += svc.classes[0].dag_deadlines_met;
                s.latency_total += svc.classes[0].arrivals;
                sojourn.merge(&svc.classes[0].sojourn);
            } else {
                s.requests += rec.counters.dags_arrived;
                s.admitted += rec.counters.dags_arrived;
            }
        }
        s.sojourn_p99_us = if w.serving() {
            sojourn.quantile_ps(0.99).map_or(0.0, |ps| ps as f64 / 1e6)
        } else {
            nearest_p99(&mut runtimes)
        };
        s
    }

    /// Percent helper: `num / den × 100`, 0 for an empty base.
    fn pct(num: u64, den: u64) -> f64 {
        crate::stats::ratio(num, den).value * 100.0
    }

    /// Shed requests over generated requests.
    pub fn shed_share(&self) -> f64 {
        crate::stats::ratio(self.shed, self.requests).value
    }
}

fn nearest_p99(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * 99).div_ceil(100).max(1);
    v[rank - 1]
}

/// Workload-level correctness checks beyond the per-cell ones: the
/// capacity workload must stay near capacity, and overload must keep the
/// live set bounded.
pub fn check_workload(w: Workload, sim: &SimSummary) -> Vec<String> {
    let mut errors = Vec::new();
    match w {
        Workload::ServeCapacity if sim.shed_share() > CAPACITY_MAX_SHED => errors.push(format!(
            "serve_capacity shed {:.2} % of arrivals (limit {:.0} %): the pinned rate is in overload",
            sim.shed_share() * 100.0,
            CAPACITY_MAX_SHED * 100.0
        )),
        Workload::ServeOverload if sim.live_high_water > SoakSpec::default().live_bound => {
            errors.push(format!(
                "serve_overload live-slot high-water {} exceeds the bound {}",
                sim.live_high_water,
                SoakSpec::default().live_bound
            ))
        }
        _ => {}
    }
    errors
}

/// What a run produced: its metrics, the cells it counted, and every
/// failed check.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Cells attempted and failed.
    pub tally: Tally,
    /// One message per failed check.
    pub errors: Vec<String>,
    /// Values printed with the metrics but not part of `BENCHMARK.json`.
    pub printed: Vec<Metric>,
    /// Calibration kernel times, ms, sampled through the run (one per
    /// pass) so the manifest's figure reflects the host speed the metrics
    /// saw.
    pub calib_ms: Vec<f64>,
}

/// One metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// Extra context printed next to it (bases, percentile, n).
    pub note: String,
}

/// Everything the timed loop measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Cold-pass wall times, seconds.
    pub cold_s: Vec<f64>,
    /// Warm-pass wall times, seconds.
    pub warm_s: Vec<f64>,
    /// Wall times of the per-cell timed reruns, seconds.
    pub rerun_s: Vec<f64>,
    /// Host times of each cell over every timed rerun, ms, by cell index.
    pub cell_ms: Vec<Vec<f64>>,
}

impl Timed {
    /// Records one timed rerun's cell times, in spec order.
    pub fn add_cells(&mut self, cells: &[f64]) {
        self.cell_ms.resize(cells.len(), Vec::new());
        for (times, &ms) in self.cell_ms.iter_mut().zip(cells) {
            times.push(ms);
        }
    }

    /// Each cell's host time over the reruns ([`TRIM`]-trimmed mean), ms.
    pub fn cell_means(&self) -> Vec<f64> {
        self.cell_ms.iter().map(|v| trimmed_mean(v, TRIM)).collect()
    }
}

/// Latency-class attainment (DAG-deadline attainment for closed-loop
/// cells), sheds counted as misses. Printed, not in `BENCHMARK.json`:
/// under `serve_overload` almost no Latency request meets its deadline.
pub fn latency_attainment(sim: &SimSummary) -> Metric {
    Metric {
        name: "sim_latency_attainment_pct",
        unit: "%",
        value: SimSummary::pct(sim.latency_met, sim.latency_total),
        note: format!("{} of {}", sim.latency_met, sim.latency_total),
    }
}

/// Share of the highest and of the lowest per-pass host times dropped
/// before averaging them.
pub const TRIM: f64 = 0.1;

/// The end-to-end metrics, in `BENCHMARK.json` order.
///
/// Host times are trimmed means over the passes, not medians: this class
/// of host alternates between a fast and a slow speed every few seconds,
/// and the median of such a bimodal sample jumps between the two modes
/// from run to run, while the mean moves only with the share of slow
/// time. Trimming drops the scheduling hiccups that dominate a
/// millisecond-long warm pass. Throughputs divide by the per-cell rerun,
/// which simulates without cache I/O.
///
/// Every host time is then reported at the reference host speed: scaled
/// by [`CALIB_REF_MS`] over `calib_ms`, the run's calibration kernel time.
/// The same host also drifts by up to 2× over tens of minutes, and the
/// kernel tracks that drift (run-level correlation 0.90–0.96), so the
/// scaled figures of two sets of runs agree where the raw ones do not.
/// The raw value is printed in each metric's note.
pub fn end_to_end(
    setup_s: f64,
    timed: &Timed,
    sim: &SimSummary,
    rss_mb: f64,
    calib_ms: f64,
) -> Vec<Metric> {
    let scale = CALIB_REF_MS / calib_ms;
    let passes = timed.cold_s.len();
    let rerun_s = trimmed_mean(&timed.rerun_s, TRIM);
    let per_s = |count: u64| count as f64 / rerun_s;
    let cells = timed.cell_means();
    let cell_tail = tail(&cells).unwrap_or(Tail { percentile: 0.0, value: 0.0, beyond: 0, n: 0 });
    // A host time at reference speed, with the raw value in its note.
    let time = |name, unit, raw: f64, note: String| Metric {
        name,
        unit,
        value: raw * scale,
        note: format!("raw {raw:.6} {unit}; {note}"),
    };
    let rate = |name, unit, raw: f64, note: String| Metric {
        name,
        unit,
        value: raw / scale,
        note: format!("raw {raw:.3} {unit}; {note}"),
    };
    let m = |name, unit, value, note: String| Metric { name, unit, value, note };
    vec![
        time("setup_s", "s", setup_s, format!("trimmed mean of {} set-ups, one per pass", passes + 1)),
        rate("sim_events_per_s", "events/s", per_s(sim.events),
            format!("{} events per rerun of every cell, {passes} reruns", sim.events)),
        time("pass_s", "s", trimmed_mean(&timed.cold_s, TRIM), format!("trimmed mean of {passes} cold passes")),
        time("warm_pass_s", "s", trimmed_mean(&timed.warm_s, TRIM),
            format!("trimmed mean of {} warm passes", timed.warm_s.len())),
        time("cell_ms_p50", "ms", median(&cells), format!("median of n={} per-cell means", cells.len())),
        time("cell_ms_p99", "ms", cell_tail.value, format!(
            "p{} of per-cell means, {} cells beyond it, n={}",
            cell_tail.percentile, cell_tail.beyond, cell_tail.n)),
        rate("requests_per_s", "req/s", per_s(sim.requests),
            format!("{} requests per rerun", sim.requests)),
        time("host_us_per_admitted", "us", rerun_s * 1e6 / sim.admitted.max(1) as f64,
            format!("{} admitted per rerun", sim.admitted)),
        m("peak_rss_mb", "MB", rss_mb, "VmHWM after set-up and the first cold pass".into()),
        m("sim_dram_kb_per_dag", "KB", sim.dram_bytes as f64 / 1e3 / sim.dags_done.max(1) as f64,
            format!("{} DRAM bytes over {} DAGs", sim.dram_bytes, sim.dags_done)),
        m("sim_fwd_coloc_pct", "%", SimSummary::pct(sim.fwd_coloc, sim.edges),
            format!("{} of {} edges", sim.fwd_coloc, sim.edges)),
        m("sim_node_deadline_pct", "%", SimSummary::pct(sim.nodes_met, sim.nodes_done),
            format!("{} of {} nodes", sim.nodes_met, sim.nodes_done)),
        m("sim_sojourn_p99_us", "us", sim.sojourn_p99_us, String::new()),
    ]
}
