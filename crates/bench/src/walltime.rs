//! Wall-clock benchmark of the simulation hot path (`xtask bench`).
//!
//! Runs a pinned campaign subset N times and writes median ± spread
//! ns/event and events/sec to `BENCH_simcore.json` at the repo root.
//!
//! The subset is pinned (same policies, mixes, seeds, iteration pairing)
//! so successive PRs produce comparable `BENCH_simcore.json` files: a
//! perf trajectory, not a one-off number.
//!
//! Host speed moves absolute ns/event by up to 2× between machines (and
//! between runs on one shared machine), so every iteration also times a
//! fixed calibration kernel ([`calibration_kernel`]) next to its pass.
//! The regression gate compares ns/event ÷ kernel ms, which cancels the
//! host's speed; absolute figures stay on record.

use crate::config_for;
use relief_accel::{AppSpec, SocSim};
use relief_core::PolicyKind;
use relief_workloads::Contention;
use std::time::Instant;

/// Schema tag written to (and required in) `BENCH_simcore.json`. v2
/// added the `calibration` section the regression gate reads; v3 drops
/// the `reference` section and `speedup_ns_per_event`.
pub const SCHEMA: &str = "relief-simcore-bench/v3";

/// Schema tag of the sibling `BENCH_trajectory.json` history file.
/// v2 added the optional per-entry `rss_peak_mb` and `live_high_water`
/// fields the `+soak` series records; v3 adds the optional `calib_ms`
/// (calibration kernel time). Entries recorded since the reference path
/// was retired omit `reference_ns_per_event` and `speedup`. Older files
/// are still parsed and rewritten under this tag on the next append;
/// their entries are kept verbatim.
pub const TRAJECTORY_SCHEMA: &str = "relief-simcore-trajectory/v3";

/// Earlier trajectory schema tags, still accepted on read.
pub const TRAJECTORY_SCHEMAS_OLD: [&str; 2] =
    ["relief-simcore-trajectory/v1", "relief-simcore-trajectory/v2"];

/// What the calibration kernel does, recorded in `BENCH_simcore.json`.
pub const CALIBRATION_KERNEL: &str = "SplitMix64 fill + sort_unstable of 2^20 u64";

/// Words the calibration kernel fills and sorts.
const KERNEL_LEN: usize = 1 << 20;

/// The host-speed calibration kernel: fill 2^20 words from SplitMix64
/// and sort them — the same fixed integer work the repository benchmark
/// (`perfbench`) times, so the two report comparable host speeds.
/// Returns a checksum so the work cannot be optimized away.
pub fn calibration_kernel() -> u64 {
    let mut rng = relief_sim::SplitMix64::new(0xCA11_B8A7);
    let mut v: Vec<u64> = (0..KERNEL_LEN).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    v[KERNEL_LEN / 2] ^ v[0]
}

/// Wall time of one [`calibration_kernel`] pass, milliseconds.
pub fn calibration_ms() -> f64 {
    let t = Instant::now();
    std::hint::black_box(calibration_kernel());
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `passes` [`calibration_ms`] timings: the soak's single
/// long run pairs with this steadier figure.
///
/// # Panics
///
/// Panics when `passes` is zero.
pub fn calibration_ms_median(passes: u32) -> f64 {
    Spread::of((0..passes).map(|_| calibration_ms()).collect()).median
}

/// True when `body` carries the current or an earlier trajectory tag.
fn is_trajectory(body: &str) -> bool {
    body.contains(TRAJECTORY_SCHEMA) || TRAJECTORY_SCHEMAS_OLD.iter().any(|t| body.contains(t))
}

/// Human-readable description of the pinned subset, recorded in the JSON
/// so readers know what was measured.
pub const SUBSET: &str =
    "6 main policies x 10 high-contention mixes + FCFS/RELIEF x continuous GHL";

/// Description of the pinned service-mode subset (`xtask bench --service`).
pub const SERVICE_SUBSET: &str =
    "4 policies x CGL Poisson stream at ~80% utilisation, 20 ms + drain";

/// Description of the queue cohort-pop microbench (`xtask bench --events`).
pub const EVENTS_SUBSET: &str =
    "synthetic cohort stream: 2M pops at ~4k held, 1/4 duplicate times, 1/64 far-future";

/// One cell of the pinned subset: a policy on a pre-built workload.
pub struct Case {
    /// Scheduling policy under measurement.
    pub policy: PolicyKind,
    /// Contention level (selects the platform time limit).
    pub contention: Contention,
    /// `"<contention>/<mix>"` label for per-case reporting.
    pub label: String,
    /// Applications, built once so DAG construction stays outside the
    /// timed region (`AppSpec` clones are `Arc` bumps).
    pub workload: Vec<AppSpec>,
    /// Open-loop stream plan (`None` = the closed-loop subsets).
    pub stream: Option<relief_service::StreamConfig>,
}

/// The pinned campaign subset: every main-comparison policy over the ten
/// high-contention mixes, plus FCFS and RELIEF on the heaviest continuous
/// mix (GHL) so the 50 ms repeat path is represented.
pub fn pinned_subset() -> Vec<Case> {
    let mut cases = Vec::new();
    for mix in Contention::High.mixes() {
        for policy in crate::MAIN_POLICIES {
            cases.push(Case {
                policy,
                contention: Contention::High,
                label: format!("high/{}", mix.label()),
                workload: mix.workload(),
                stream: None,
            });
        }
    }
    let Some(ghl) = Contention::Continuous.mixes().into_iter().last() else {
        return cases;
    };
    for policy in [PolicyKind::Fcfs, PolicyKind::Relief] {
        cases.push(Case {
            policy,
            contention: Contention::Continuous,
            label: format!("continuous/{}", ghl.label()),
            workload: ghl.workload(),
            stream: None,
        });
    }
    cases
}

/// The pinned service-mode subset: the four headline policies each
/// driving the CGL tenant trio under a sustained Poisson stream at
/// roughly 80% platform utilisation (80 req/s per tenant against the
/// ~100 req/s capacity the service sweep measures), so the wall-clock
/// trajectory also tracks the open-loop arrival/admission hot path.
pub fn service_subset() -> Vec<Case> {
    let spec = crate::service::ServiceSpec {
        rates: vec![80.0],
        duration_ps: 20_000_000_000,
        warmup_ps: 2_000_000_000,
        ..Default::default()
    };
    let stream = spec.stream_config(80.0);
    [PolicyKind::Fcfs, PolicyKind::Lax, PolicyKind::HetSched, PolicyKind::Relief]
        .into_iter()
        .map(|policy| Case {
            policy,
            contention: Contention::High,
            label: "service/CGL@80".to_string(),
            workload: crate::service::tenant_workload(),
            stream: Some(stream.clone()),
        })
        .collect()
}

/// One timed pass over a set of cases.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall-clock nanoseconds across all cases.
    pub wall_ns: u64,
    /// Simulator events dispatched across all cases.
    pub events: u64,
}

impl Sample {
    /// Nanoseconds of host time per dispatched simulator event.
    pub fn ns_per_event(&self) -> f64 {
        self.wall_ns as f64 / self.events.max(1) as f64
    }

    /// Dispatched simulator events per host second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 * 1e9 / self.wall_ns.max(1) as f64
    }
}

/// Runs every case once.
pub fn run_cases(cases: &[Case]) -> Sample {
    let mut events = 0u64;
    let t0 = Instant::now();
    for case in cases {
        let mut cfg = config_for(case.policy, case.contention);
        if let Some(stream) = &case.stream {
            cfg = cfg.with_stream(stream.clone());
        }
        let result = SocSim::new(cfg, case.workload.clone()).run();
        events += result.events_dispatched;
    }
    Sample { wall_ns: t0.elapsed().as_nanos() as u64, events }
}

/// Median / min / max over a set of per-iteration values.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    /// Middle value (mean of the two middles for even counts).
    pub median: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl Spread {
    fn of(mut values: Vec<f64>) -> Spread {
        assert!(!values.is_empty(), "need at least one sample");
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let median =
            if n % 2 == 1 { values[n / 2] } else { (values[n / 2 - 1] + values[n / 2]) / 2.0 };
        Spread { median, min: values[0], max: values[n - 1] }
    }
}

/// Aggregated wall-clock statistics of a set of timed passes.
#[derive(Debug, Clone, Copy)]
pub struct PathStats {
    /// Wall-clock milliseconds per pass over the subset.
    pub wall_ms: Spread,
    /// Host nanoseconds per dispatched simulator event.
    pub ns_per_event: Spread,
    /// Dispatched simulator events per host second.
    pub events_per_sec: Spread,
}

impl PathStats {
    fn of(samples: &[Sample]) -> PathStats {
        PathStats {
            wall_ms: Spread::of(samples.iter().map(|s| s.wall_ns as f64 / 1e6).collect()),
            ns_per_event: Spread::of(samples.iter().map(Sample::ns_per_event).collect()),
            events_per_sec: Spread::of(samples.iter().map(Sample::events_per_sec).collect()),
        }
    }
}

/// Host-speed calibration of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// [`calibration_kernel`] time per iteration, milliseconds.
    pub kernel_ms: Spread,
    /// Per iteration, ns/event over that iteration's kernel ms: the
    /// host-invariant figure the regression gate compares.
    pub ns_per_event_per_kernel_ms: Spread,
}

impl Calibration {
    /// Pairs each pass with the kernel time taken beside it.
    fn of(opt: &[Sample], kernel_ms: &[f64]) -> Calibration {
        Calibration {
            kernel_ms: Spread::of(kernel_ms.to_vec()),
            ns_per_event_per_kernel_ms: Spread::of(
                opt.iter().zip(kernel_ms).map(|(s, k)| s.ns_per_event() / k).collect(),
            ),
        }
    }
}

/// The full benchmark result serialised to `BENCH_simcore.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Timed passes.
    pub iters: u32,
    /// Simulations per pass (size of the pinned subset).
    pub runs_per_iter: usize,
    /// Simulator events dispatched per pass (identical across iterations
    /// — the simulator is deterministic).
    pub events_per_iter: u64,
    /// The hot path's timings.
    pub optimized: PathStats,
    /// Host-speed calibration taken alongside the passes.
    pub calibration: Calibration,
}

/// Times `iters` passes over the pinned subset, each beside a
/// calibration-kernel pass.
///
/// # Panics
///
/// Panics when `iters` is zero, or if two passes ever dispatch different
/// event counts (the simulator would have lost determinism).
pub fn measure(iters: u32) -> BenchReport {
    measure_cases(pinned_subset(), iters)
}

/// Like [`measure`], but over the pinned service-mode subset
/// ([`service_subset`]): ns/event of the open-loop arrival, admission
/// and per-class accounting path under sustained Poisson load. Appended
/// to `BENCH_trajectory.json` under its own `+service` label by
/// `xtask bench --service`.
///
/// # Panics
///
/// Same contract as [`measure`].
pub fn measure_service(iters: u32) -> BenchReport {
    measure_cases(service_subset(), iters)
}

/// Events one `--events` pass dispatches.
const EVENTS_PER_PASS: u64 = 2_000_000;

/// Events the `--events` microbench holds pending in steady state.
const EVENTS_HELD: u64 = 4096;

/// One timed pass of the calendar-queue cohort microbench: a hold model
/// that keeps ~[`EVENTS_HELD`] synthetic events pending, draining whole
/// same-timestamp cohorts and refilling one push per pop. The stream is
/// deterministic ([`SplitMix64`], fixed seed) and shaped like simulator
/// traffic: a quarter of pushes land on an already-pending timestamp
/// (cohort partners), 1/64 land far in the future (repair-style overflow
/// traffic), the rest spread over the near rung.
fn run_events_pass() -> Sample {
    use relief_sim::{EventQueue, SplitMix64, Time};
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut rng = SplitMix64::new(0xC0_0407);
    let mut pushed = 0u64;
    let mut last_at: u64 = 0;
    let mut push = |q: &mut EventQueue<u32>, now: u64, rng: &mut SplitMix64, pushed: &mut u64| {
        let r = rng.next_u64();
        let delta = if r.is_multiple_of(64) {
            // Far-future (MTTF-repair-like): lands in overflow.
            1_000_000_000 + (r >> 8) % 1_000_000_000
        } else if r.is_multiple_of(4) {
            // Duplicate of the last scheduled time: forms a cohort.
            0
        } else {
            // Near-rung traffic.
            1 + (r >> 8) % 50_000
        };
        last_at = if delta == 0 { last_at } else { now + delta };
        q.push(Time::from_ps(last_at), (*pushed & 0xFFFF) as u32);
        *pushed += 1;
    };
    for _ in 0..EVENTS_HELD {
        push(&mut q, 0, &mut rng, &mut pushed);
    }
    let mut scratch: Vec<u32> = Vec::new();
    let mut dispatched = 0u64;
    let t0 = Instant::now();
    while dispatched < EVENTS_PER_PASS {
        let Some(at) = q.pop_cohort(&mut scratch) else {
            unreachable!("hold model keeps the queue non-empty");
        };
        let refill = scratch.len();
        for &e in &scratch {
            q.mark_dispatched(at);
            std::hint::black_box(e);
            dispatched += 1;
        }
        for _ in 0..refill {
            push(&mut q, at.as_ps(), &mut rng, &mut pushed);
        }
    }
    Sample { wall_ns: t0.elapsed().as_nanos() as u64, events: dispatched }
}

/// Like [`measure`], but for the queue cohort-pop microbench
/// (`xtask bench --events`): ns per dispatched event through
/// [`EventQueue::pop_cohort`] + refill alone, with no simulator handler
/// work in the timed region. Appended to `BENCH_trajectory.json` under
/// its own `+events` label.
///
/// # Panics
///
/// Panics when `iters` is zero.
pub fn measure_events(iters: u32) -> BenchReport {
    assert!(iters > 0, "need at least one iteration");
    run_events_pass();
    let mut passes = Vec::new();
    let mut kernel = Vec::new();
    for _ in 0..iters {
        kernel.push(calibration_ms());
        passes.push(run_events_pass());
    }
    BenchReport {
        iters,
        runs_per_iter: 1,
        events_per_iter: passes[0].events,
        optimized: PathStats::of(&passes),
        calibration: Calibration::of(&passes, &kernel),
    }
}

/// Shared timing loop behind [`measure`] and [`measure_service`].
fn measure_cases(cases: Vec<Case>, iters: u32) -> BenchReport {
    assert!(iters > 0, "need at least one iteration");
    // Warm-up pass (page-cache, branch predictors, allocator).
    let warm = run_cases(&cases);
    let mut passes = Vec::new();
    let mut kernel = Vec::new();
    for _ in 0..iters {
        kernel.push(calibration_ms());
        let pass = run_cases(&cases);
        assert_eq!(pass.events, warm.events, "the simulator must stay deterministic");
        passes.push(pass);
    }
    BenchReport {
        iters,
        runs_per_iter: cases.len(),
        events_per_iter: warm.events,
        optimized: PathStats::of(&passes),
        calibration: Calibration::of(&passes, &kernel),
    }
}

fn spread_json(s: &Spread, digits: usize) -> String {
    format!(
        "{{\"median\": {:.digits$}, \"min\": {:.digits$}, \"max\": {:.digits$}}}",
        s.median, s.min, s.max
    )
}

fn path_json(p: &PathStats) -> String {
    format!(
        "{{\n    \"wall_ms\": {},\n    \"ns_per_event\": {},\n    \"events_per_sec\": {}\n  }}",
        spread_json(&p.wall_ms, 2),
        spread_json(&p.ns_per_event, 1),
        spread_json(&p.events_per_sec, 0),
    )
}

/// Serialises a report to the `BENCH_simcore.json` format (documented in
/// README.md). Hand-rolled like every other JSON writer in the tree.
pub fn to_json(r: &BenchReport) -> String {
    format!(
        "{{\n  \"schema\": \"{}\",\n  \"subset\": \"{}\",\n  \"iters\": {},\n  \
         \"runs_per_iter\": {},\n  \"events_per_iter\": {},\n  \"optimized\": {},\n  \
         \"calibration\": {{\n    \"kernel\": \"{}\",\n    \"kernel_ms\": {},\n    \
         \"ns_per_event_per_kernel_ms\": {}\n  }}\n}}\n",
        SCHEMA,
        SUBSET,
        r.iters,
        r.runs_per_iter,
        r.events_per_iter,
        path_json(&r.optimized),
        CALIBRATION_KERNEL,
        spread_json(&r.calibration.kernel_ms, 2),
        spread_json(&r.calibration.ns_per_event_per_kernel_ms, 4),
    )
}

/// One point of the cross-PR performance trajectory: the medians of one
/// full `xtask bench` run, labelled by revision.
#[derive(Debug, Clone)]
pub struct TrajectoryEntry {
    /// Revision label (short commit hash, or `"worktree"` when unknown).
    pub label: String,
    /// Timed passes behind the medians.
    pub iters: u32,
    /// Median ns/event.
    pub optimized_ns_per_event: f64,
    /// Median events/sec.
    pub events_per_sec: f64,
    /// Peak host RSS in megabytes (schema v2, `+soak` entries only).
    pub rss_peak_mb: Option<f64>,
    /// Live-slot high-water mark (schema v2, `+soak` entries only).
    pub live_high_water: Option<u64>,
    /// Median calibration kernel time in ms (schema v3), so entries
    /// recorded on hosts of different speeds can be read side by side.
    pub calib_ms: Option<f64>,
}

impl TrajectoryEntry {
    /// Extracts the trajectory-relevant medians from a full report.
    #[must_use]
    pub fn from_report(label: &str, r: &BenchReport) -> TrajectoryEntry {
        TrajectoryEntry {
            label: label.into(),
            iters: r.iters,
            optimized_ns_per_event: r.optimized.ns_per_event.median,
            events_per_sec: r.optimized.events_per_sec.median,
            rss_peak_mb: None,
            live_high_water: None,
            calib_ms: Some(r.calibration.kernel_ms.median),
        }
    }

    /// The entry as a single flat JSON object (one line, no nesting —
    /// [`append_trajectory`] relies on this shape to re-parse entries).
    /// The optional v2 fields are emitted only when present, so pre-soak
    /// entries round-trip byte-identically.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"label\": \"{}\", \"iters\": {}, \"optimized_ns_per_event\": {:.1}, \
             \"events_per_sec\": {:.0}",
            self.label.replace(['"', '\\'], "_"),
            self.iters,
            self.optimized_ns_per_event,
            self.events_per_sec,
        );
        if let Some(mb) = self.rss_peak_mb {
            out.push_str(&format!(", \"rss_peak_mb\": {mb:.1}"));
        }
        if let Some(hw) = self.live_high_water {
            out.push_str(&format!(", \"live_high_water\": {hw}"));
        }
        if let Some(ms) = self.calib_ms {
            out.push_str(&format!(", \"calib_ms\": {ms:.2}"));
        }
        out.push('}');
        out
    }
}

/// Appends `entry` to a serialised trajectory file, returning the new
/// file body. `existing` is the previous content (`None` or unparseable
/// content starts a fresh history — the file is derived data). Entries
/// are kept in append order, one per line, so diffs stay one-line-per-PR.
#[must_use]
pub fn append_trajectory(existing: Option<&str>, entry: &TrajectoryEntry) -> String {
    let mut entries: Vec<String> =
        existing.filter(|body| is_trajectory(body)).map(extract_flat_objects).unwrap_or_default();
    entries.push(entry.to_json());
    let mut out = format!("{{\n  \"schema\": \"{TRAJECTORY_SCHEMA}\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!("    {e}{sep}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Collects every flat (nesting-free) `{...}` object in `body` that has
/// a `"label"` key — the entry shape [`TrajectoryEntry::to_json`] emits.
fn extract_flat_objects(body: &str) -> Vec<String> {
    let mut entries = Vec::new();
    let mut rest = body;
    while let Some(at) = rest.find("{\"label\":") {
        let tail = &rest[at..];
        let Some(end) = tail.find('}') else { break };
        entries.push(tail[..=end].to_string());
        rest = &tail[end + 1..];
    }
    entries
}

/// Reads a numeric field out of one flat trajectory-entry object.
fn flat_field(entry: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let at = entry.find(&needle)?;
    let num = &entry[at + needle.len()..];
    let end = num.find([',', '}'])?;
    num[..end].trim().parse().ok()
}

/// The newest `+soak` entry of a serialised trajectory history — the
/// committed soak baseline `xtask bench --check` gates against: its
/// ns/event and, when recorded (schema v3), its calibration kernel ms.
/// `None` when the history is missing, from another schema, or holds no
/// soak entries yet.
#[must_use]
pub fn last_soak(history: &str) -> Option<(f64, Option<f64>)> {
    if !is_trajectory(history) {
        return None;
    }
    let entries = extract_flat_objects(history);
    let entry =
        entries.iter().rev().find(|e| flat_label(e).is_some_and(|l| l.ends_with("+soak")))?;
    Some((flat_field(entry, "optimized_ns_per_event")?, flat_field(entry, "calib_ms")))
}

/// The soak half of `xtask bench --check`: the fresh soak's ns/event
/// over the kernel ms timed beside it must stay within `tolerance` (a
/// fraction) of the committed `(ns/event, calib_ms)` entry's ratio
/// ([`last_soak`]). An entry without `calib_ms` fails: it must be
/// re-recorded, not compared in absolute ns. Returns the summary either
/// way; `Err` means the gate failed.
pub fn soak_gate(
    committed: (f64, Option<f64>),
    fresh_ns: f64,
    fresh_kernel_ms: f64,
    tolerance: f64,
) -> Result<String, String> {
    let (old_ns, old_kernel) = committed;
    let Some(old_kernel) = old_kernel else {
        return Err(format!(
            "the newest +soak trajectory entry ({old_ns:.1} ns/event) has no calib_ms; \
             re-record it with 'cargo run -p xtask -- bench --soak' and commit it"
        ));
    };
    let old = old_ns / old_kernel;
    let fresh = fresh_ns / fresh_kernel_ms;
    let limit = old * (1.0 + tolerance);
    let summary = format!(
        "committed {old:.3} vs fresh {fresh:.3} ns/event per kernel-ms; limit {limit:.3} at \
         {:.0}% tolerance [absolute: committed {old_ns:.1} ns/event at {old_kernel:.1} \
         ms/kernel, fresh {fresh_ns:.1} ns/event at {fresh_kernel_ms:.1} ms/kernel]",
        tolerance * 100.0,
    );
    // total_cmp: a NaN measurement must fail the gate, not sneak past `>`.
    if fresh.total_cmp(&limit) == std::cmp::Ordering::Greater || !fresh.is_finite() {
        Err(format!("soak regressed: {summary}"))
    } else {
        Ok(summary)
    }
}

/// The label of one flat trajectory-entry object.
fn flat_label(entry: &str) -> Option<&str> {
    let rest = entry.strip_prefix("{\"label\": \"")?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Reads the median of the `{"median", …}` spread that follows `key`
/// inside the `section` object of a serialised `BENCH_simcore.json`.
fn section_median(json: &str, section: &str, key: &str) -> Result<f64, String> {
    let body = json
        .find(&format!("\"{section}\":"))
        .map(|at| &json[at..])
        .ok_or(format!("missing {section} section"))?;
    let needle = format!("\"{key}\": {{\"median\": ");
    let num =
        body.find(&needle).map(|at| &body[at + needle.len()..]).ok_or(format!("missing {key}"))?;
    let end = num.find([',', '}']).ok_or(format!("unterminated {key} median"))?;
    num[..end].trim().parse().map_err(|e| format!("bad {key} median: {e}"))
}

/// Reads the median ns/event out of a serialised `BENCH_simcore.json` —
/// kept on record beside the calibrated figure.
pub fn baseline_optimized_ns(json: &str) -> Result<f64, String> {
    validate(json)?;
    section_median(json, "optimized", "ns_per_event")
}

/// Reads the median calibrated cost (ns/event over kernel ms)
/// out of a serialised `BENCH_simcore.json` — the committed baseline the
/// regression gate compares against.
pub fn baseline_calibrated(json: &str) -> Result<f64, String> {
    validate(json)?;
    section_median(json, "calibration", "ns_per_event_per_kernel_ms")
}

/// The no-regression gate of `xtask bench --check`: the *fastest* pass
/// of the fresh run, in calibrated units (ns/event over the
/// calibration kernel's ms), must stay within `tolerance` (a fraction,
/// e.g. `0.10`) of the committed baseline's *median* calibrated cost.
/// Dividing by the kernel cancels host speed, so the gate trips on code,
/// not on the machine; comparing fresh-min against committed-median
/// absorbs run-to-run noise (a loaded box only ever makes the fresh run
/// look slower). The summary also reports absolute ns/event and kernel
/// ms on both sides. Returns the summary either way; `Err` means the
/// gate failed.
pub fn regression_gate(
    baseline_json: &str,
    report: &BenchReport,
    tolerance: f64,
) -> Result<String, String> {
    let old = baseline_calibrated(baseline_json).map_err(|e| format!("bad baseline: {e}"))?;
    let old_ns = baseline_optimized_ns(baseline_json).map_err(|e| format!("bad baseline: {e}"))?;
    let old_kernel = section_median(baseline_json, "calibration", "kernel_ms")
        .map_err(|e| format!("bad baseline: {e}"))?;
    let fresh = report.calibration.ns_per_event_per_kernel_ms;
    let limit = old * (1.0 + tolerance);
    let summary = format!(
        "committed median {old:.3} vs fresh median {:.3} (min {:.3}) ns/event per kernel-ms; \
         limit {limit:.3} at {:.0}% tolerance [absolute: committed {old_ns:.1} ns/event at \
         {old_kernel:.1} ms/kernel, fresh {:.1} ns/event at {:.1} ms/kernel]",
        fresh.median,
        fresh.min,
        tolerance * 100.0,
        report.optimized.ns_per_event.median,
        report.calibration.kernel_ms.median,
    );
    // total_cmp: a NaN measurement must fail the gate, not sneak past `>`.
    if fresh.min.total_cmp(&limit) == std::cmp::Ordering::Greater || !fresh.min.is_finite() {
        Err(format!("hot path regressed: {summary}"))
    } else {
        Ok(summary)
    }
}

/// Validates a serialised report: well-formed JSON, the expected schema
/// tag, and one strictly positive `events_per_sec` median.
/// Used by `xtask bench --check` so the bench binary cannot bit-rot.
pub fn validate(json: &str) -> Result<(), String> {
    if !relief_trace::chrome::is_well_formed_json(json) {
        return Err("not well-formed JSON".into());
    }
    if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("missing schema tag {SCHEMA:?}"));
    }
    for key in [
        "\"optimized\":",
        "\"calibration\":",
        "\"ns_per_event_per_kernel_ms\":",
    ] {
        if !json.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    let mut medians = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"events_per_sec\": {\"median\": ") {
        let num = &rest[at + "\"events_per_sec\": {\"median\": ".len()..];
        let end = num.find([',', '}']).ok_or("unterminated events_per_sec median")?;
        let value: f64 =
            num[..end].trim().parse().map_err(|e| format!("bad events_per_sec: {e}"))?;
        medians.push(value);
        rest = &rest[at + 1..];
    }
    if medians.len() != 1 {
        return Err(format!("expected 1 events_per_sec median, found {}", medians.len()));
    }
    // partial_cmp: a NaN median must fail validation, not slip past `>`.
    if let Some(bad) =
        medians.iter().find(|v| (**v).partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater))
    {
        return Err(format!("events_per_sec must be positive, got {bad}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_median_and_extremes() {
        let s = Spread::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max), (2.0, 1.0, 3.0));
        let s = Spread::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
    }

    #[test]
    fn sample_rates() {
        let s = Sample { wall_ns: 2_000, events: 1_000 };
        assert_eq!(s.ns_per_event(), 2.0);
        assert_eq!(s.events_per_sec(), 5e8);
    }

    /// A calibration at a fixed `kernel_ms` for every pass.
    fn calibration(opt: &PathStats, kernel_ms: f64) -> Calibration {
        let k = Spread { median: kernel_ms, min: kernel_ms, max: kernel_ms };
        let n = opt.ns_per_event;
        Calibration {
            kernel_ms: k,
            ns_per_event_per_kernel_ms: Spread {
                median: n.median / kernel_ms,
                min: n.min / kernel_ms,
                max: n.max / kernel_ms,
            },
        }
    }

    #[test]
    fn json_roundtrip_validates() {
        let stats = PathStats {
            wall_ms: Spread { median: 10.0, min: 9.5, max: 11.0 },
            ns_per_event: Spread { median: 50.0, min: 48.0, max: 52.0 },
            events_per_sec: Spread { median: 2e7, min: 1.9e7, max: 2.1e7 },
        };
        let report = BenchReport {
            iters: 3,
            runs_per_iter: 32,
            events_per_iter: 123_456,
            optimized: stats,
            calibration: calibration(&stats, 20.0),
        };
        let json = to_json(&report);
        assert_eq!(validate(&json), Ok(()));
        assert_eq!(baseline_calibrated(&json), Ok(2.5));
        assert!(!json.contains("reference") && !json.contains("speedup"), "{json}");
        // Older-tagged reports no longer validate.
        for old in ["relief-simcore-bench/v1", "relief-simcore-bench/v2"] {
            assert!(validate(&json.replace(SCHEMA, old)).is_err());
        }
    }

    #[test]
    fn calibration_pairs_each_pass_with_its_kernel_time() {
        let opt = [Sample { wall_ns: 6_000, events: 100 }, Sample { wall_ns: 12_000, events: 100 }];
        // The second pass ran on a host twice as slow: same code, same
        // calibrated cost.
        let c = Calibration::of(&opt, &[20.0, 40.0]);
        assert_eq!(c.ns_per_event_per_kernel_ms.min, 3.0);
        assert_eq!(c.ns_per_event_per_kernel_ms.max, 3.0);
        assert_eq!(c.kernel_ms.median, 30.0);
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate("{").is_err());
        assert!(validate("{}").is_err());
        let zeroed = to_json(&BenchReport {
            iters: 1,
            runs_per_iter: 1,
            events_per_iter: 0,
            optimized: PathStats {
                wall_ms: Spread { median: 1.0, min: 1.0, max: 1.0 },
                ns_per_event: Spread { median: 1.0, min: 1.0, max: 1.0 },
                events_per_sec: Spread { median: 0.0, min: 0.0, max: 0.0 },
            },
            calibration: Calibration {
                kernel_ms: Spread { median: 1.0, min: 1.0, max: 1.0 },
                ns_per_event_per_kernel_ms: Spread { median: 1.0, min: 1.0, max: 1.0 },
            },
        });
        assert!(validate(&zeroed).unwrap_err().contains("positive"));
    }

    fn report_with_optimized_median(median: f64) -> BenchReport {
        report_on_host(median, 20.0)
    }

    /// A report whose passes ran at `median` ns/event on a host whose
    /// calibration kernel took `kernel_ms`.
    fn report_on_host(median: f64, kernel_ms: f64) -> BenchReport {
        let stats = PathStats {
            wall_ms: Spread { median: 10.0, min: 9.5, max: 11.0 },
            ns_per_event: Spread { median, min: median * 0.95, max: median * 1.4 },
            events_per_sec: Spread { median: 2e7, min: 1.9e7, max: 2.1e7 },
        };
        BenchReport {
            iters: 3,
            runs_per_iter: 32,
            events_per_iter: 123_456,
            optimized: stats,
            calibration: calibration(&stats, kernel_ms),
        }
    }

    #[test]
    fn trajectory_appends_and_reparses() {
        let entry = TrajectoryEntry::from_report("pr5", &report_with_optimized_median(50.0));
        let first = append_trajectory(None, &entry);
        assert!(first.contains(TRAJECTORY_SCHEMA));
        assert!(relief_trace::chrome::is_well_formed_json(&first));
        let second = append_trajectory(Some(&first), &entry);
        assert_eq!(second.matches("\"label\": \"pr5\"").count(), 2);
        assert!(relief_trace::chrome::is_well_formed_json(&second));
        // Garbage previous content starts a fresh single-entry history.
        let fresh = append_trajectory(Some("not json"), &entry);
        assert_eq!(fresh.matches("\"label\"").count(), 1);
    }

    #[test]
    fn trajectory_v2_optional_fields_and_v1_compat() {
        // Optional fields absent: the line matches the v1 entry shape.
        let plain = TrajectoryEntry::from_report("abc", &report_with_optimized_median(50.0));
        assert!(!plain.to_json().contains("rss_peak_mb"));
        assert!(!plain.to_json().contains("reference_ns_per_event"));
        assert!(!plain.to_json().contains("speedup"));
        // Present: emitted, and the file stays well-formed.
        let mut soak = plain.clone();
        soak.label = "abc+soak".into();
        soak.rss_peak_mb = Some(123.4);
        soak.live_high_water = Some(42);
        let body = append_trajectory(None, &soak);
        assert!(body.contains("\"rss_peak_mb\": 123.4"), "{body}");
        assert!(body.contains("\"calib_ms\": 20.00"), "{body}");
        assert!(body.contains("\"live_high_water\": 42"), "{body}");
        assert!(relief_trace::chrome::is_well_formed_json(&body));
        // A v1-tagged history is still parsed: entries survive the append.
        let v1 =
            append_trajectory(None, &plain).replace(TRAJECTORY_SCHEMA, TRAJECTORY_SCHEMAS_OLD[0]);
        assert!(v1.contains(TRAJECTORY_SCHEMAS_OLD[0]));
        let upgraded = append_trajectory(Some(&v1), &soak);
        assert_eq!(upgraded.matches("\"label\"").count(), 2, "{upgraded}");
        assert!(upgraded.contains(TRAJECTORY_SCHEMA), "{upgraded}");
        // The soak baseline reader finds the latest +soak entry in both.
        assert_eq!(last_soak(&upgraded), Some((50.0, Some(20.0))));
        assert_eq!(last_soak(&v1), None, "no +soak entry in the v1 body");
        assert_eq!(last_soak("not json"), None);
    }

    #[test]
    fn trajectory_keeps_old_entries_verbatim() {
        let old = "{\n  \"schema\": \"relief-simcore-trajectory/v3\",\n  \"entries\": [\n    \
                   {\"label\": \"x+soak\", \"iters\": 1, \"optimized_ns_per_event\": 104.2, \
                   \"reference_ns_per_event\": 104.2, \"events_per_sec\": 9600980, \
                   \"speedup\": 1.00, \"rss_peak_mb\": 3.7, \"live_high_water\": 29}\n  ]\n}\n";
        let entry = TrajectoryEntry::from_report("y", &report_with_optimized_median(50.0));
        let body = append_trajectory(Some(old), &entry);
        assert!(body.contains("\"reference_ns_per_event\": 104.2, "), "{body}");
        assert_eq!(body.matches("speedup").count(), 1, "{body}");
        // A pre-calibration soak entry is found, without `calib_ms`.
        assert_eq!(last_soak(&body), Some((104.2, None)));
    }

    #[test]
    fn soak_gate_is_calibrated_and_demands_calib_ms() {
        // 100 ns/event at 20 ms/kernel calibrates to 5.0; limit 8.0 at 60 %.
        let committed = (100.0, Some(20.0));
        assert!(soak_gate(committed, 100.0, 20.0, 0.60).is_ok());
        // Same code on a host twice as slow: still passes.
        assert!(soak_gate(committed, 200.0, 40.0, 0.60).is_ok());
        // A real 70 % regression fails, printing both sides.
        let err = soak_gate(committed, 170.0, 20.0, 0.60).unwrap_err();
        assert!(err.contains("5.000") && err.contains("8.500"), "{err}");
        assert!(soak_gate(committed, f64::NAN, 20.0, 0.60).is_err());
        // No calib_ms on the committed entry: fail and ask for a
        // re-record, never fall back to absolute ns.
        let err = soak_gate((100.0, None), 50.0, 20.0, 0.60).unwrap_err();
        assert!(err.contains("re-record"), "{err}");
    }

    #[test]
    fn trajectory_entry_sanitizes_label() {
        let mut entry = TrajectoryEntry::from_report("x", &report_with_optimized_median(50.0));
        entry.label = "a\"b\\c".into();
        assert!(relief_trace::chrome::is_well_formed_json(&format!(
            "{{\"e\": {}}}",
            entry.to_json()
        )));
    }

    #[test]
    fn baseline_median_roundtrips() {
        let json = to_json(&report_with_optimized_median(62.5));
        assert_eq!(baseline_optimized_ns(&json), Ok(62.5));
        assert!(baseline_optimized_ns("{}").is_err());
    }

    #[test]
    fn regression_gate_passes_within_tolerance_and_fails_beyond() {
        // Kernel 20 ms throughout: 100 ns/event calibrates to 5.0.
        let baseline = to_json(&report_with_optimized_median(100.0));
        // Fresh min 4.75 (median 5.0) against limit 5.5: pass.
        let same = report_with_optimized_median(100.0);
        assert!(regression_gate(&baseline, &same, 0.10).is_ok());
        // Fresh min 5.7 > 5.5: fail, and the message shows both sides,
        // calibrated and absolute.
        let slower = report_with_optimized_median(120.0);
        let err = regression_gate(&baseline, &slower, 0.10).unwrap_err();
        assert!(err.contains("5.000"), "missing old median: {err}");
        assert!(err.contains("5.700"), "missing new min: {err}");
        assert!(err.contains("100.0 ns/event"), "missing absolute baseline: {err}");
        // A looser tolerance admits the same run.
        assert!(regression_gate(&baseline, &slower, 0.20).is_ok());
    }

    #[test]
    fn regression_gate_is_host_invariant() {
        let baseline = to_json(&report_on_host(63.4, 20.0));
        // The same code on a host twice as slow: absolute ns doubles,
        // the kernel doubles with it, and the gate still passes.
        assert!(regression_gate(&baseline, &report_on_host(126.8, 40.0), 0.10).is_ok());
        // A real 20 % regression on that slow host still fails.
        assert!(regression_gate(&baseline, &report_on_host(152.2, 40.0), 0.10).is_err());
        // A faster host cannot mask a regression either.
        assert!(regression_gate(&baseline, &report_on_host(45.6, 12.0), 0.10).is_err());
    }

    #[test]
    fn pinned_subset_is_stable() {
        let cases = pinned_subset();
        let high_mixes = Contention::High.mixes().len();
        assert_eq!(cases.len(), high_mixes * crate::MAIN_POLICIES.len() + 2);
        assert!(cases.iter().all(|c| !c.workload.is_empty() && c.stream.is_none()));
    }

    #[test]
    fn service_subset_streams_every_case() {
        let cases = service_subset();
        assert_eq!(cases.len(), 4);
        for c in &cases {
            assert_eq!(c.workload.len(), 3);
            let stream = c.stream.as_ref().unwrap();
            assert!(stream.enabled(), "service case must stream");
            assert_eq!(stream.tenants.len(), c.workload.len());
        }
        assert!(run_cases(&cases).events > 0);
    }
}
