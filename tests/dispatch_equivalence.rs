//! Dispatch-loop equivalence suite: the default path keeps DMA chunk
//! completions in `relief_sim::ChunkLane` beside the event queue and
//! dispatches the earlier of the two heads, while
//! `SocConfig::reference_hot_path` queues them as ordinary events. Both
//! must pop the identical `(time, seq)` sequence, so this suite pins the
//! edges of that merge against the reference path:
//!
//! 1. **Watchdog parity** — on a same-timestamp livelock, every
//!    no-progress window from 1 to 32 trips at the same event on both
//!    paths, with identical `StallError`s.
//! 2. **Stale completions** — ECC forwarding invalidations and request
//!    timeouts cancel transfers whose next chunk completion is already
//!    pending; those tombstones are dispatched, counted and traced
//!    exactly as on the queue path.
//! 3. **Truncation** — a `time_limit` run counts exactly one event past
//!    the limit, whether that event is a chunk completion or a queue
//!    event.

use relief::bench::chaos::ChaosSpec;
use relief::prelude::*;
use relief_accel::SimResult;
use relief_service::SelfHealConfig;
use relief_trace::{text, EventCounters, EventKind, TraceEvent};
use std::sync::Arc;

/// Runs `cfg` on the chosen path with a lossless ring sink attached.
fn run_traced(cfg: &SocConfig, apps: &[AppSpec], reference: bool) -> (SimResult, Vec<TraceEvent>) {
    let ring = RingBufferSink::shared(1 << 22);
    let mut tracer = Tracer::off();
    tracer.attach(ring.clone());
    let mut cfg = cfg.clone();
    cfg.reference_hot_path = reference;
    let result = SocSim::new(cfg, apps.to_vec()).with_tracer(&tracer).run();
    assert_eq!(ring.borrow().dropped(), 0, "ring sink must be lossless");
    let events = ring.borrow_mut().take();
    (result, events)
}

/// Runs both paths traced and asserts identical stats, event counts and
/// trace text; returns the fast path's result and trace.
fn assert_paths_agree(
    cfg: &SocConfig,
    apps: &[AppSpec],
    what: &str,
) -> (SimResult, Vec<TraceEvent>) {
    let (fast, fast_events) = run_traced(cfg, apps, false);
    let (reference, ref_events) = run_traced(cfg, apps, true);
    assert_eq!(
        format!("{:?}", fast.stats),
        format!("{:?}", reference.stats),
        "{what}: RunStats diverged between lane and queue dispatch"
    );
    assert_eq!(
        fast.events_dispatched, reference.events_dispatched,
        "{what}: event counts diverged"
    );
    assert!(
        text::to_text(&fast_events) == text::to_text(&ref_events),
        "{what}: trace text diverged"
    );
    (fast, fast_events)
}

/// The CGL tenant trio: one app spec per tenant, in tenant order.
fn cgl_apps() -> Vec<AppSpec> {
    vec![
        AppSpec::once("C", App::Canny.dag()),
        AppSpec::once("G", App::Gru.dag()),
        AppSpec::once("L", App::Lstm.dag()),
    ]
}

#[test]
fn watchdog_trips_at_the_same_event_on_both_paths() {
    // The chaos suite's livelock: 64 zero-cost tasks all run at t = 0.
    let mut b = DagBuilder::new("spin", Dur::from_us(100));
    for _ in 0..64 {
        b.add_node(NodeSpec::new(AccTypeId(0), Dur::from_ps(0)));
    }
    let dag = Arc::new(b.build().expect("independent roots form a valid dag"));
    let stall = |window: u64, reference: bool| {
        let mut cfg = SocConfig::generic(vec![1], PolicyKind::Fcfs);
        cfg.model_sched_overhead = false;
        cfg.compute_jitter = 0.0;
        cfg.watchdog_window = window;
        cfg.reference_hot_path = reference;
        SocSim::new(cfg, vec![AppSpec::once("S", dag.clone())])
            .try_run()
            .expect_err("64 same-ps events must overflow every window up to 32")
    };
    for window in 1..=32u64 {
        let fast = stall(window, false);
        let reference = stall(window, true);
        assert_eq!(fast, reference, "window {window}: StallErrors differ");
        assert_eq!(
            fast.events_dispatched,
            window + 1,
            "window {window}: the watchdog must trip on the first event past the window"
        );
    }
}

#[test]
fn stale_completions_of_cancelled_transfers_dispatch_identically() {
    for &(seed, policy) in &[(0x57A1_E001u64, PolicyKind::Relief), (0x57A1_E002, PolicyKind::Fcfs)]
    {
        let fault = FaultConfig {
            seed: seed ^ 0xECC,
            ecc_chunk_rate: 0.05,
            dram_mttf_ps: 2_000_000_000,
            ..FaultConfig::default()
        };
        let stream = StreamConfig {
            seed,
            duration_ps: 8_000_000_000,
            warmup_ps: 800_000_000,
            tenants: vec![
                TenantCfg::new(QosClass::Latency, 1_500.0),
                TenantCfg::new(QosClass::Standard, 1_500.0),
                TenantCfg::new(QosClass::BestEffort, 1_500.0),
            ],
            admission: AdmissionConfig { max_in_flight: 10, ..AdmissionConfig::default() },
            self_heal: SelfHealConfig { timeout_factor: 1.2, ..ChaosSpec::self_heal() },
            ..StreamConfig::default()
        };
        let cfg = SocConfig::mobile(policy).with_fault(fault).with_stream(stream);
        let what = format!("seed {seed:#x} {policy:?}");
        let (fast, events) = assert_paths_agree(&cfg, &cgl_apps(), &what);
        let counters = EventCounters::from_events(&events);
        // Every cancelled transfer had exactly one chunk completion
        // pending, so each cancel leaves one stale lane entry behind.
        assert!(counters.dma_cancels > 0, "{what}: no transfer was cancelled");
        assert!(
            fast.stats.faults.forward_invalidations > 0,
            "{what}: no ECC forwarding invalidation fired"
        );
        assert!(
            fast.stats.service.timeout_cancelled_xfers > 0,
            "{what}: no timeout cancelled an in-flight transfer"
        );
    }
}

/// What the event at `events[i]` (an `EventDispatched` record) was,
/// judged by the first record its handler emitted: chunk completions
/// reserve a memory resource or end their transfer; arrivals and compute
/// completions announce themselves.
fn dispatched_source(events: &[TraceEvent], i: usize) -> Option<&'static str> {
    use relief_trace::ResourceId;
    match events.get(i + 1).map(|e| &e.kind) {
        Some(EventKind::DmaEnd { .. }) => Some("lane"),
        Some(EventKind::ResourceBusy { resource, .. }) if *resource != ResourceId::Manager => {
            Some("lane")
        }
        Some(EventKind::DagArrived { .. } | EventKind::ComputeEnd { .. }) => Some("queue"),
        _ => None,
    }
}

#[test]
fn time_limit_counts_exactly_one_event_past_the_limit() {
    let apps = vec![AppSpec::once("C", App::Canny.dag()), AppSpec::once("L", App::Lstm.dag())];
    let base = SocConfig::mobile(PolicyKind::Relief);
    let (_, full) = run_traced(&base, &apps, false);
    // Every dispatch: its index in the trace and its time.
    let dispatches: Vec<(usize, u64)> = full
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.kind, EventKind::EventDispatched { .. }))
        .map(|(i, e)| (i, e.at_ps))
        .collect();
    // The first dispatch at each distinct instant after t = 0.
    let mut firsts: Vec<(usize, u64)> = Vec::new();
    for &(i, t) in &dispatches {
        if t > 0 && firsts.last().is_none_or(|&(_, last)| last != t) {
            firsts.push((i, t));
        }
    }
    assert!(firsts.len() > 100, "workload too small to sweep limits");
    let mut seen = std::collections::BTreeMap::<&str, usize>::new();
    let stride = firsts.len() / 97;
    for &(i, t) in firsts.iter().step_by(stride) {
        // The limit sits just before `t`: the first event at `t` is the
        // one popped past the limit.
        let limit = t - 1;
        let cfg = base.clone().with_time_limit(Time::from_ps(limit));
        let what = format!("limit {limit} ps");
        let (fast, _) = assert_paths_agree(&cfg, &apps, &what);
        let within = dispatches.iter().filter(|&&(_, at)| at <= limit).count() as u64;
        assert_eq!(
            fast.events_dispatched,
            within + 1,
            "{what}: a truncated run counts exactly one event past its limit"
        );
        if let Some(src) = dispatched_source(&full, i) {
            *seen.entry(src).or_default() += 1;
        }
    }
    assert!(seen.get("lane").is_some_and(|&n| n > 0), "no limit landed before a chunk: {seen:?}");
    assert!(
        seen.get("queue").is_some_and(|&n| n > 0),
        "no limit landed before a queue event: {seen:?}"
    );
}
