//! Dispatch-loop equivalence suite: the default path keeps DMA chunk
//! completions in `relief_sim::ChunkLane` beside the event queue and
//! dispatches the earlier of the two heads. That merge must pop the
//! identical `(time, seq)` sequence a single queue holding the chunk
//! completions as ordinary events would, so this suite pins the edges of
//! the merge to committed digests (see `common`) of the stats, event
//! count and full trace-event text, captured while both dispatch schemes
//! ran side by side and agreed on every cell:
//!
//! 1. **Watchdog parity** — on a same-timestamp livelock, every
//!    no-progress window from 1 to 32 trips at the pinned event with the
//!    pinned `StallError` (kind, time, event count and dump).
//! 2. **Stale completions** — ECC forwarding invalidations and request
//!    timeouts cancel transfers whose next chunk completion is already
//!    pending; those tombstones are dispatched, counted and traced
//!    exactly as on the queue path.
//! 3. **Truncation** — a `time_limit` run counts exactly one event past
//!    the limit, whether that event is a chunk completion or a queue
//!    event.

mod common;

use common::{cgl_apps, run_traced, Digests};
use relief::bench::chaos::ChaosSpec;
use relief::prelude::*;
use relief_service::SelfHealConfig;
use relief_trace::{EventCounters, EventKind, TraceEvent};
use std::sync::Arc;

const WATCHDOG: &[(&str, u64)] = &[
    ("window 1", 0x1bbd6a1d9459ebb1),
    ("window 2", 0xa947e0ac8dbf1e4d),
    ("window 3", 0x2c99c1bade1b8889),
    ("window 4", 0x4268e91487cf6a8b),
    ("window 5", 0x000cc61ecfb396fa),
    ("window 6", 0x3b200a923f4c3525),
    ("window 7", 0xec210a0888bcf0a5),
    ("window 8", 0xc4b62f4357c7f4cb),
    ("window 9", 0x3c08fc3c5fe24616),
    ("window 10", 0xeee21256a1b61254),
    ("window 11", 0x25b9cf7472fd7013),
    ("window 12", 0x7bebf5d29c5039fb),
    ("window 13", 0xfed3d82503bb267b),
    ("window 14", 0x2d92a524c4a5b6f2),
    ("window 15", 0xbfbc9da4b3638d06),
    ("window 16", 0x671e62e788918fd8),
    ("window 17", 0x83f685b51e6b7e85),
    ("window 18", 0x1628d6099a92ec32),
    ("window 19", 0xb2cf020f1338eb33),
    ("window 20", 0x23a0b74e902cc361),
    ("window 21", 0xd9b4eb2d16c3f2b3),
    ("window 22", 0x7ae58c3144b5da21),
    ("window 23", 0x5fd220edcfa743b6),
    ("window 24", 0xeea66dc39ba94bd7),
    ("window 25", 0x651b741481abbd03),
    ("window 26", 0x3014640de0ddef57),
    ("window 27", 0x243c4d5351d750df),
    ("window 28", 0x979b59adb02be135),
    ("window 29", 0x2241ec85ccc839c3),
    ("window 30", 0x6378d321c7ba2bd1),
    ("window 31", 0xd59182e85b25cb41),
    ("window 32", 0x3acfb5ea743e0822),
];
const STALE_COMPLETIONS: &[(&str, u64)] =
    &[("seed 0x57a1e001 Relief", 0x1ebeac9d80a5da05), ("seed 0x57a1e002 Fcfs", 0x66ea38fd72eb836d)];
const TIME_LIMITS: &[(&str, u64)] = &[
    ("limit 899999 ps", 0x38384a5cf0844c1a),
    ("limit 24205390 ps", 0xfa9cd7777ba578e3),
    ("limit 53164920 ps", 0x46bd3c97fd2983f0),
    ("limit 90902888 ps", 0xb293cae2fe180f52),
    ("limit 125441312 ps", 0xf434c9cc08aa3ea7),
    ("limit 170423061 ps", 0x1f53e2bf138156fe),
    ("limit 204062388 ps", 0x1fbd5c32af29c4bd),
    ("limit 238602805 ps", 0x2cc85377f6c9144b),
    ("limit 293751494 ps", 0x90a28e9fb3a4b62e),
    ("limit 327954872 ps", 0x58c793b14ac7721b),
    ("limit 352056486 ps", 0xace57a5ecbd7293e),
    ("limit 386603547 ps", 0xa4f5fcb35174740a),
    ("limit 441122092 ps", 0xa3feb819521ddbcf),
    ("limit 475401263 ps", 0x1891f9046d7a6f1c),
    ("limit 519753372 ps", 0x3259838ba71e7dff),
    ("limit 543854986 ps", 0x36e00b0aa987a973),
    ("limit 578397849 ps", 0x8cac9d161916290c),
    ("limit 632922531 ps", 0x630a9321ceebde87),
    ("limit 667195063 ps", 0x12a30f827604cb70),
    ("limit 712437853 ps", 0x9bcff0fdbee59101),
    ("limit 756526232 ps", 0x4c3cff5f4cf1a4c8),
    ("limit 780920525 ps", 0xa3ca7fcd5515f590),
    ("limit 815458148 ps", 0x78e23fdd0f29f63a),
    ("limit 860436175 ps", 0x42ac713ff4aa6df1),
    ("limit 894076360 ps", 0xf09867a61e3a51e6),
    ("limit 928615552 ps", 0x839a9927f41e5b55),
    ("limit 972691162 ps", 0x37fa9d818ec6f6ae),
    ("limit 1007231992 ps", 0x548f3fe7b754be55),
    ("limit 1052206151 ps", 0x05ae2fe416af292c),
    ("limit 1085844480 ps", 0xe5bd6dd75188807c),
    ("limit 1120384442 ps", 0x48f3bfeac667694b),
    ("limit 1175802367 ps", 0xa376ac887b4671c5),
    ("limit 1209731541 ps", 0x0ffabbeebbbd1c8e),
    ("limit 1233833155 ps", 0xa7e5eee06d415425),
    ("limit 1278546139 ps", 0x468c5ad0d09e1120),
    ("limit 1322894713 ps", 0xa9f32720ef847db7),
    ("limit 1357439073 ps", 0x521ac70f2216d11f),
    ("limit 1401516466 ps", 0xa0ec157647239702),
    ("limit 1425618080 ps", 0x1912b19c2ab66e8c),
    ("limit 1470344108 ps", 0x5c09ad367ac165c0),
    ("limit 1514688393 ps", 0x6eae0de10d002280),
    ("limit 1549233094 ps", 0x0d076754b9d5a0e8),
    ("limit 1594210888 ps", 0x27522d7a7ab24cb2),
    ("limit 1627332872 ps", 0x02c025a6702bc815),
    ("limit 1661268126 ps", 0x94e367ee02cd00c1),
    ("limit 1695812132 ps", 0xc523fc48a3ff51a1),
    ("limit 1740786303 ps", 0x5d03fd10a654e99e),
    ("limit 1774425003 ps", 0xd46733d7d8628b7e),
    ("limit 1808967618 ps", 0x121ce134ecd2c4ff),
    ("limit 1853050681 ps", 0x4647701cfaa76a80),
    ("limit 1887595292 ps", 0x785c2818bf040d82),
    ("limit 1932575310 ps", 0xed6e7879cce03fc0),
    ("limit 1966218023 ps", 0x638f9000e5ff1c85),
    ("limit 2000756593 ps", 0x242d9c8fd2721c4d),
    ("limit 2045738415 ps", 0xebf0e8730427c79d),
    ("limit 2089818904 ps", 0x06572d7a3c4fee4e),
    ("limit 2114207568 ps", 0xe385891e5f01fb37),
    ("limit 2148753339 ps", 0xb9327e4cc1d3fdf9),
    ("limit 2185421542 ps", 0x758ca5b21cb7b66f),
    ("limit 2218814183 ps", 0xaf838b527c96a27c),
    ("limit 2253353962 ps", 0x23b8620d9c1c0e09),
    ("limit 2297427630 ps", 0x9fe77860a2f8e487),
    ("limit 2321529244 ps", 0x8b6390afaa12d4e7),
    ("limit 2366508254 ps", 0x67f7cbe5cda09936),
    ("limit 2410586329 ps", 0xf6d96268b15b749a),
    ("limit 2445130559 ps", 0xe3005df6421fd71c),
    ("limit 2490116094 ps", 0x2e28edd4c95a78e0),
    ("limit 2534203689 ps", 0x5248b088e21b42c7),
    ("limit 2558602138 ps", 0xe4aa69f7b1714bb9),
    ("limit 2593148978 ps", 0xd2773c7b288ef6db),
    ("limit 2647675307 ps", 0x4605ac97e2d1d29b),
    ("limit 2671776921 ps", 0xa0f7463cc87a35b9),
    ("limit 2706313934 ps", 0x7e25bb66e5e7487a),
    ("limit 2749767812 ps", 0x35e09a7665b8342a),
    ("limit 2783551648 ps", 0x7af41a2804f57dd5),
    ("limit 2828539668 ps", 0x1cdbc0ac265061ee),
    ("limit 2862186191 ps", 0x8007110e0d4f994b),
    ("limit 2896725049 ps", 0x7eec4488cf375515),
    ("limit 2941702825 ps", 0xbabaf1b75a508f22),
    ("limit 2986707402 ps", 0x31b006b2d397c406),
    ("limit 3010174763 ps", 0x216b9a1070cfac46),
    ("limit 3044722007 ps", 0xe2479b920178051a),
    ("limit 3099239674 ps", 0xef0342bfa2535efc),
    ("limit 3123341288 ps", 0xbff9641e0fedbd74),
    ("limit 3178498615 ps", 0x11534049f5619657),
    ("limit 3201965976 ps", 0x1bbea728b44fcfd1),
    ("limit 3236510919 ps", 0xff1bc5869b531342),
    ("limit 3291033317 ps", 0x733cc488b3210101),
    ("limit 3315134931 ps", 0x9bbaba797db6a4b9),
    ("limit 3370292156 ps", 0x036a1c2162803f7b),
    ("limit 3425710814 ps", 0x61256d8b293f6094),
    ("limit 3449178175 ps", 0xd008acaba96d9801),
    ("limit 3483717728 ps", 0xa711210cb80ba011),
    ("limit 3535014795 ps", 0xc4a69a991437c967),
    ("limit 3553638999 ps", 0xeeecf1069534ae41),
    ("limit 3600120948 ps", 0x2e930d3dc5361867),
    ("limit 3612613332 ps", 0x1e769f10ea4d6320),
    ("limit 4075279553 ps", 0x30cbb51f6407e1f3),
];

#[test]
fn watchdog_trips_at_the_same_event_on_both_paths() {
    // The chaos suite's livelock: 64 zero-cost tasks all run at t = 0.
    let mut b = DagBuilder::new("spin", Dur::from_us(100));
    for _ in 0..64 {
        b.add_node(NodeSpec::new(AccTypeId(0), Dur::from_ps(0)));
    }
    let dag = Arc::new(b.build().expect("independent roots form a valid dag"));
    let stall = |window: u64| {
        let mut cfg = SocConfig::generic(vec![1], PolicyKind::Fcfs);
        cfg.model_sched_overhead = false;
        cfg.compute_jitter = 0.0;
        cfg.watchdog_window = window;
        SocSim::new(cfg, vec![AppSpec::once("S", dag.clone())])
            .try_run()
            .expect_err("64 same-ps events must overflow every window up to 32")
    };
    let mut digests = Digests::new();
    for window in 1..=32u64 {
        let err = stall(window);
        digests.record(format!("window {window}"), &format!("{err:?}"));
        assert_eq!(
            err.events_dispatched,
            window + 1,
            "window {window}: the watchdog must trip on the first event past the window"
        );
    }
    digests.check("WATCHDOG", WATCHDOG);
}

#[test]
fn stale_completions_of_cancelled_transfers_dispatch_identically() {
    let mut digests = Digests::new();
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
        let (fast, events) = run_traced(&cfg, &cgl_apps());
        digests.record_traced(what.clone(), &fast, &events);
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
    digests.check("STALE_COMPLETIONS", STALE_COMPLETIONS);
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
    let (_, full) = run_traced(&base, &apps);
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
    let mut digests = Digests::new();
    let mut seen = std::collections::BTreeMap::<&str, usize>::new();
    let stride = firsts.len() / 97;
    for &(i, t) in firsts.iter().step_by(stride) {
        // The limit sits just before `t`: the first event at `t` is the
        // one popped past the limit.
        let limit = t - 1;
        let cfg = base.clone().with_time_limit(Time::from_ps(limit));
        let what = format!("limit {limit} ps");
        let (fast, events) = run_traced(&cfg, &apps);
        digests.record_traced(what.clone(), &fast, &events);
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
    digests.check("TIME_LIMITS", TIME_LIMITS);
    assert!(seen.get("lane").is_some_and(|&n| n > 0), "no limit landed before a chunk: {seen:?}");
    assert!(
        seen.get("queue").is_some_and(|&n| n > 0),
        "no limit landed before a queue event: {seen:?}"
    );
}
