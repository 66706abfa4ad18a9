//! Generational-instance-recycling property suite: retiring completed /
//! aborted / cancelled DAG instances into the slot allocator — and
//! recycling their `NodeRt` vectors through the per-app pools — must be
//! *observationally invisible*. This suite pins every cell to a committed
//! digest (see `common`), captured while a never-retiring path (slot ==
//! admission serial throughout) ran beside the recycling one and agreed
//! bit for bit. Each digest also pins the cell's live-slot high-water
//! mark:
//!
//! 1. **Seed × policy rotation** — twenty distinct simulation seeds
//!    rotated through all eleven policies, with deterministic fault
//!    injection (task aborts retire instances mid-run) folded into every
//!    third seed.
//! 2. **Service mode with the self-healing stack on** — Poisson
//!    arrivals, request timeouts, hedged retries, and circuit breakers.
//!    Completed requests leave armed `Ev::Timeout`s behind; those fire
//!    after the slot has been recycled and must be recognised as stale
//!    (serial mismatch) and dropped, not cancel the new tenant.
//! 3. **Recycling actually engages** — in service mode the live-slot
//!    high-water mark stays strictly below the run's launched instances
//!    (admissions plus hedges: what a never-retiring run would hold), so
//!    the equivalence above is not running with retirement accidentally
//!    disabled.
//! 4. **Bounded-memory mode is observation-only** — dropping the
//!    O(completed-instances) prediction/runtime samples must not move
//!    one simulated event.

mod common;

use common::{cgl_apps, Digests};
use relief::bench::config_for;
use relief::prelude::*;
use relief_accel::SimResult;
use relief_service::{AdmissionConfig, SelfHealConfig, StreamConfig, TenantCfg};

const TWENTY_SEEDS: &[(&str, u64)] = &[
    ("seed 0 Fcfs", 0xf9e8a119f7430ff5),
    ("seed 1 GedfD", 0x39896f62b95a38f4),
    ("seed 2 GedfN +faults", 0xf08c31d48676315a),
    ("seed 3 Lax", 0x7d1a9d6c858c3089),
    ("seed 4 ReliefLax", 0x66a4e8dbaa990fca),
    ("seed 5 Ll +faults", 0xc43a4558ee73213f),
    ("seed 6 HetSched", 0x8c7a39f144915962),
    ("seed 7 Relief", 0x903540cdcef99c6e),
    ("seed 8 ReliefHet +faults", 0x591dcc9cc6765423),
    ("seed 9 ReliefUnthrottled", 0x811f166f857864bf),
    ("seed 10 Adaptive", 0x6fb5da4a5d101b01),
    ("seed 11 Fcfs +faults", 0xb195f2d7d566029d),
    ("seed 12 GedfD", 0x7e17360ebf7c4168),
    ("seed 13 GedfN", 0xa0b7acad34da6f18),
    ("seed 14 Lax +faults", 0xe96bf0eb2e0c978b),
    ("seed 15 ReliefLax", 0x76235d5a39cd42fe),
    ("seed 16 Ll", 0xe1a2e1221ed1d0b9),
    ("seed 17 HetSched +faults", 0x43580be1f813ae75),
    ("seed 18 Relief", 0x9bd337dfdbf2b80d),
    ("seed 19 ReliefHet", 0xa26479bda8d4c33d),
];
const SERVICE_SELF_HEALING: &[(&str, u64)] = &[
    ("service seed 0x4ec50001 Relief", 0x199488f69a1ccdd5),
    ("service seed 0x4ec50002 Fcfs", 0xa14b4f6374a22c67),
    ("service seed 0x4ec50003 Adaptive", 0x8eb2c212f05f9e7c),
];

/// Runs one cell and records its digest, with the live-slot high-water
/// mark pinned beside the observable outcome.
fn run(cfg: SocConfig, workload: &[AppSpec], what: String, digests: &mut Digests) -> SimResult {
    let r = common::run(cfg, workload);
    digests.record_run(what, &r, &format!("live_high_water {}\n", r.live_high_water));
    r
}

/// The self-healing stack the service-mode tests stream under: breakers,
/// 2x-prediction request timeouts, and hedged retries for the top two
/// QoS classes — every handle-outliving-the-instance mechanism at once.
fn self_heal() -> SelfHealConfig {
    SelfHealConfig {
        breaker_failures: 3,
        breaker_open_ps: 2_000_000_000,
        probe_rate: 0.5,
        probes_to_close: 2,
        timeout_factor: 1.5,
        hedge_budget: [1, 1, 0],
        hedge_rate: 1.0,
    }
}

/// A three-tenant Poisson stream at `rate` requests/s per tenant.
fn stream(seed: u64, rate: f64, cap: u32, duration_ms: u64) -> StreamConfig {
    StreamConfig {
        seed,
        duration_ps: duration_ms * 1_000_000_000,
        warmup_ps: duration_ms * 100_000_000, // first 10%
        tenants: vec![
            TenantCfg::new(QosClass::Latency, rate),
            TenantCfg::new(QosClass::Standard, rate),
            TenantCfg::new(QosClass::BestEffort, rate),
        ],
        admission: AdmissionConfig { max_in_flight: cap, ..AdmissionConfig::default() },
        self_heal: self_heal(),
        ..StreamConfig::default()
    }
}

/// Twenty seeds rotated across all eleven policies on a closed-loop
/// low-contention mix, with deterministic task/DMA faults folded into
/// every third seed so the abort path (first-fault instance retirement)
/// recycles slots mid-run.
#[test]
fn twenty_seeds_rotate_all_eleven_policies() {
    let eleven = common::eleven_policies();
    let mixes = Contention::Low.mixes();
    // The second mix, so this suite's coverage differs from
    // soa_equivalence (which sweeps the first).
    let mix = mixes.get(1).expect("low contention has at least two mixes");
    let workload = mix.workload();
    let mut digests = Digests::new();
    for seed in 0..20u64 {
        let policy = eleven[(seed as usize) % eleven.len()];
        let mut cfg = config_for(policy, Contention::Low);
        cfg.seed = 0x4EC1_0000 ^ seed.wrapping_mul(0x9E37_79B9);
        let mut what = format!("seed {seed} {policy:?}");
        if seed % 3 == 2 {
            let fault_seed = cfg.seed ^ 0x4EC1;
            cfg = cfg.with_fault(FaultConfig {
                seed: fault_seed,
                task_fault_rate: 0.03,
                dma_fault_rate: 0.02,
                ..FaultConfig::default()
            });
            what.push_str(" +faults");
        }
        run(cfg, &workload, what, &mut digests);
    }
    digests.check("TWENTY_SEEDS", TWENTY_SEEDS);
}

/// Open-loop service mode with the full self-healing stack and fault
/// injection: timeouts cancel and hedge instances (exercising stale
/// `Ev::Timeout`s on recycled slots), breakers shed, and the stream
/// admits far more requests than are ever concurrently live. The
/// recycling path must match its digests *and* demonstrably recycle:
/// its live-slot high-water mark stays strictly below the run's launched
/// instances (admissions plus hedges).
#[test]
fn service_mode_with_self_healing_recycles_and_agrees() {
    let mut digests = Digests::new();
    for &(seed, rate, policy) in &[
        (0x4EC5_0001u64, 1_500.0, PolicyKind::Relief),
        (0x4EC5_0002, 2_000.0, PolicyKind::Fcfs),
        (0x4EC5_0003, 1_000.0, PolicyKind::Adaptive),
    ] {
        let mut cfg = SocConfig::mobile(policy).with_stream(stream(seed, rate, 10, 10));
        // DRAM-channel outages stall whole requests long enough for the
        // self-healing timeouts to fire (and later land on recycled
        // slots as stale events).
        cfg = cfg.with_fault(FaultConfig {
            seed: seed ^ 0xFA17,
            task_fault_rate: 0.02,
            dma_fault_rate: 0.02,
            dram_mttf_ps: 2_000_000_000, // ~5 outages over the 10 ms stream
            ..FaultConfig::default()
        });
        let what = format!("service seed {seed:#x} {policy:?}");
        let r = run(cfg, &cgl_apps(), what.clone(), &mut digests);

        let svc = &r.stats.service;
        assert!(svc.completed() > 0, "{what}: no request completed");
        assert!(
            svc.timed_out() > 0,
            "{what}: no request timed out — the stale-timeout path was not exercised"
        );
        // Without retirement every launched instance — each admitted
        // request plus each hedge — would hold its slot to the end;
        // recycling must stay strictly below that count.
        let launched = svc.admitted() + svc.hedged();
        assert!(
            r.live_high_water < launched,
            "{what}: recycling never engaged (live high-water {} vs {launched} launched instances)",
            r.live_high_water,
        );
    }
    digests.check("SERVICE_SELF_HEALING", SERVICE_SELF_HEALING);
}

/// Bounded-memory mode (the soak bench's observation diet) drops the
/// O(completed) prediction and runtime samples but must not move one
/// simulated event: traffic, service accounting, execution time, and
/// the event count all stay bit-identical.
#[test]
fn bounded_memory_is_observation_only() {
    let build = |bounded: bool| {
        let mut cfg =
            SocConfig::mobile(PolicyKind::Relief).with_stream(stream(0x4EC5_00B1, 1_200.0, 10, 10));
        cfg.bounded_memory = bounded;
        SocSim::new(cfg, cgl_apps()).run()
    };
    let full = build(false);
    let dieted = build(true);

    assert_eq!(full.events_dispatched, dieted.events_dispatched);
    assert_eq!(full.live_high_water, dieted.live_high_water);
    assert_eq!(full.stats.exec_time, dieted.stats.exec_time);
    assert_eq!(full.stats.traffic, dieted.stats.traffic);
    assert_eq!(full.stats.service, dieted.stats.service);
    assert_eq!(full.per_app_mem_time, dieted.per_app_mem_time);
    assert_eq!(full.per_app_compute_time, dieted.per_app_compute_time);

    assert!(!full.prediction.compute_rel_errors.is_empty());
    assert!(dieted.prediction.compute_rel_errors.is_empty());
    assert!(dieted.prediction.dm_rel_errors.is_empty());
    assert!(dieted.prediction.bw_rel_errors.is_empty());
    assert!(dieted.stats.apps.values().all(|a| a.dag_runtimes.is_empty()));
}
