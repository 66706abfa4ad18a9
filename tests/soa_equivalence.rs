//! Data-oriented-core property suite: the arena/SoA task state, packed
//! transfer rows, and cohort batch dispatch behind the default hot path
//! must be *observationally invisible*. This suite pins every cell of a
//! randomized sweep to a committed digest (see `common`), captured while
//! the pre-optimisation structures ran beside the default ones and agreed
//! bit for bit:
//!
//! 1. **Seed × policy rotation** — twenty distinct simulation seeds
//!    rotated through all eleven policies (the eight fairness-study
//!    policies plus the three extensions), with deterministic fault
//!    injection folded into every fourth seed.
//! 2. **Service mode** — open-loop Poisson arrivals with admission
//!    control, where mid-stream task insertion stresses the calendar
//!    queue's near rung and the arena's slot reuse (generation bumps).
//!
//! Every digest covers the full `RunStats` Debug rendering (floats
//! render through their full shortest-round-trip form, so bit drift is
//! caught), per-app accounting, prediction samples, executed-task
//! traces, and the dispatched-event count.

mod common;

use common::Digests;
use relief::bench::config_for;
use relief::bench::service::ServiceSpec;
use relief::prelude::*;

const TWENTY_SEEDS: &[(&str, u64)] = &[
    ("seed 0 Fcfs", 0x506cdf86c1b8230f),
    ("seed 1 GedfD", 0x09c06cb5b98cbef4),
    ("seed 2 GedfN", 0x25d113845acced14),
    ("seed 3 Lax +faults", 0xa65b4835b10c3bfa),
    ("seed 4 ReliefLax", 0xebcb9f4533d34edf),
    ("seed 5 Ll", 0x4fae48d3de1f7465),
    ("seed 6 HetSched", 0xe609049b0bb0f061),
    ("seed 7 Relief +faults", 0xaa225ea6c031df6b),
    ("seed 8 ReliefHet", 0x3b88077a4f36f529),
    ("seed 9 ReliefUnthrottled", 0x06a4adf6ca7982f9),
    ("seed 10 Adaptive", 0x94c25f0ccf943f1c),
    ("seed 11 Fcfs +faults", 0xf3351e786b573cfa),
    ("seed 12 GedfD", 0x7f9f676d7ba70306),
    ("seed 13 GedfN", 0x0825b41ce64671fa),
    ("seed 14 Lax", 0x6e07a791afac9614),
    ("seed 15 ReliefLax +faults", 0x65ec7220ff5d1550),
    ("seed 16 Ll", 0x75c0f80addbbbdda),
    ("seed 17 HetSched", 0x042895dd8b92d657),
    ("seed 18 Relief", 0x98383af923a2fd0a),
    ("seed 19 ReliefHet +faults", 0x10e890d6237d3950),
];
const SERVICE_MODE: &[(&str, u64)] = &[
    ("service seed 0x5e11 Relief", 0x5b780c5072598161),
    ("service seed 0x5e12 Fcfs", 0x9188377b499545af),
    ("service seed 0x5e13 Adaptive", 0x99155e8315bc657d),
];

/// Twenty seeds rotated across all eleven policies on a low-contention
/// mix, with deterministic task/DMA faults folded into every fourth
/// seed. Each policy is exercised at least once, under at least one
/// never-before-seen seed — a summation-order or slot-reuse bug in the
/// SoA path that only shows under a particular arrival interleaving has
/// twenty chances to surface.
#[test]
fn twenty_seeds_rotate_all_eleven_policies() {
    let eleven = common::eleven_policies();
    let mixes = Contention::Low.mixes();
    let mix = mixes.first().expect("low contention has mixes");
    let workload = mix.workload();
    let mut digests = Digests::new();
    for seed in 0..20u64 {
        let policy = eleven[(seed as usize) % eleven.len()];
        let mut cfg = config_for(policy, Contention::Low);
        // Distinct, aperiodic seeds — not just 0..20 — so the RNG
        // streams start far apart.
        cfg.seed = 0xD0C5_0000 ^ seed.wrapping_mul(0x9E37_79B9);
        let mut what = format!("seed {seed} {policy:?}");
        if seed % 4 == 3 {
            let fault_seed = cfg.seed ^ 0xFA17;
            cfg = cfg.with_fault(FaultConfig {
                seed: fault_seed,
                task_fault_rate: 0.02,
                dma_fault_rate: 0.02,
                ..FaultConfig::default()
            });
            what.push_str(" +faults");
        }
        digests.run(cfg, &workload, what);
    }
    digests.check("TWENTY_SEEDS", TWENTY_SEEDS);
}

/// Open-loop service mode: Poisson arrivals, admission
/// control, and three QoS tenants. Mid-stream DAG instantiation reuses
/// arena slots (generation bumps) and lands events on the calendar
/// queue's near rung while it is draining — the hardest traffic for the
/// batched dispatcher.
#[test]
fn service_mode_agrees_across_seeds_and_policies() {
    let mut digests = Digests::new();
    for (i, &(seed, policy)) in
        [(0x5E11, PolicyKind::Relief), (0x5E12, PolicyKind::Fcfs), (0x5E13, PolicyKind::Adaptive)]
            .iter()
            .enumerate()
    {
        let spec = ServiceSpec {
            seed,
            rates: vec![150.0 + 50.0 * i as f64],
            duration_ps: 5_000_000_000, // 5 ms of arrivals
            warmup_ps: 1_000_000_000,
            policies: vec![policy],
            ..Default::default()
        };
        for run in spec.campaign().expand() {
            digests.run(run.config(), &run.apps(), format!("service seed {seed:#x} {policy:?}"));
        }
    }
    digests.check("SERVICE_MODE", SERVICE_MODE);
}
