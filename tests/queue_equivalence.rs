//! Hot-path equivalence suite: the calendar event queue, interned kind
//! ids and the carried consumer index must not change one bit of
//! *simulated* behaviour. Each cell's observable outcome is pinned to a
//! committed digest (see `common`) that was captured while the
//! pre-optimisation implementations ran beside the optimised ones and
//! agreed on every cell:
//!
//! 1. **Policy sweep** — all eight fairness-study policies over a pinned
//!    high-contention mix: `RunStats`, per-app accounting, prediction
//!    samples, executed-task traces, and the event count.
//! 2. **Fault recovery** — with task faults, DMA faults, and unit
//!    outages injected (requeues at the current instant plus far-future
//!    repair events, the calendar queue's hardest traffic).
//! 3. **Continuous contention** — the 50 ms time-limited repeat path
//!    under the paper's policy and the FCFS baseline.

mod common;

use common::Digests;
use relief::bench::config_for;
use relief::prelude::*;

const ALL_POLICIES: [PolicyKind; 8] = PolicyKind::ALL;

const HIGH_CONTENTION_MIX: &[(&str, u64)] = &[
    ("Fcfs on high/CDG", 0xac05330c0083135d),
    ("GedfD on high/CDG", 0x6045a9fa9b107a24),
    ("GedfN on high/CDG", 0x63b5ea7f7fb79131),
    ("Lax on high/CDG", 0x00a6006ae2658fbe),
    ("ReliefLax on high/CDG", 0x1dd263709cd269ca),
    ("Ll on high/CDG", 0xa1b1ffe1bb6c8470),
    ("HetSched on high/CDG", 0xbac408b8209fa0dc),
    ("Relief on high/CDG", 0x3881900fd7147b5e),
];
const SECOND_MIX: &[(&str, u64)] =
    &[("Fcfs on high/CDH", 0xc0c8aa155a0db57a), ("Relief on high/CDH", 0xccd97eba84788e40)];
const FAULT_RECOVERY: &[(&str, u64)] = &[
    ("Fcfs with faults", 0xe8917be07533baaa),
    ("Relief with faults", 0xf1989e2ea61685a1),
    ("ReliefLax with faults", 0xde2d2dffd3f931c2),
];
const CONTINUOUS: &[(&str, u64)] = &[
    ("Fcfs on continuous/CDG", 0x0bc2d20163c6e313),
    ("Relief on continuous/CDG", 0x6475966df17ef594),
];

#[test]
fn all_policies_agree_on_high_contention_mix() {
    let mixes = Contention::High.mixes();
    let mix = mixes.first().expect("high contention has mixes");
    let workload = mix.workload();
    let mut digests = Digests::new();
    for policy in ALL_POLICIES {
        digests.run(
            config_for(policy, Contention::High),
            &workload,
            format!("{policy:?} on high/{}", mix.label()),
        );
    }
    digests.check("HIGH_CONTENTION_MIX", HIGH_CONTENTION_MIX);
}

#[test]
fn second_mix_covers_a_different_dag_shape() {
    let mixes = Contention::High.mixes();
    let mix = mixes.get(1).expect("high contention has at least two mixes");
    let workload = mix.workload();
    let mut digests = Digests::new();
    for policy in [PolicyKind::Fcfs, PolicyKind::Relief] {
        digests.run(
            config_for(policy, Contention::High),
            &workload,
            format!("{policy:?} on high/{}", mix.label()),
        );
    }
    digests.check("SECOND_MIX", SECOND_MIX);
}

#[test]
fn fault_recovery_requeues_agree() {
    let mixes = Contention::High.mixes();
    let mix = mixes.first().expect("high contention has mixes");
    let workload = mix.workload();
    let mut digests = Digests::new();
    for policy in [PolicyKind::Fcfs, PolicyKind::Relief, PolicyKind::ReliefLax] {
        let mut cfg = config_for(policy, Contention::High);
        cfg.fault = FaultConfig {
            task_fault_rate: 0.05,
            dma_fault_rate: 0.05,
            unit_mttf_ps: 20_000_000_000, // one outage every ~20 ms
            ..FaultConfig::default()
        };
        digests.run(cfg, &workload, format!("{policy:?} with faults"));
    }
    digests.check("FAULT_RECOVERY", FAULT_RECOVERY);
}

#[test]
fn continuous_contention_repeat_path_agrees() {
    let mixes = Contention::Continuous.mixes();
    let mix = mixes.first().expect("continuous contention has mixes");
    let workload = mix.workload();
    let mut digests = Digests::new();
    for policy in [PolicyKind::Fcfs, PolicyKind::Relief] {
        digests.run(
            config_for(policy, Contention::Continuous),
            &workload,
            format!("{policy:?} on continuous/{}", mix.label()),
        );
    }
    digests.check("CONTINUOUS", CONTINUOUS);
}
