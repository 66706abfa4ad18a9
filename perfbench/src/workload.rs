//! The three workloads and the cells each one runs.
//!
//! Every workload is a list of campaign [`RunSpec`]s built from `--seed`.
//! For `paper_grid` the benchmark wraps each spec's platform constructor,
//! keeping its canonical label, to fold the seed into the cell.

use relief_accel::{AppSpec, SocConfig};
use relief_bench::campaign::{fnv1a, PlatformSpec, RunSpec, WorkloadSpec};
use relief_bench::chaos::ChaosSpec;
use relief_bench::experiments::grid;
use relief_bench::soak::SoakSpec;
use relief_core::PolicyKind;
use relief_fault::FaultConfig;
use relief_service::{
    AdmissionConfig, ArrivalProcess, QosClass, StreamConfig, TenantCfg,
};
use relief_sim::SplitMix64;
use relief_workloads::App;

/// The seed whose outputs are pinned in `perfbench/expected/`. For
/// `paper_grid` it keeps every cell's canonical jitter seed, so the
/// rendered artifacts match `experiments_output.txt`.
pub const DEFAULT_SEED: u64 = 0;

/// Per-tenant arrival rate of `serve_capacity`, requests/s: 89 % of the
/// measured capacity of 45 req/s, the highest swept rate whose Latency
/// p99 sojourn meets its deadline with no growing backlog
/// (`--sweep-capacity`; recorded in perfbench/README.md).
pub const CAPACITY_RATE: f64 = 40.0;

/// Shed share (all causes) above which `serve_capacity` has drifted into
/// overload; a run that crosses it fails its correctness check. At the
/// pinned rate the breakers of the chaos stack shed ~3 %, the cap none.
pub const CAPACITY_MAX_SHED: f64 = 0.05;

/// Global in-flight cap of both serving workloads (the soak's cap).
pub const SERVE_IN_FLIGHT: u32 = 24;

/// Arrival streams per serving workload; each is one cell per policy.
pub const SERVE_STREAMS: u64 = 32;

/// Simulated arrival horizon of one `serve_capacity` cell, picoseconds.
pub const CAPACITY_HORIZON_PS: u64 = 1_000_000_000_000;

/// Simulated arrival horizon of one `serve_overload` cell, picoseconds.
pub const OVERLOAD_HORIZON_PS: u64 = 2_500_000_000_000;

/// The policies both serving workloads compare.
pub const SERVE_POLICIES: [PolicyKind; 2] = [PolicyKind::Fcfs, PolicyKind::Relief];

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full `all_experiments` pipeline: grid, oracle table, artifacts.
    PaperGrid,
    /// Open-loop MMPP serving near capacity with the chaos stack on.
    ServeCapacity,
    /// The soak's overload shape: most arrivals are shed.
    ServeOverload,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::PaperGrid, Workload::ServeCapacity, Workload::ServeOverload];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::ServeCapacity => "serve_capacity",
            Workload::ServeOverload => "serve_overload",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload '{s}' (paper_grid, serve_capacity, serve_overload)"))
    }

    /// True for the open-loop serving workloads.
    pub fn serving(self) -> bool {
        self != Workload::PaperGrid
    }

    /// The workload's cells for `seed`, unwrapped (canonical specs).
    pub fn specs(self, seed: u64) -> Vec<RunSpec> {
        match self {
            Workload::PaperGrid => grid::full_grid()
                .into_iter()
                .map(|spec| fold_jitter_seed(spec, seed))
                .collect(),
            Workload::ServeCapacity => (0..SERVE_STREAMS)
                .flat_map(|k| capacity_specs(CAPACITY_RATE, derive(seed, k), CAPACITY_HORIZON_PS))
                .collect(),
            Workload::ServeOverload => (0..SERVE_STREAMS)
                .flat_map(|k| overload_specs(derive(seed, k)))
                .collect(),
        }
    }
}

/// An independent 64-bit stream seed for sub-stream `k` of `seed`.
pub fn derive(seed: u64, k: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..].copy_from_slice(&k.to_le_bytes());
    SplitMix64::new(fnv1a(&bytes)).next_u64()
}

/// Rebuilds `spec` under the same canonical label with its jitter seed
/// folded with `seed` (unchanged for [`DEFAULT_SEED`]).
fn fold_jitter_seed(spec: RunSpec, seed: u64) -> RunSpec {
    if seed == DEFAULT_SEED {
        return spec;
    }
    assert_eq!(spec.replicate, 0, "a replicate's own seed would override the fold");
    let label_hash = fnv1a(spec.label().as_bytes());
    let inner = spec.clone();
    let platform = PlatformSpec::custom(spec.platform.label().to_string(), move |_| {
        let mut cfg = inner.config();
        cfg.seed = derive(seed ^ label_hash, cfg.seed);
        cfg
    });
    RunSpec { platform, ..spec }
}

/// The CGL tenant trio of the serving campaigns: Canny is the `Latency`
/// tenant, GRU `Standard`, LSTM `BestEffort`.
pub const TENANTS: [(App, QosClass); 3] = [
    (App::Canny, QosClass::Latency),
    (App::Gru, QosClass::Standard),
    (App::Lstm, QosClass::BestEffort),
];

/// The Latency tenant's DAG deadline — the bound its p99 sojourn must
/// meet for a rate to count as within capacity.
pub fn latency_deadline_us() -> f64 {
    TENANTS[0].0.deadline().as_us_f64()
}

fn tenant_workload() -> Vec<AppSpec> {
    TENANTS.iter().map(|&(app, _)| AppSpec::once(app.symbol(), app.dag())).collect()
}

/// `serve_capacity` cells of one arrival stream: the calibrated MMPP
/// shape at `rate` per tenant, admission capped, the chaos campaign's
/// self-healing stack, faults at 0.005 with a 10 ms DRAM MTTF, bounded
/// memory; one cell per policy.
pub fn capacity_specs(rate: f64, stream_seed: u64, horizon_ps: u64) -> Vec<RunSpec> {
    let stream = StreamConfig {
        seed: stream_seed,
        duration_ps: horizon_ps,
        warmup_ps: horizon_ps / 20,
        process: ArrivalProcess::Mmpp { burst: 4.0, on_fraction: 0.25, cycle_ps: 1_000_000_000 },
        tenants: TENANTS.iter().map(|&(_, q)| TenantCfg::new(q, rate)).collect(),
        admission: AdmissionConfig {
            max_in_flight: SERVE_IN_FLIGHT,
            ..AdmissionConfig::default()
        },
        self_heal: ChaosSpec::self_heal(),
    };
    let fault = FaultConfig {
        seed: stream_seed ^ 0xFA17,
        task_fault_rate: 0.005,
        dma_fault_rate: 0.005,
        ecc_chunk_rate: 0.005,
        dram_mttf_ps: 10_000_000_000,
        ..FaultConfig::default()
    };
    let label = format!(
        "mobile+capacity-mmppr{rate:.0}s{stream_seed:x}d{}us+adm{SERVE_IN_FLIGHT}+chaosheal+f0.005dmttf10000us+bm",
        horizon_ps / 1_000_000
    );
    let platform = PlatformSpec::custom(label, move |p| {
        SocConfig::mobile(p)
            .with_stream(stream.clone())
            .with_fault(fault.clone())
            .with_bounded_memory()
    });
    SERVE_POLICIES
        .iter()
        .map(|&p| {
            RunSpec::new(
                p,
                WorkloadSpec::custom("service/CGL", None, tenant_workload),
                platform.clone(),
            )
        })
        .collect()
}

/// `serve_overload` cells of one arrival stream: the soak's shape
/// (2000 req/s per tenant, cap 24, bounded memory, self-healing and
/// faults off) over [`OVERLOAD_HORIZON_PS`].
fn overload_specs(stream_seed: u64) -> Vec<RunSpec> {
    SoakSpec {
        seed: stream_seed,
        duration_ps: OVERLOAD_HORIZON_PS,
        warmup_ps: OVERLOAD_HORIZON_PS / 20,
        policies: SERVE_POLICIES.to_vec(),
        ..SoakSpec::default()
    }
    .campaign()
    .expand()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_keep_canonical_labels_and_fold_the_seed() {
        let canonical = grid::full_grid();
        let seeded = Workload::PaperGrid.specs(7);
        assert_eq!(seeded.len(), canonical.len());
        for (a, b) in canonical.iter().zip(&seeded).take(20) {
            assert_eq!(a.label(), b.label());
            assert_ne!(a.config().seed, b.config().seed);
        }
        let default = Workload::PaperGrid.specs(DEFAULT_SEED);
        assert_eq!(default[0].config().seed, canonical[0].config().seed);
        // The same seed folds to the same cell seeds.
        assert_eq!(Workload::PaperGrid.specs(7)[3].config().seed, seeded[3].config().seed);
    }

    #[test]
    fn serving_specs_are_seeded_per_stream() {
        for w in [Workload::ServeCapacity, Workload::ServeOverload] {
            let a = w.specs(1);
            assert_eq!(a.len(), SERVE_STREAMS as usize * SERVE_POLICIES.len());
            let labels: std::collections::BTreeSet<String> =
                a.iter().map(RunSpec::label).collect();
            assert_eq!(labels.len(), a.len(), "{} labels collide", w.name());
            assert_ne!(w.specs(2)[0].label(), a[0].label());
            assert!(a.iter().all(|s| s.config().stream.enabled() && s.config().bounded_memory));
        }
    }
}
