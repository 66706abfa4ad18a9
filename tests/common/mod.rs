//! Digest oracle shared by the equivalence suites.
//!
//! Each suite runs a fixed matrix of simulations and reduces every cell
//! to one FNV-1a digest of everything observable about the run:
//! the `RunStats` Debug text (floats print their shortest round-trip
//! form, so bit drift shows), per-app DMA and compute time, the compute,
//! data-movement and bandwidth prediction samples, the executed-task
//! trace and the dispatched-event count. The suites commit the digest of
//! every cell as a `const` table keyed by the cell's label and assert the
//! recomputed table equals it.
//!
//! An intended behaviour change is re-blessed by pasting in the table the
//! failing test prints.

#![allow(dead_code)]

use relief::bench::campaign::fnv1a;
use relief::prelude::*;
use relief_accel::SimResult;
use relief_trace::{text, TraceEvent};

/// All eleven schedulable policies: the fairness-study eight plus the
/// heterogeneity/throttling/adaptive extensions.
pub fn eleven_policies() -> Vec<PolicyKind> {
    let all: Vec<PolicyKind> =
        PolicyKind::ALL.iter().chain(PolicyKind::EXTENSIONS.iter()).copied().collect();
    assert_eq!(all.len(), 11);
    all
}

/// The CGL tenant trio: one app spec per tenant, in tenant order.
pub fn cgl_apps() -> Vec<AppSpec> {
    vec![
        AppSpec::once("C", App::Canny.dag()),
        AppSpec::once("G", App::Gru.dag()),
        AppSpec::once("L", App::Lstm.dag()),
    ]
}

/// Everything observable about a finished run, as text.
pub fn observable(r: &SimResult) -> String {
    format!(
        "stats {:?}\nmem {:?}\ncompute {:?}\npred_compute {:?}\npred_dm {:?}\npred_bw {:?}\n\
         trace {:?}\nevents {}\n",
        r.stats,
        r.per_app_mem_time,
        r.per_app_compute_time,
        r.prediction.compute_rel_errors,
        r.prediction.dm_rel_errors,
        r.prediction.bw_rel_errors,
        r.trace,
        r.events_dispatched,
    )
}

/// Runs `cfg` over `workload` with the executed-task trace recorded.
pub fn run(mut cfg: SocConfig, workload: &[AppSpec]) -> SimResult {
    cfg.record_trace = true;
    SocSim::new(cfg, workload.to_vec()).run()
}

/// Runs `cfg` with a lossless ring sink attached; returns the result and
/// every trace event.
pub fn run_traced(cfg: &SocConfig, apps: &[AppSpec]) -> (SimResult, Vec<TraceEvent>) {
    let ring = RingBufferSink::shared(1 << 22);
    let mut tracer = Tracer::off();
    tracer.attach(ring.clone());
    let result = SocSim::new(cfg.clone(), apps.to_vec()).with_tracer(&tracer).run();
    assert_eq!(ring.borrow().dropped(), 0, "ring sink must be lossless");
    let events = ring.borrow_mut().take();
    (result, events)
}

/// A suite's recomputed digest table, checked against the pinned one.
#[derive(Default)]
pub struct Digests {
    cells: Vec<(String, u64)>,
}

impl Digests {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the digest of `observable` under `what`.
    pub fn record(&mut self, what: impl Into<String>, observable: &str) {
        self.cells.push((what.into(), fnv1a(observable.as_bytes())));
    }

    /// Runs `cfg` over `workload` (see [`run`]) and records the result
    /// under `what`.
    pub fn run(
        &mut self,
        cfg: SocConfig,
        workload: &[AppSpec],
        what: impl Into<String>,
    ) -> SimResult {
        let r = run(cfg, workload);
        self.record_run(what, &r, "");
        r
    }

    /// Records a run: its [`observable`] text plus `extra`.
    pub fn record_run(&mut self, what: impl Into<String>, r: &SimResult, extra: &str) {
        self.record(what, &(observable(r) + extra));
    }

    /// Records a traced run: its [`observable`] text plus the full
    /// trace-event text.
    pub fn record_traced(&mut self, what: impl Into<String>, r: &SimResult, events: &[TraceEvent]) {
        self.record(what, &(observable(r) + &text::to_text(events)));
    }

    /// Asserts the recomputed table equals `pinned` cell for cell, in
    /// order; on a mismatch, prints the whole recomputed table as the
    /// `const` to paste in.
    pub fn check(&self, name: &str, pinned: &[(&str, u64)]) {
        let same = self.cells.len() == pinned.len()
            && self.cells.iter().zip(pinned).all(|((w, d), (pw, pd))| w == pw && d == pd);
        if same {
            return;
        }
        let first = self
            .cells
            .iter()
            .zip(pinned)
            .position(|((w, d), (pw, pd))| w != pw || d != pd)
            .unwrap_or(self.cells.len().min(pinned.len()));
        let mut table = format!("const {name}: &[(&str, u64)] = &[\n");
        for (what, digest) in &self.cells {
            table.push_str(&format!("    ({what:?}, {digest:#018x}),\n"));
        }
        table.push_str("];\n");
        panic!(
            "{name}: digest table differs from the pinned one at cell {first} \
             ({} recomputed, {} pinned); if the change is intended, re-bless with:\n{table}",
            self.cells.len(),
            pinned.len()
        );
    }
}
