//! Output digests: what a cell simulated, with host-measured fields left
//! out, and the expected digests pinned for each workload's default seed.

use relief_accel::SimResult;
use relief_bench::campaign::fnv1a;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// FNV-1a over a cell's simulated output: `RunStats`, the per-app memory
/// and compute maps and the dispatched-event count. `live_high_water` is
/// host-side bookkeeping (cache reads report 0) and is left out.
pub fn cell_digest(r: &SimResult) -> u64 {
    let text = format!(
        "{:?}|{:?}|{:?}|{}",
        r.stats, r.per_app_mem_time, r.per_app_compute_time, r.events_dispatched
    );
    fnv1a(text.as_bytes())
}

/// Digests of one pass: per cell label, plus the rendered artifacts when
/// the workload renders any (Fig. 12's host-latency table excluded).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digests {
    /// Cell label → digest.
    pub cells: BTreeMap<String, u64>,
    /// Digest of the rendered artifacts, if rendered.
    pub render: Option<u64>,
}

impl Digests {
    /// The canonical text form stored under `perfbench/expected/`.
    pub fn to_text(&self, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            let _ = writeln!(out, "# {line}");
        }
        if let Some(r) = self.render {
            let _ = writeln!(out, "render\t{r:016x}");
        }
        for (label, d) in &self.cells {
            let _ = writeln!(out, "cell\t{label}\t{d:016x}");
        }
        out
    }

    /// Parses [`Digests::to_text`] output.
    pub fn parse(text: &str) -> Result<Digests, String> {
        let mut out = Digests::default();
        let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|e| format!("bad digest '{s}': {e}"));
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let fields: Vec<&str> = line.split('\t').collect();
            match fields.as_slice() {
                ["render", d] => out.render = Some(hex(d)?),
                ["cell", label, d] => {
                    out.cells.insert((*label).to_string(), hex(d)?);
                }
                _ => return Err(format!("bad expected-digest line '{line}'")),
            }
        }
        Ok(out)
    }

    /// Human-readable differences against `expected` (empty when equal);
    /// each differing or missing cell is one entry.
    pub fn diff(&self, expected: &Digests) -> Vec<String> {
        let mut out = Vec::new();
        if self.render != expected.render {
            out.push(format!("render: got {:?}, expected {:?}", self.render, expected.render));
        }
        for (label, want) in &expected.cells {
            match self.cells.get(label) {
                Some(got) if got == want => {}
                Some(got) => out.push(format!("{label}: got {got:016x}, expected {want:016x}")),
                None => out.push(format!("{label}: missing")),
            }
        }
        for label in self.cells.keys().filter(|l| !expected.cells.contains_key(*l)) {
            out.push(format!("{label}: not expected"));
        }
        out
    }
}

/// Where a workload's expected digests live, relative to the repository
/// root the benchmark runs from.
pub fn expected_path(workload: &str) -> PathBuf {
    Path::new("perfbench").join("expected").join(format!("{workload}.txt"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relief_accel::{SocConfig, SocSim};
    use relief_core::PolicyKind;
    use relief_workloads::App;

    fn run(seed: u64) -> SimResult {
        let mut cfg = SocConfig::mobile(PolicyKind::Relief);
        cfg.seed = seed;
        let apps = vec![relief_accel::AppSpec::once("C", App::Canny.dag())];
        SocSim::new(cfg, apps).run()
    }

    #[test]
    fn digest_is_stable_for_a_fixed_seed_and_ignores_host_fields() {
        let a = run(5);
        let mut b = run(5);
        assert_eq!(cell_digest(&a), cell_digest(&b));
        b.live_high_water += 1;
        assert_eq!(cell_digest(&a), cell_digest(&b), "host fields must not enter the digest");
        b.stats.scheduler_ops += 1;
        assert_ne!(cell_digest(&a), cell_digest(&b));
        // The jitter seed changes the simulated outcome.
        assert_ne!(cell_digest(&a), cell_digest(&run(6)));
    }

    #[test]
    fn expected_text_round_trips_and_diffs() {
        let mut d = Digests { render: Some(0xabc), ..Digests::default() };
        d.cells.insert("FCFS|low/C|mobile|r0".into(), 1);
        d.cells.insert("RELIEF|fig2[1A+1B]|r0".into(), u64::MAX);
        let parsed = Digests::parse(&d.to_text("seed 0\nworkload x")).unwrap();
        assert_eq!(parsed, d);
        assert!(d.diff(&parsed).is_empty());
        let mut changed = d.clone();
        changed.cells.insert("FCFS|low/C|mobile|r0".into(), 2);
        changed.cells.insert("extra".into(), 3);
        assert_eq!(changed.diff(&d).len(), 2);
        assert!(Digests::parse("cell\tonly-two-fields").is_err());
    }
}
