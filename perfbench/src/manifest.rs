//! The run manifest: a fixed calibration kernel plus what identifies the
//! run (source revision, workload, seed, jobs, host parallelism, resolved
//! configuration). Nothing gates on the kernel time; end-to-end host
//! times are scaled by it to the reference speed [`CALIB_REF_MS`].

use relief_bench::campaign::{fnv1a, RunSpec};
use relief_sim::SplitMix64;
use std::path::Path;
use std::time::Instant;

/// Calibration kernel time of the reference host speed, ms: end-to-end
/// host times are reported as if the kernel had taken this long (about
/// this host class's fast mode).
pub const CALIB_REF_MS: f64 = 20.0;

/// Elements the calibration kernel fills and sorts.
const KERNEL_LEN: usize = 1 << 20;

/// One calibration pass: fill `KERNEL_LEN` words from SplitMix64 and sort
/// them. Returns a checksum so the work cannot be optimized away.
pub fn kernel() -> u64 {
    let mut rng = SplitMix64::new(0xCA11_B8A7);
    let mut v: Vec<u64> = (0..KERNEL_LEN).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    v[KERNEL_LEN / 2] ^ v[0]
}

/// Wall time of one calibration pass, milliseconds.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_secs_f64() * 1e3
}

/// A content revision of the simulator sources: FNV-1a over every file
/// under `crates/` (path and bytes, in sorted order). The benchmark runs
/// from checkouts that are not git repositories, so this stands in for
/// the commit id.
pub fn source_rev(root: &Path) -> String {
    let mut files = Vec::new();
    collect(&root.join("crates"), &mut files);
    files.sort();
    let mut h = Vec::new();
    for f in &files {
        h.extend_from_slice(f.to_string_lossy().as_bytes());
        h.extend_from_slice(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", fnv1a(&h))
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// FNV-1a over every cell's label and resolved `SocConfig`.
pub fn config_digest(specs: &[RunSpec]) -> String {
    let mut text = String::new();
    for s in specs {
        text.push_str(&s.label());
        text.push_str(&format!("{:?}\n", s.config()));
    }
    format!("{:016x}", fnv1a(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }
}
