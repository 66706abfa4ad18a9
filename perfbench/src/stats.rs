//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! failure counting and ratios with their bases.

/// Median of `values` (mean of the middle pair for even counts); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Mean of `values` after dropping the lowest and highest `share` of them
/// (rounded down, so small samples keep every value); 0 when empty.
pub fn trimmed_mean(values: &[f64], share: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * share) as usize;
    mean(&v[cut..v.len() - cut])
}

/// Percentiles the tail rule may report, highest first, in per mille so
/// ranks are exact integers.
const TAIL_LADDER: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 99.0).
    pub percentile: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// Nearest-rank percentile of sorted `v` at `per_mille`: the value at
/// 1-based rank `ceil(per_mille × n / 1000)`.
fn nearest_rank(v: &[f64], per_mille: u64) -> (usize, f64) {
    let n = v.len() as u64;
    let rank = ((per_mille * n).div_ceil(1000)).clamp(1, n) as usize;
    (rank, v[rank - 1])
}

/// The highest percentile on the ladder (99.9, 99, 95, 90, 75, 50) with at
/// least [`TAIL_BEYOND`] samples beyond it; the median when even that has
/// fewer. `None` for an empty set.
pub fn tail(values: &[f64]) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for per_mille in TAIL_LADDER {
        let (rank, value) = nearest_rank(&v, per_mille);
        if n - rank >= TAIL_BEYOND {
            let percentile = per_mille as f64 / 10.0;
            return Some(Tail { percentile, value, beyond: n - rank, n });
        }
    }
    let (rank, value) = nearest_rank(&v, 500);
    Some(Tail { percentile: 50.0, value, beyond: n - rank, n })
}

/// Cells attempted and failed across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Cells attempted (simulated or answered from the cache).
    pub attempted: u64,
    /// Cells that panicked, stalled, failed reconciliation or mismatched
    /// their digest.
    pub failed: u64,
}

impl Tally {
    /// Counts one cell.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed ÷ attempted; 0 when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed, self.attempted).value
    }
}

/// A ratio kept with its base, so it can be printed as "v (num of den)".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// `num / den`, or 0 when `den` is 0.
    pub value: f64,
    /// Numerator.
    pub num: u64,
    /// Denominator (the base).
    pub den: u64,
}

/// `num / den` with its base; 0 when the base is empty.
pub fn ratio(num: u64, den: u64) -> Ratio {
    let value = if den == 0 { 0.0 } else { num as f64 / den as f64 };
    Ratio { value, num, den }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} of {}", self.num, self.den)
    }
}

/// Host time per operation in nanoseconds; 0 when no operation ran.
pub fn ns_per(total_ns: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total_ns / ops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        // 10 values, 10 % trimmed: the 100 and the 0 go.
        let v = [5.0, 1.0, 2.0, 100.0, 3.0, 4.0, 0.0, 6.0, 7.0, 8.0];
        assert_eq!(trimmed_mean(&v, 0.1), 4.5);
        // Fewer than 10 values: nothing to trim.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0], 0.1), 3.0);
        assert_eq!(trimmed_mean(&[], 0.1), 0.0);
    }

    #[test]
    fn tail_uses_p99_once_ten_samples_lie_beyond_it() {
        // 1000 samples: rank of p99 is 990, 10 beyond — p99 qualifies.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond, t.n), (99.0, 990.0, 10, 1000));
        // 999 samples: p99 rank is 990, only 9 beyond — fall back to p95.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 950.0);
        assert!(t.beyond >= TAIL_BEYOND);
    }

    #[test]
    fn tail_reaches_p999_with_ten_thousand_samples() {
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.9, 10));
    }

    #[test]
    fn tail_of_small_sets_degrades_to_the_median() {
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 6.0);
        assert_eq!(t.n, 12);
        assert!(tail(&[]).is_none());
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(tail(&r), tail(&v));
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.error_rate(), 0.25);
    }

    #[test]
    fn ratios_keep_their_base() {
        let r = ratio(3, 4);
        assert_eq!(r.value, 0.75);
        assert_eq!(r.to_string(), "3 of 4");
        let empty = ratio(0, 0);
        assert_eq!(empty.value, 0.0);
        assert_eq!(empty.den, 0);
        assert_eq!(ns_per(1000.0, 4), 250.0);
        assert_eq!(ns_per(1000.0, 0), 0.0);
    }
}
