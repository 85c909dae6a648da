//! Order statistics.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of arbitrary values (mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// `x / y`, or 0 when `y` is 0.
pub fn ratio(x: f64, y: f64) -> f64 {
    if y == 0.0 {
        0.0
    } else {
        x / y
    }
}

/// Sub-buckets per power of two in [`LatHist`] (relative width 1/1024).
const SUB_BITS: u32 = 10;
/// Highest power of two tracked (2^40 ns ≈ 18 min); larger samples clamp.
const MAX_EXP: u32 = 40;

/// Log-linear latency histogram with 0.1% bucket width and constant
/// memory, so the samples it keeps do not grow with throughput (which
/// would move the process's peak resident set).
#[derive(Debug, Clone)]
pub struct LatHist {
    counts: Vec<u32>,
    total: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        LatHist {
            counts: vec![0; ((MAX_EXP - SUB_BITS + 2) << SUB_BITS) as usize],
            total: 0,
        }
    }
}

impl LatHist {
    fn index(ns: u64) -> usize {
        let sub = 1u64 << SUB_BITS;
        if ns < sub {
            return ns as usize;
        }
        let e = (63 - ns.leading_zeros()).min(MAX_EXP);
        let ns = ns.min((1u64 << (MAX_EXP + 1)) - 1);
        let mantissa = (ns >> (e - SUB_BITS)) & (sub - 1);
        (((e - SUB_BITS + 1) as u64) << SUB_BITS | mantissa) as usize
    }

    /// `[lower, upper)` bounds of bucket `idx`, ns.
    fn bounds(idx: usize) -> (f64, f64) {
        let sub = 1usize << SUB_BITS;
        if idx < sub {
            return (idx as f64, idx as f64 + 1.0);
        }
        let e = (idx >> SUB_BITS) as u32 + SUB_BITS - 1;
        let lower = ((sub + (idx & (sub - 1))) as u64) << (e - SUB_BITS);
        (lower as f64, (lower + (1u64 << (e - SUB_BITS))) as f64)
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `q` quantile in ns, interpolated linearly inside its bucket
    /// (NaN when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).max(0.5);
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c as u64) as f64 >= rank {
                let (lo, hi) = Self::bounds(idx);
                let frac = (rank - below as f64) / c as f64;
                return lo + frac * (hi - lo);
            }
            below += c as u64;
        }
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 5.0);
        assert_eq!(quantile_sorted(&v, 0.9), 9.0);
        assert_eq!(quantile_sorted(&v, 1.0), 10.0);
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket() {
        let mut h = LatHist::default();
        for ns in 1..=100_000u64 {
            h.record(ns * 10);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 1_000_000.0;
            let got = h.quantile_ns(q);
            assert!(
                (got - exact).abs() / exact < 2e-3,
                "q {q}: {got} vs {exact}"
            );
        }
        for ns in [0u64, 1, 1023, 1024, 1025, 4097, 1 << 40, u64::MAX] {
            let (lo, hi) = LatHist::bounds(LatHist::index(ns));
            assert!(lo <= ns as f64 || ns > 1 << 40, "{ns}: [{lo}, {hi})");
            assert!((ns as f64) < hi || ns >= 1 << 41, "{ns}: [{lo}, {hi})");
        }
    }
}
