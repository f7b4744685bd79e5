//! Order statistics for the reported metrics: medians, quartiles (the
//! same method Python's `statistics.quantiles` and the run-to-run spread
//! use), and the tail percentile rule.
//!
//! A tail is reported as the highest percentile that still has at least
//! [`MIN_BEYOND`] samples above it, so that a tail is never one or two
//! unlucky samples: p99 needs n ≥ 1,000, p95 needs n ≥ 200.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Median (mean of the two middle values for even n); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First, second and third quartile with Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads computed here match the ones computed from the printed
/// results. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// A reported tail: the percentile, its nearest-rank value, and the
/// sample counts behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, e.g. 99.0.
    pub pct: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Total samples.
    pub n: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond its nearest rank; `None` when even the median has fewer.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let s = sorted(values);
    let n = s.len();
    TAIL_CANDIDATES.iter().find_map(|&pct| {
        // Nearest rank: the ceil(n·p/100)-th smallest value. Computed in
        // integer per-mille so p99.9 at n = 1000 is exactly rank 999.
        let per_mille = (pct * 10.0).round() as usize;
        let rank = (n * per_mille).div_ceil(1000).max(1);
        let beyond = n.checked_sub(rank)?;
        (beyond >= MIN_BEYOND).then(|| Tail {
            pct,
            value: s[rank - 1],
            n,
            beyond,
        })
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // n..=1 descending, so the helpers must sort.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_picks_p99_at_4310_samples() {
        let t = tail(&ramp(4310)).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.n, 4310);
        // rank ceil(4266.9) = 4267 → 43 beyond.
        assert_eq!(t.beyond, 43);
        assert_eq!(t.value, 4267.0);
    }

    #[test]
    fn tail_falls_back_to_p95_at_960_samples() {
        // p99 leaves only 9 samples beyond rank 951.
        let t = tail(&ramp(960)).unwrap();
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.beyond, 48);
        assert_eq!(t.value, 912.0);
    }

    #[test]
    fn tail_edge_counts() {
        // p99.9 at n = 10,000 leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(10_000)).unwrap().pct, 99.9);
        assert_eq!(tail(&ramp(9_999)).unwrap().pct, 99.0);
        // 20 samples: the median leaves 10 beyond; 19 leaves 9 → no tail.
        assert_eq!(tail(&ramp(20)).unwrap().pct, 50.0);
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }
}
