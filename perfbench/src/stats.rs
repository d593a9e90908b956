//! Order statistics shared by every workload: the median, the quartiles
//! `statistics.quantiles(values, n=4)` reports (Python's default
//! "exclusive" method), and the tail rule — the highest of a few
//! percentiles that still has at least [`TAIL_BEYOND`] samples beyond it.

/// Minimum number of samples a reported tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.  Capped at p95: on a shared
/// host about 1% of operations are stretched by interference from outside
/// the process, so p99 and above of operations shorter than that stretch
/// measured the host and swung by 2x between otherwise identical runs.
const TAIL_CANDIDATES: [f64; 4] = [95.0, 90.0, 75.0, 50.0];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles `[q1, q2, q3]` by the exclusive method (`m = n + 1`), the
/// default of Python's `statistics.quantiles`.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Computed after the clamp, exactly as Python does, so two samples
        // extrapolate beyond the extremes.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of the samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentile to report: the highest candidate `p` whose
/// nearest-rank value still leaves at least [`TAIL_BEYOND`] samples strictly
/// beyond its rank.  Returns `(p, value)`; falls back to the median when the
/// sample is too small for any tail.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    for p in TAIL_CANDIDATES {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n.saturating_sub(rank) >= TAIL_BEYOND {
            return (p, percentile(values, p));
        }
    }
    (50.0, median(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // Two samples extrapolate: [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 1000 samples: p95 is the highest candidate, with 50 beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 950.0));
        // 200 samples: p95 leaves exactly 10.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 190.0));
        // 199 samples: p95 leaves only 9 beyond, so p90 is reported.
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 180.0));
        // 100 samples: p90 leaves exactly 10.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        // 12 samples: no candidate above the median leaves 10 beyond.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 6.5));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 95.0), 19.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
    }
}
