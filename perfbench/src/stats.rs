//! Order statistics for the reported metrics.
//!
//! Every percentile here is rank-based on a sorted sample: the q-quantile
//! of `n` values is the value at 1-based rank `ceil(q·n)`. A tail
//! percentile is reported only where the sample supports it: at least
//! [`MIN_BEYOND`] samples must lie beyond the chosen rank, so a "p99" from
//! 300 samples silently becoming the maximum cannot happen — the helper
//! lowers the percentile instead and says which one it used.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The value at quantile `q` of an ascending slice (`None` when empty).
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The highest quantile not above `want` that leaves at least
/// [`MIN_BEYOND`] samples beyond its rank in a sample of `n`; `None` when
/// the sample is too small for any.
pub fn supported_quantile(n: usize, want: f64) -> Option<f64> {
    if n <= MIN_BEYOND {
        return None;
    }
    // rank = ceil(q·n) ≤ n − MIN_BEYOND  ⇔  q ≤ (n − MIN_BEYOND)/n.
    let cap = (n - MIN_BEYOND) as f64 / n as f64;
    Some(want.min(cap))
}

/// A tail value: `(quantile used, value)` at the highest supported
/// quantile not above `want`.
pub fn tail(sorted: &[f64], want: f64) -> Option<(f64, f64)> {
    let q = supported_quantile(sorted.len(), want)?;
    Some((q, quantile(sorted, q)?))
}

/// Median of an unsorted sample (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5).unwrap_or(f64::NAN)
}

/// Sorts a sample ascending (infinite failures sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_rank_based() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990, exactly 10 beyond.
        assert_eq!(supported_quantile(1000, 0.99), Some(0.99));
        // 500 samples: p99 would leave 5 beyond; p98 leaves 10.
        let q = supported_quantile(500, 0.99).unwrap();
        assert!((q - 0.98).abs() < 1e-12);
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        let (q, x) = tail(&v, 0.99).unwrap();
        assert!((q - 0.98).abs() < 1e-12);
        assert_eq!(x, 490.0);
        assert_eq!(v.len() - x as usize, MIN_BEYOND);
        // A lower request is honoured as is.
        assert_eq!(supported_quantile(500, 0.9), Some(0.9));
        // Too few samples for any tail.
        assert_eq!(supported_quantile(10, 0.5), None);
        assert_eq!(tail(&[1.0; 5], 0.5), None);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let v = sorted(&[3.0, f64::INFINITY, 1.0, 2.0]);
        assert_eq!(v[3], f64::INFINITY);
        assert_eq!(median(&[3.0, f64::INFINITY, 1.0]), 3.0);
    }
}
