//! Order statistics over latency samples.

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are at or below it. `None` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of the samples (the mean of the two middle values for an even
/// count), `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Whether a nearest-rank `p` percentile of `n` samples has at least ten
/// samples beyond it, the rule for reporting a tail.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        // Five samples: p50 is the 3rd, p99 and p81 round up to the 5th.
        let ys = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&ys, 50.0), Some(3.0));
        assert_eq!(percentile(&ys, 81.0), Some(5.0));
        assert_eq!(percentile(&ys, 80.0), Some(4.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_and_tail_rule() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(999, 99.0));
    }
}
