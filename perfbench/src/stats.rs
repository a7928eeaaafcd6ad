//! Percentiles with the sample-count rule: a tail percentile is reported
//! only when at least [`MIN_BEYOND`] samples lie beyond it, so a p99 never
//! rests on a handful of outliers.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q`-quantile among `n` samples:
/// the smallest rank with at least `q·n` samples at or below it.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the `q`-quantile's rank among `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Nearest-rank `q`-quantile of ascending `sorted`; `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), q) - 1])
}

/// The median of ascending `sorted`; `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    quantile(sorted, 0.5)
}

/// The `q`-quantile of ascending `sorted` under the sample-count rule:
/// an error naming the shortfall when fewer than [`MIN_BEYOND`] samples
/// lie beyond it.
pub fn tail(sorted: &[f64], q: f64) -> Result<f64, String> {
    let n = sorted.len();
    let past = beyond(n, q);
    if past < MIN_BEYOND {
        return Err(format!(
            "p{} needs {} samples beyond it, have {} of {} samples",
            q * 100.0,
            MIN_BEYOND,
            past,
            n
        ));
    }
    Ok(quantile(sorted, q).expect("non-empty: samples lie beyond the rank"))
}

/// Sorts `samples` ascending (NaN-free by construction).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    samples
}

/// Median of unsorted `samples`, 0 when there are none.
pub fn median_of(samples: &[f64]) -> f64 {
    median(&sorted(samples.to_vec())).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = ramp(100);
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some(3.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(tail(&ramp(999), 0.99).is_err(), "999 leaves 9 beyond p99");
        assert_eq!(tail(&ramp(1000), 0.99), Ok(990.0));
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(0, 0.99), 0);
    }

    #[test]
    fn the_rule_scales_with_the_quantile() {
        assert!(tail(&ramp(19), 0.5).is_err());
        assert_eq!(tail(&ramp(20), 0.5), Ok(10.0));
        assert!(tail(&ramp(9_999), 0.999).is_err());
        assert!(tail(&ramp(10_000), 0.999).is_ok());
        let err = tail(&ramp(50), 0.99).unwrap_err();
        assert!(err.contains("have 0 of 50"), "{err}");
    }

    #[test]
    fn median_of_sorts_first() {
        assert_eq!(median_of(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median_of(&[]), 0.0);
    }
}
