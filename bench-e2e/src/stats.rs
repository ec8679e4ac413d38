//! Percentiles and the sample-count rule.
//!
//! Percentiles use the nearest-rank definition: the `q`-quantile of `n`
//! sorted samples is the sample at rank `ceil(q * n)` (1-based). A
//! failed or refused operation enters as an infinitely slow sample, so it
//! counts as missing any latency limit. A tail percentile is reported
//! only where at least [`MIN_BEYOND`] samples lie beyond it; with fewer,
//! one outlier decides the value.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile with the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the percentile (`f64::INFINITY` when failures reach it).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// How many of `n` samples lie beyond the nearest-rank `q`-quantile.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The 1-based nearest rank of the `q`-quantile of `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The tolerance keeps exact products such as 0.9 * 10 from rounding
    // up to the next rank.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `q`-quantile of `values`, `None` when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(values.len(), q) - 1])
}

/// The nearest-rank `q`-quantile of `values` with its sample count, or
/// `None` when there are no samples or fewer than [`MIN_BEYOND`] lie
/// beyond it (the median of a non-empty set is always reported).
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    let n = values.len();
    if n > 0 && q > 0.5 && beyond(n, q) < MIN_BEYOND {
        return None;
    }
    quantile(values, q).map(|value| Percentile { value, samples: n })
}

/// The median of `values`, 0 for an empty set (a layer that did not run).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).map_or(0.0, |p| p.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values = ramp(100);
        assert_eq!(percentile(&values, 0.5).unwrap().value, 50.0);
        assert_eq!(percentile(&values, 0.9).unwrap().value, 90.0);
        assert_eq!(percentile(&[7.0], 0.5).unwrap().value, 7.0);
        // Order of the input does not matter.
        let mut reversed = values.clone();
        reversed.reverse();
        assert_eq!(percentile(&reversed, 0.5).unwrap().value, 50.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        let p = percentile(&ramp(1000), 0.99).unwrap();
        assert_eq!((p.value, p.samples), (990.0, 1000));
        assert!(percentile(&ramp(999), 0.99).is_none());
        assert!(percentile(&ramp(99), 0.9).is_none());
        assert!(percentile(&ramp(100), 0.9).is_some());
        assert!(percentile(&[], 0.5).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn failures_count_as_infinitely_slow() {
        let mut values = ramp(30);
        values.extend([f64::INFINITY; 40]);
        assert!(percentile(&values, 0.5).unwrap().value.is_infinite());
        values.truncate(60);
        assert_eq!(percentile(&values, 0.5).unwrap().value, 30.0);
    }
}
