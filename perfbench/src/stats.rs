//! Exact order statistics over raw per-operation samples.
//!
//! Every percentile the benchmark prints comes from here, computed over
//! the full list of samples it kept — never from a bucketed histogram.

/// Nearest-rank quantile: the smallest sample such that at least
/// `q · n` samples are at or below it. `q` is in `(0, 1]`.
///
/// # Panics
/// Panics on an empty sample list.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample list");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn infinite_samples_sort_last() {
        let v = [1.0, f64::INFINITY, 2.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert!(quantile(&v, 1.0).is_infinite());
    }
}
