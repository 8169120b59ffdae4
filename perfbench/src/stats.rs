//! Order statistics over timing samples.

/// The `q`-quantile (0..=1) of `samples` by the nearest-rank rule on a
/// sorted copy. `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// How many samples lie strictly above the `q`-quantile: a percentile is
/// only reported as measured when at least ten samples lie beyond it.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    match quantile(samples, q) {
        Some(v) => samples.iter().filter(|&&s| s > v).count(),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&s), Some(50.0));
        assert_eq!(quantile(&s, 0.99), Some(99.0));
        assert_eq!(beyond(&s, 0.99), 1);
        assert_eq!(quantile(&[], 0.5), None);
    }
}
