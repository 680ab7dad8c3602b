//! Order statistics over measured samples.

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule: the
/// smallest sample with at least `q·n` samples at or below it. `None` when
/// there are no samples.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (nearest rank); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A percentile reported with its sample count and the number of samples
/// beyond it, so a reader can see whether the tail is supported.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

impl Percentile {
    pub fn of(values: &[f64], q: f64) -> Percentile {
        let value = quantile(values, q).unwrap_or(0.0);
        Percentile {
            value,
            n: values.len(),
            beyond: values.iter().filter(|v| **v > value).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        let p = Percentile::of(&v, 0.9);
        assert_eq!((p.value, p.n, p.beyond), (90.0, 100, 10));
    }
}
