//! Order statistics over measured samples.

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Median of `values` (mean of the middle two when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of integer samples, as a float.
pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values
        .iter()
        .map(|v| v.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / values.len() as f64)
        .exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(mean(&[]), 0.0);
    }
}
