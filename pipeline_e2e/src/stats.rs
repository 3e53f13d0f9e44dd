//! Order statistics over a run's samples.

use std::collections::BTreeMap;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    if v.len() < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = v.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(3))
}

/// The `q`-quantile of integer nanosecond timings, interpolated within
/// the 1 ns class that holds it (the grouped-data rule), so ties at the
/// clock's resolution still give a value that carries all its digits.
/// `sorted_ns` must be sorted ascending and non-empty.
pub fn grouped_quantile(sorted_ns: &[u64], q: f64) -> f64 {
    let rank = q * sorted_ns.len() as f64;
    let idx = (rank as usize).min(sorted_ns.len() - 1);
    let v = sorted_ns[idx];
    let below = sorted_ns.partition_point(|&x| x < v);
    let upto = sorted_ns.partition_point(|&x| x <= v);
    v as f64 - 0.5 + (rank - below as f64) / (upto - below) as f64
}

/// Per-metric samples collected across a run's repetitions.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn grouped_quantile_interpolates_within_ties() {
        // Half the samples at 10 ns, half at 20 ns: the median sits at the
        // lower edge of the 20 ns class.
        assert_eq!(grouped_quantile(&[10, 10, 20, 20], 0.5), 19.5);
        assert_eq!(grouped_quantile(&[7, 7, 7, 7], 0.5), 7.0);
        assert!((grouped_quantile(&[1, 2, 3, 4], 0.999) - 4.496).abs() < 1e-9);
    }
}
