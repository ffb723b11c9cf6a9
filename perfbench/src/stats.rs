//! Order statistics and tallies over measured samples.

use std::collections::BTreeMap;

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation between closest
/// ranks; 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Geometric mean of positive `samples`; 0 for an empty slice.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|v| v.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// Named samples: `add` one value per call of a layer, read back the mean or median
/// per call, or the total.  Keys are sorted so every report lists them in one order.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Tally {
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    /// Drops every value added under `name` and keeps `value` alone.
    pub fn replace(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, vec![value]);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    /// Mean value per `add` call; 0 when the name was never added.
    pub fn mean(&self, name: &str) -> f64 {
        let v = self.get(name);
        if v.is_empty() {
            0.0
        } else {
            self.total(name) / v.len() as f64
        }
    }

    /// Median value per `add` call; 0 when the name was never added.
    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }

    /// Every value added under `name`, in order.
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.get(name).to_vec()
    }

    /// Sum of every value added under `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }

    pub fn merge(&mut self, other: Tally) {
        for (name, values) in other.values {
            self.values.entry(name).or_default().extend(values);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_equal_values_is_that_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tally_means_per_call() {
        let mut t = Tally::default();
        t.add("a", 2.0);
        t.add("a", 4.0);
        t.add("a", 9.0);
        assert_eq!(t.mean("a"), 5.0);
        assert_eq!(t.median("a"), 4.0);
        assert_eq!(t.total("a"), 15.0);
        assert_eq!(t.mean("missing"), 0.0);
        t.replace("a", 7.0);
        assert_eq!(t.values("a"), vec![7.0]);
    }
}
