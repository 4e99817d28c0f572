//! Order statistics over latency samples, and JSON helpers.

use serde_json::{Map, Number, Value as Json};

/// A JSON number (`null` for NaN/inf).
pub fn num(v: f64) -> Json {
    Number::from_f64(v).map(Json::Number).unwrap_or(Json::Null)
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    let mut m = Map::new();
    for (k, v) in pairs {
        m.insert(k.to_string(), v);
    }
    Json::Object(m)
}

/// Metrics as the result line's `{name: {value, unit}}` object.
pub fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Json {
    obj(metrics
        .iter()
        .map(|(n, v, u)| (*n, obj(vec![("value", num(*v)), ("unit", Json::from(*u))])))
        .collect())
}

/// Nearest-rank quantile of an ascending slice (`0.0` when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Latency samples in microseconds, each tagged with the slice of the
/// timed window its request was issued in.
#[derive(Default, Clone)]
pub struct Samples {
    v: Vec<f64>,
    slice: Vec<u16>,
}

impl Samples {
    pub fn push(&mut self, slice: u16, us: f64) {
        self.v.push(us);
        self.slice.push(slice);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.v.extend(&other.v);
        self.slice.extend(&other.slice);
    }

    pub fn len(&self) -> usize {
        self.v.len()
    }

    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.v.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn mean(&self) -> f64 {
        if self.v.is_empty() {
            0.0
        } else {
            self.v.iter().sum::<f64>() / self.v.len() as f64
        }
    }

    /// The `q` quantile over every sample.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.sorted(), q)
    }

    /// The `q` quantile of each slice's samples, median over slices:
    /// a stall that hits one slice (another tenant taking the CPU for
    /// a few seconds) moves one of the values, not the result.
    pub fn sliced(&self, q: f64) -> f64 {
        let mut by_slice: std::collections::BTreeMap<u16, Vec<f64>> = Default::default();
        for (&s, &v) in self.slice.iter().zip(&self.v) {
            by_slice.entry(s).or_default().push(v);
        }
        median(
            by_slice
                .into_values()
                .map(|mut v| {
                    v.sort_by(f64::total_cmp);
                    quantile(&v, q)
                })
                .collect(),
        )
    }
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_nearest_rank() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn sliced_quantile_is_the_median_over_slices() {
        let mut s = Samples::default();
        for slice in 0..3u16 {
            for i in 1..=100 {
                // Slice 2 is ten times slower throughout.
                let scale = if slice == 2 { 10.0 } else { 1.0 };
                s.push(slice, f64::from(i) * scale);
            }
        }
        assert_eq!(s.sliced(0.99), 99.0);
        assert_eq!(s.sliced(0.5), 51.0);
    }
}
