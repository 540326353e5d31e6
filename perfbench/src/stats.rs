//! Order statistics and the metric record printed as JSON.

/// The `q`-quantile of `values` with linear interpolation between order
/// statistics (Python's `statistics.quantiles(method="inclusive")`).
/// Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Geometric mean of positive values (the TPC-D power-metric average).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`. Values print with every
    /// digit (shortest round-trip form); a non-finite value prints as 0.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn json_prints_all_digits() {
        let mut m = Metrics::default();
        m.put("a_ms", 1.2345678901, "ms");
        m.put("bad", f64::NAN, "1");
        assert_eq!(
            m.to_json(),
            "{\"a_ms\": {\"value\": 1.2345678901, \"unit\": \"ms\"}, \
             \"bad\": {\"value\": 0, \"unit\": \"1\"}}"
        );
    }
}
