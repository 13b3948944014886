//! Percentiles and the result line.

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted values; 0 when
/// there are none.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    /// One `name value unit` line per metric.
    pub fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<28} {value:>14.4} {unit}");
        }
    }

    /// The metrics as a JSON object.
    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The last line of the benchmark's output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}
