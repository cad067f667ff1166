//! The result line the benchmark prints, and notes printed before it.

use std::fmt::Write as _;

/// Metrics of one run, with its correctness verdict and operation counts.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every output checked out.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed.
    pub failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// Records metric `name` in `unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a line of context (sample counts, which percentile).
    pub fn note(&mut self, line: &str) {
        self.notes.push(line.to_owned());
    }

    /// One JSON object: the result keys plus `notes`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            // A non-finite value cannot be written as JSON; it would mean a
            // division by an empty phase, which the verdict already fails.
            let value = if value.is_finite() { *value } else { -1.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}, \"notes\": [");
        for (i, n) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let escaped = n.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = write!(out, "{sep}\"{escaped}\"");
        }
        out.push_str("]}");
        out
    }
}
