//! What a run prints: counts of operations, the correctness verdict and
//! named metrics with units, as one JSON object on the last line.

use crate::estimator::Estimate;
use std::fmt::Write;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value exactly as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand for building a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of one workload run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that were shed, timed out, errored or answered wrongly.
    pub failed: u64,
    /// The metrics of this run.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Every output matched its reference.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The last line of a run's standard output.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("write to a String");
        }
        s.push_str("}}");
        s
    }
}

/// Name, unit, better direction and regression bound (share of the parent's
/// median) of every end-to-end metric, as listed in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("work_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
];

/// The six end-to-end metrics, the same names on every workload.
pub fn end_to_end(work_per_s: f64, est: &Estimate, peak_rss_mb: f64, setup_s: f64) -> Vec<Metric> {
    vec![
        metric("work_per_s", work_per_s, "1/s"),
        metric("op_ms_p50", est.op_ms_p50, "ms"),
        metric("op_ms_p90", est.op_ms_p90, "ms"),
        metric("cpu_ms_per_op", est.cpu_ms_per_op, "ms"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("setup_s", setup_s, "s"),
    ]
}
