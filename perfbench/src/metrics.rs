//! The end-to-end metrics every workload reports, and the result line.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::util::{median, peak_rss_mb, quantile};

pub type Metric = (&'static str, f64, &'static str);

/// What one untraced run measures. Every workload fills every field from
/// its own operations; the README says what each means per workload.
///
/// The host these runs share switches between a fast and a slow state
/// every fraction of a second, and the share of time in each varies from
/// run to run. So each constant's compile time is its fastest cold compile
/// in the run, and each pass's throughput is the 90th percentile of its
/// per-round samples: figures of the program in the fast state, steady
/// from run to run, instead of a mix that follows the neighbours' load.
#[derive(Debug, Default)]
pub struct E2e {
    pub setup_s: f64,
    /// Fastest cold compile of each constant, by constant id, and whether
    /// it is a divide or remainder.
    pub compiles: BTreeMap<u64, (bool, Duration)>,
    /// Simulated cycles and completed operations.
    pub mul: (u64, u64),
    pub div: (u64, u64),
    /// Ops/s of each pass, one sample per round.
    pub batch: Vec<f64>,
    pub engine: Vec<f64>,
    pub stats: Vec<f64>,
    pub call: Vec<f64>,
}

impl E2e {
    /// Records a cold compile of constant `id`.
    pub fn add_compile(&mut self, id: u64, is_div: bool, took: Duration) {
        let fastest = self.compiles.entry(id).or_insert((is_div, took));
        fastest.1 = fastest.1.min(took);
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let ratio = |(cycles, ops): (u64, u64)| cycles as f64 / ops as f64;
        let compiles = |div: bool, scale: f64| -> Vec<f64> {
            self.compiles
                .values()
                .filter(|(is_div, _)| *is_div == div)
                .map(|(_, took)| took.as_secs_f64() * scale)
                .collect()
        };
        let (div_ms, mul_us) = (compiles(true, 1e3), compiles(false, 1e6));
        let compile_s: f64 = self.compiles.values().map(|(_, t)| t.as_secs_f64()).sum();
        let fast = |samples: &[f64]| quantile(samples, 0.9);
        vec![
            ("setup_s", self.setup_s, "s"),
            ("div_compile_ms", median(&div_ms), "ms"),
            ("div_compile_p90_ms", quantile(&div_ms, 0.9), "ms"),
            ("mul_compile_us", median(&mul_us), "us"),
            ("mul_compile_p90_us", quantile(&mul_us, 0.9), "us"),
            ("compile_s", compile_s, "s"),
            ("mul_cycles", ratio(self.mul), "cycles"),
            ("div_cycles", ratio(self.div), "cycles"),
            ("batch_ops_per_s", fast(&self.batch), "ops/s"),
            ("engine_ops_per_s", fast(&self.engine), "ops/s"),
            ("stats_ops_per_s", fast(&self.stats), "ops/s"),
            ("call_ops_per_s", fast(&self.call), "ops/s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }
}

/// Ops per second of `ops` operations that took `took`.
pub fn rate(ops: u64, took: Duration) -> f64 {
    ops as f64 / took.as_secs_f64()
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
/// A metric that is not a finite number makes the run incorrect, since JSON
/// cannot carry it and the figure would be meaningless.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && finite,
        body.join(", ")
    )
}
