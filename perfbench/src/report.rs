//! Metric names, units, and the result line.
//!
//! These lists are the benchmark's contract with `BENCHMARK.json`; the
//! tests check that the two agree.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("lat_p50_ms", "ms"),
    ("pass_s", "s"),
    ("query_geomean_ms", "ms"),
    ("fabric_bytes_per_query", "bytes"),
    ("sim_ms_per_query", "ms"),
    ("rss_peak_mb", "MB"),
    ("ok_share", "share"),
];

/// Per-layer metrics, printed by every traced run. Layers a workload does
/// not reach (the `serve.*` ones outside `serve`, `session.glue_us` on
/// `serve`) read 0. The two tail latencies are end-to-end figures kept
/// here, without a bound: across runs on a shared host they spread wider
/// than any bound an end-to-end metric may have.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("sql.parse_us", "us"),
    ("optimizer.variants_us", "us"),
    ("optimizer.variants", "count"),
    ("pipeline.compile_us", "us"),
    ("pipeline.verify_us", "us"),
    ("pipeline.pipelines", "count"),
    ("pipeline.fabric_edges", "count"),
    ("check.deadlock_us", "us"),
    ("check.model_states", "count"),
    ("exec.execute_us", "us"),
    ("exec.rows_out", "count"),
    ("exec.batches_out", "count"),
    ("exec.inexact_share", "share"),
    ("session.glue_us", "us"),
    ("storage.scan_us", "us"),
    ("storage.pages_pruned_share", "share"),
    ("storage.bytes_returned_share", "share"),
    ("storage.rows_scanned", "count"),
    ("storage.load_s", "s"),
    ("codec.decode_gbps", "GB/s"),
    ("codec.encode_gbps", "GB/s"),
    ("codec.wire_size_us", "us"),
    ("optimizer.profile_s", "s"),
    ("fabric.flow_specs_us", "us"),
    ("serve.admission_us", "us"),
    ("serve.credits", "count"),
    ("serve.run_sql_us", "us"),
    ("serve.dispatch_residual_us", "us"),
    ("serve.protocol_us", "us"),
    ("serve.encode_result_us", "us"),
    ("serve.decode_result_us", "us"),
    ("serve.result_frames", "count"),
    ("serve.result_bytes", "bytes"),
    ("trace.qps", "1/s"),
    ("trace.untraced_qps", "1/s"),
    ("trace.overhead_share", "share"),
    ("lat_p90_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("host.reference_ms", "ms"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `name`'s value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of `names`, in order. A metric that was not recorded is an
/// error, so the printed set always matches the contract.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&'static str, &'static str)],
    values: &Values,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let v = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(out)
}
