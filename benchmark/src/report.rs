//! Metric names, units, summary statistics and the result line.
//!
//! Every workload reports the same metric set: the end-to-end table with
//! tracing off, the per-layer table with tracing on. A layer a workload
//! never calls reports a share or count of 0; every time in seconds or
//! microseconds is measured on every workload.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("run_s", "s"), ("op_p50_ms", "ms")];

/// Per-layer metrics (`--trace 1`): name and unit. A `_share` is the
/// layer's span time divided by the traced pass's wall time. The first two
/// are whole-run values too noisy on a shared host to carry a bound.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("workload.generate_share", "ratio"),
    ("analysis.select_share", "ratio"),
    ("analysis.us_per_client", "us"),
    ("harness.build_share", "ratio"),
    ("harness.advance_share", "ratio"),
    ("harness.record_share", "ratio"),
    ("client.phase_share", "ratio"),
    ("client.visits", "count"),
    ("client.useful_ratio", "ratio"),
    ("fabric.inject_share", "ratio"),
    ("fabric.rejects", "count"),
    ("fabric.step_share", "ratio"),
    ("fabric.drain_share", "ratio"),
    ("fabric.fold_share", "ratio"),
    ("ff.probe_share", "ratio"),
    ("ff.advance_idle_share", "ratio"),
    ("ff.probes", "count"),
    ("ff.hit_ratio", "ratio"),
    ("ff.skipped_ratio", "ratio"),
    ("fault.injected", "count"),
    ("guard.retries", "count"),
    ("guard.misses_detected", "count"),
    ("telemetry.flush_share", "ratio"),
    ("telemetry.finish_share", "ratio"),
    ("telemetry.epochs", "count"),
    ("telemetry.bytes", "bytes"),
    ("shard.advance_share", "ratio"),
    ("shard.advance_1w_share", "ratio"),
    ("shard.parallel_gain", "ratio"),
    ("sim.issued", "count"),
    ("sim.miss_ratio", "ratio"),
    ("ctl.recover_share", "ratio"),
    ("ctl.replay_share", "ratio"),
    ("ctl.append_share", "ratio"),
    ("ctl.sync_share", "ratio"),
    ("ctl.stats_share", "ratio"),
    ("ctl.step_share", "ratio"),
    ("ctl.residual_share", "ratio"),
    ("ctl.admitted", "count"),
    ("ctl.rejected", "count"),
    ("ctl.reject_ratio", "ratio"),
];

/// What one invocation measured, after every check passed: the operation
/// tally and the metric values by name.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Builds the outcome from the values of the table `trace` selects.
    /// A per-layer metric absent from `values` belongs to a layer the
    /// workload never calls and reads 0; every end-to-end metric must be
    /// given. A missing, duplicate, unknown or non-finite value is a bug
    /// in the benchmark, not a measurement.
    pub fn new(attempted: u64, failed: u64, trace: bool, values: Vec<(&'static str, f64)>) -> Self {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (name, _) in &values {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "unknown metric {name}"
            );
        }
        let metrics = table
            .iter()
            .map(|&(name, _)| {
                let mut found = values.iter().filter(|(n, _)| *n == name);
                let value = match found.next() {
                    Some(&(_, value)) => value,
                    None if trace => 0.0,
                    None => panic!("metric {name} missing"),
                };
                assert!(found.next().is_none(), "metric {name} reported twice");
                assert!(value.is_finite(), "metric {name} is not finite");
                (name, value)
            })
            .collect();
        Self {
            attempted,
            failed,
            metrics,
        }
    }

    /// One `name = value unit` line per metric, for people.
    pub fn table(&self, workload: &str) -> String {
        let mut s = String::new();
        for &(name, value) in &self.metrics {
            let _ = writeln!(s, "{workload:<14} {name:<26} {value:>16} {}", unit_of(name));
        }
        s
    }

    /// The result line: one JSON object with every metric and its unit.
    /// It is only printed once the checks passed, so `correct` is true.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, &(name, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            );
        }
        s.push_str("}}");
        s
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
        .expect("every reported metric is in a table")
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `part / whole`, or 0 when nothing was measured.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// FNV-1a over a stream of words: the digest simulated results are
/// compared by.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Escapes `s` for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_line_lists_every_metric_with_its_unit() {
        let values = END_TO_END.iter().map(|&(n, _)| (n, 1.5)).collect();
        let out = Outcome::new(3, 0, false, values);
        let json = out.json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(json.contains("\"op_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let parsed = bluescale_telemetry::jsonl::parse_json(&spec).expect("BENCHMARK.json is JSON");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = parsed
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key} in BENCHMARK.json");
        }
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }
}
