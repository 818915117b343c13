//! Metric names, the result line, and the statistics every workload shares.
//!
//! A workload fills a [`Metrics`] map with everything it measured; the
//! caller then picks the end-to-end list (plain run) or the per-layer list
//! (traced run) from it and prints one JSON object as the last line of
//! standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("rank_error_mean", "positions"),
    ("latency_p50_us", "us"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer that the
/// workload does not load reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.probes_per_op", "1/op"),
    ("engine.search_rounds_per_op", "1/op"),
    ("engine.items_per_round", "1/round"),
    ("engine.restarts_per_kop", "1/kop"),
    ("substack.cas_fail_per_op", "1/op"),
    ("stack.push_ns", "ns"),
    ("stack.pop_ns", "ns"),
    ("queue.enqueue_n_ns", "ns"),
    ("queue.dequeue_n_ns", "ns"),
    ("window.shifts_per_kop", "1/kop"),
    ("workload.empty_rate", "fraction"),
    ("quality.rank_error_max", "positions"),
    ("quality.rank_error_p99", "positions"),
    ("quality.k_bound", "positions"),
    ("frame.write_ns", "ns"),
    ("frame.wait_ns", "ns"),
    ("frame.read_ns", "ns"),
    ("frame.bytes", "B"),
    ("protocol.client_encode_ns", "ns"),
    ("protocol.client_decode_ns", "ns"),
    ("protocol.server_decode_ns", "ns"),
    ("protocol.server_encode_ns", "ns"),
    ("tenant.resolve_ns", "ns"),
    ("tenant.handle_ns", "ns"),
    ("ops.produce_n_ns", "ns"),
    ("ops.consume_n_ns", "ns"),
    ("ops.acquire_ns", "ns"),
    ("conn.runs_per_frame", "count"),
    ("ledger.unexplained_ns", "ns"),
    ("adaptive.retunes", "count"),
    ("adaptive.final_width", "count"),
    ("os.user_cpu_s_per_mop", "s/Mop"),
    ("os.sys_cpu_s_per_mop", "s/Mop"),
    ("os.vol_csw_per_kframe", "1/kframe"),
    ("os.invol_csw", "count"),
    ("os.rss_mib", "MiB"),
    ("os.rss_peak_mib", "MiB"),
    ("latency.p99_us", "us"),
    ("latency.samples", "count"),
    ("trace.overhead", "fraction"),
    ("trace.timer_ns", "ns"),
    ("trace.spans", "count"),
];

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and is made of at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Every value a workload measured, by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The correctness verdict of one run: what was attempted, and every check
/// that failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (requests on the served workload).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed_ops: u64,
    /// Descriptions of the failed checks.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Failed operations plus failed checks: what the result line reports
    /// as `failed`.
    pub fn failed(&self) -> u64 {
        self.failed_ops + self.failures.len() as u64
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed() == 0
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding `names` in order.
///
/// # Errors
///
/// Names a metric that is missing from `metrics` or is not a finite number.
pub fn result_line(
    checks: &Checks,
    metrics: &Metrics,
    names: &[(&str, &str)],
) -> Result<String, String> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.correct(),
        checks.attempted.max(1),
        checks.failed()
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        if !valid_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        let value = *metrics.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    Ok(out)
}

/// Exact nearest-rank percentile (`q` in `0..=1`) of sorted samples; 0 when
/// there are none.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The mean of the values between the first and the third quartile (the
/// interquartile mean). Robust to a few disturbed chunks like a median,
/// but not stuck on one sample's value; 0 for no values.
pub fn central_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let lo = v.len() / 4;
    let hi = (v.len() - lo).max(lo + 1);
    let mid = &v[lo..hi];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The median of `values`; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_used_once() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        for name in &all {
            assert!(valid_name(name), "invalid metric name {name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a metric name is used twice");
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn units_use_the_allowed_characters() {
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!unit.is_empty() && unit.len() <= 16, "unit {unit}");
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {unit}"
            );
        }
    }

    #[test]
    fn name_validation_rejects_bad_names() {
        assert!(valid_name("engine.probes_per_op"));
        assert!(valid_name("0ok-name"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> =
            text.split("\"name\": \"").skip(1).filter_map(|rest| rest.split('"').next()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(names.contains(name), "BENCHMARK.json lacks metric {name}");
            assert!(text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")));
        }
        for workload in crate::WORKLOADS {
            assert!(names.contains(workload), "BENCHMARK.json lacks workload {workload}");
        }
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut metrics = Metrics::new();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            metrics.insert(name, 1.5 + i as f64);
        }
        metrics.insert("extra.metric", 9.0);
        let checks = Checks { attempted: 10, ..Checks::default() };
        let line = result_line(&checks, &metrics, END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains("extra.metric"), "only the requested list is printed");
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn result_line_refuses_missing_or_non_finite_values() {
        let checks = Checks::default();
        assert!(result_line(&checks, &Metrics::new(), END_TO_END).is_err());
        let mut metrics = Metrics::new();
        for (name, _) in END_TO_END {
            metrics.insert(name, f64::NAN);
        }
        assert!(result_line(&checks, &metrics, END_TO_END).is_err());
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut checks = Checks { attempted: 5, ..Checks::default() };
        checks.expect(true, || unreachable!());
        assert!(checks.correct());
        checks.expect(false, || "boom".into());
        assert!(!checks.correct());
        assert_eq!(checks.failed(), 1);
    }

    #[test]
    fn statistics_behave() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // The outliers at both ends are ignored.
        assert_eq!(central_mean(&[100.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, -50.0]), 2.0);
        assert_eq!(central_mean(&[7.0]), 7.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
