//! The benchmark's metrics, by name and unit, and its result line.

use std::collections::BTreeMap;

/// A named metric with its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit the value is given in.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, printed by every workload with `--trace 0`.
///
/// `throughput` is the work a workload completes per second of a median
/// measured call, in the workload's own unit of work: input MB for
/// `analytics` (the paper's DPS), operations for `oltp` (OPS), simulated
/// million instructions for `characterize`.
pub const END_TO_END: &[Metric] =
    &[m("setup_s", "s"), m("throughput", "work/s"), m("peak_rss_mib", "MiB")];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer that does no work on a workload reports 0 there.
pub const PER_LAYER: &[Metric] = &[
    // Each workload's user-level figures, taken from its plain run.
    m("run_s", "s"),
    m("wordcount_mb_s", "MB/s"),
    m("sort_mb_s", "MB/s"),
    m("cc_medges_s", "Medges/s"),
    m("join_mb_s", "MB/s"),
    m("oltp_ops_s", "ops/s"),
    m("get_p50_us", "us"),
    m("get_p99_us", "us"),
    m("put_p50_us", "us"),
    m("put_p99_us", "us"),
    m("scan_p50_us", "us"),
    m("sim_minst_s", "Minst/s"),
    // datagen and input preparation (set-up).
    m("datagen.text_ms", "ms"),
    m("datagen.graph_ms", "ms"),
    m("datagen.orders_ms", "ms"),
    m("datagen.resume_ms", "ms"),
    m("graph.csr_build_ms", "ms"),
    m("kvstore.preload_ms", "ms"),
    // mapreduce.
    m("mapreduce.wordcount_ms", "ms"),
    m("mapreduce.sort_ms", "ms"),
    m("mapreduce.map_ms", "ms"),
    m("mapreduce.reduce_ms", "ms"),
    m("mapreduce.shuffle_bytes", "bytes"),
    m("mapreduce.spills", "count"),
    m("mapreduce.spill_bytes", "bytes"),
    m("mapreduce.combine_ratio", "ratio"),
    m("mapreduce.speculative_tasks", "count"),
    m("mapreduce.retries", "count"),
    // graph.
    m("graph.cc_ms", "ms"),
    m("graph.cc_iterations", "count"),
    m("graph.edges", "count"),
    // sql.
    m("sql.join_ms", "ms"),
    m("sql.join_rows", "count"),
    // kvstore.
    m("kvstore.get_ms", "ms"),
    m("kvstore.put_ms", "ms"),
    m("kvstore.scan_ms", "ms"),
    m("kvstore.stall_ms", "ms"),
    m("kvstore.stalled_puts", "count"),
    m("kvstore.flushes", "count"),
    m("kvstore.compactions", "count"),
    m("kvstore.tables", "count"),
    m("kvstore.bloom_skips_per_get", "ratio"),
    m("kvstore.get_hit_frac", "ratio"),
    m("kvstore.read_bytes_per_op", "bytes"),
    m("kvstore.read_syscalls_per_op", "count"),
    m("kvstore.write_amp", "ratio"),
    m("kvstore.space_amp", "ratio"),
    // archsim.
    m("archsim.wordcount_ms", "ms"),
    m("archsim.cc_ms", "ms"),
    m("archsim.kmeans_ms", "ms"),
    m("archsim.read_ms", "ms"),
    m("archsim.join_ms", "ms"),
    m("archsim.ns_per_access", "ns"),
    m("archsim.instructions", "count"),
    m("archsim.cycles", "count"),
    m("archsim.l1d_misses", "count"),
    m("archsim.l2_misses", "count"),
    m("archsim.llc_misses", "count"),
    m("archsim.dtlb_misses", "count"),
    m("archsim.dram_bytes", "bytes"),
    // The benchmark's own cost.
    m("bench.span_overhead_frac", "ratio"),
];

/// Per-layer entries that are user-level figures: reported from the
/// plain run, not the layer-timed one.
pub const FROM_PLAIN_RUN: &[&str] = &[
    "run_s",
    "wordcount_mb_s",
    "sort_mb_s",
    "cc_medges_s",
    "join_mb_s",
    "oltp_ops_s",
    "get_p50_us",
    "get_p99_us",
    "put_p50_us",
    "put_p99_us",
    "scan_p50_us",
    "sim_minst_s",
];

fn known(name: &str) -> bool {
    END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name)
}

/// Metric values gathered by one run of a workload.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` for the metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a listed metric or `value` is not finite:
    /// both are bugs in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(known(name), "unlisted metric {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Formats the result line: one JSON object with the outcome counts and
/// every metric in `listed`, each with its unit. A per-layer metric the
/// workload did not record reads 0; an end-to-end metric must be present.
///
/// # Panics
///
/// Panics if an end-to-end metric is missing from `values`.
pub fn result_line(attempted: u64, failed: u64, listed: &[Metric], values: &Metrics) -> String {
    let body: Vec<String> = listed
        .iter()
        .map(|m| {
            let value = values.get(m.name).unwrap_or_else(|| {
                assert!(!END_TO_END.contains(m), "end-to-end metric {} missing", m.name);
                0.0
            });
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric line in `BENCHMARK.json`.
    fn declared() -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let field = |line: &str, key: &str| -> Option<String> {
            let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
            Some(rest[..rest.find('"')?].to_owned())
        };
        text.lines().filter_map(|line| Some((field(line, "name")?, field(line, "unit")?))).collect()
    }

    #[test]
    fn every_metric_is_declared_with_its_unit_and_nothing_else_is() {
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect();
        assert_eq!(declared(), ours);
    }

    #[test]
    fn names_are_unique_and_plain_run_figures_are_per_layer() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(FROM_PLAIN_RUN.iter().all(|n| PER_LAYER.iter().any(|m| m.name == *n)));
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut v = Metrics::default();
        v.set("setup_s", 0.5);
        v.set("throughput", 1.25);
        v.set("peak_rss_mib", 100.0);
        let line = result_line(10, 0, END_TO_END, &v);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"throughput\": {\"value\": 1.25, \"unit\": \"work/s\"}, \
             \"peak_rss_mib\": {\"value\": 100, \"unit\": \"MiB\"}}}"
        );
        let line = result_line(10, 2, PER_LAYER, &Metrics::default());
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 2"));
        for m in PER_LAYER {
            assert!(line
                .contains(&format!("\"{}\": {{\"value\": 0, \"unit\": \"{}\"}}", m.name, m.unit)));
        }
    }

    #[test]
    #[should_panic(expected = "end-to-end metric throughput missing")]
    fn result_line_refuses_a_missing_end_to_end_metric() {
        let mut v = Metrics::default();
        v.set("setup_s", 0.5);
        result_line(1, 0, END_TO_END, &v);
    }

    #[test]
    #[should_panic(expected = "unlisted metric")]
    fn unlisted_metrics_are_refused() {
        Metrics::default().set("no_such_metric", 1.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
