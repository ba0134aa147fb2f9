//! The metric catalogue and the result line.
//!
//! Every workload prints every metric of its mode: the end-to-end list
//! with `--trace 0`, the per-layer list with `--trace 1`. The lists here
//! and `BENCHMARK.json` must name the same metrics with the same units
//! (a test checks it).

use std::collections::BTreeMap;

/// One metric: name, unit and which direction is better.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("slo_miss_pct", "%", "lower"),
    m("cost_usd", "USD", "lower"),
    m("p99_latency_ms", "ms", "lower"),
    m("p99_token_ms", "ms", "lower"),
    m("wait_p50_ms", "ms", "lower"),
];

pub const PER_LAYER: &[Metric] = &[
    m("run_s", "s", "lower"),
    m("sim.events", "count", "lower"),
    m("sim.events_per_s", "1/s", "higher"),
    m("sim.queue_ns_per_event", "ns", "lower"),
    m("sim.partition_ns_per_event", "ns", "lower"),
    m("cluster.harness.step_self_ns.arrival", "ns", "lower"),
    m("cluster.harness.step_self_ns.completion", "ns", "lower"),
    m("cluster.harness.step_self_ns.decide", "ns", "lower"),
    m("cluster.harness.step_self_ns.other", "ns", "lower"),
    m("cluster.batcher.ns_per_request", "ns", "lower"),
    m("cluster.batcher.batch_size_mean", "count", "higher"),
    m("cluster.batcher.wait_ms", "ms", "lower"),
    m("cluster.device.queue_wait_ms", "ms", "lower"),
    m("cluster.device.interference_ms", "ms", "lower"),
    m("cluster.device.shared_ns_per_batch", "ns", "lower"),
    m("cluster.device.iter_ns_per_tick", "ns", "lower"),
    m("cluster.cold_starts", "count", "lower"),
    m("cluster.transitions", "count", "lower"),
    m("cluster.fleet.cpu_per_wall", "ratio", "higher"),
    m("cluster.fleet.epochs", "count", "lower"),
    m("core.decide_calls", "count", "lower"),
    m("core.decide_s", "s", "lower"),
    m("core.decide_p99_us", "us", "lower"),
    m("core.plan_cache_hit_rate", "ratio", "higher"),
    m("core.plan_cache_lookups", "count", "lower"),
    m("obs.records", "count", "lower"),
    m("obs.record_ns", "ns", "lower"),
    m("serve.step_s", "s", "lower"),
    m("serve.pace_wait_s", "s", "higher"),
    m("serve.send_late_p99_ms", "ms", "lower"),
    m("serve.max_rps", "1/s", "higher"),
    m("serve.lag_p50_ms", "ms", "lower"),
    m("serve.lag_p99_ms", "ms", "lower"),
    m("traces.sample_s", "s", "lower"),
    m("trace.overhead_pct", "%", "lower"),
];

/// What one invocation measured and checked.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Print every metric of `catalogue` as a readable line, then the
    /// result object as the last line. Returns whether every check held.
    pub fn print(mut self, catalogue: &[Metric]) -> bool {
        let mut metrics = Vec::new();
        for m in catalogue {
            match self.values.get(m.name) {
                Some(v) if v.is_finite() => {
                    println!(
                        "{:<42} {:>16.6} {} ({} is better)",
                        m.name, v, m.unit, m.better
                    );
                    metrics.push(format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name,
                        json_number(*v),
                        m.unit
                    ));
                }
                other => self
                    .problems
                    .push(format!("metric {} not measured ({other:?})", m.name)),
            }
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

/// A finite float as a JSON number with every digit Rust keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and these lists must agree name for name, unit for
    /// unit and direction for direction.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        for (key, list) in [("\"end_to_end\"", END_TO_END), ("\"per_layer\"", PER_LAYER)] {
            let section = &json[json.find(key).expect("section present")..];
            let section = &section[..section.find(']').expect("section closes")];
            let declared = section.matches("\"name\"").count();
            assert_eq!(declared, list.len(), "{key}: count differs");
            for m in list {
                let entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    m.name, m.unit, m.better
                );
                assert!(section.contains(&entry), "{key}: missing {entry}");
            }
        }
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(1e-7), "1e-7");
    }
}
