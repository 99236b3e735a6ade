//! The metric table: every metric the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` at the repository root lists the same
//! metrics; the tests below keep the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Printed by every untraced run (`--trace 0`).
pub const END_TO_END: [Metric; 3] = [
    m("run_s", "s", Lower),
    m("setup_s", "s", Lower),
    m("peak_heap_mb", "MB", Lower),
];

/// Printed by every traced run (`--trace 1`).
pub const PER_LAYER: [Metric; 26] = [
    m("workloads.scenario_build_us", "us", Lower),
    m("vfs.template_us", "us", Lower),
    m("vfs.ops_per_round", "count", Lower),
    m("kernel.boot_ns_per_round", "ns", Lower),
    m("kernel.recycle_ns_per_round", "ns", Lower),
    m("round.simulate_ns", "ns", Lower),
    m("sim.events_per_round", "count", Lower),
    m("sim.host_ns_per_event", "ns", Lower),
    m("os.context_switches_per_round", "count", Lower),
    m("os.traps_per_round", "count", Lower),
    m("os.detect_ns_per_round", "ns", Lower),
    m("os.forensics_ns_per_round", "ns", Lower),
    m("os.metrics_ns_per_round", "ns", Lower),
    m("mc.engine_ns_per_round", "ns", Lower),
    m("alloc.allocs_per_round", "count", Lower),
    m("alloc.bytes_per_round", "B", Lower),
    m("store.bytes_per_round", "B", Lower),
    m("store.replay_ns_per_round", "ns", Lower),
    m("store.write_ns_per_round", "ns", Lower),
    m("estimate.simulated_rounds", "count", Lower),
    m("estimate.waves", "count", Lower),
    m("estimate.host_ns_per_round", "ns", Lower),
    m("estimate.overhead_ns_per_round", "ns", Lower),
    m("estimate.efficiency", "ratio", Higher),
    m("stats.interval_ns", "ns", Lower),
    m("trace.overhead_ns_per_round", "ns", Lower),
];

/// The metric table for a run: end-to-end untraced, per-layer traced.
pub fn metrics_for(traced: bool) -> &'static [Metric] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn listed(v: &Value, key: &str) -> Vec<(String, String, String)> {
        let Some(Value::Array(items)) = v.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|item| {
                let field = |k: &str| match item.get(k) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{key} entry lacks string {k}: {other:?}"),
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn table(ms: &[Metric]) -> Vec<(String, String, String)> {
        ms.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect()
    }

    #[test]
    fn end_to_end_matches_benchmark_json() {
        assert_eq!(table(&END_TO_END), listed(&benchmark_json(), "end_to_end"));
    }

    #[test]
    fn per_layer_matches_benchmark_json() {
        assert_eq!(table(&PER_LAYER), listed(&benchmark_json(), "per_layer"));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let v = benchmark_json();
        let Some(Value::Array(items)) = v.get("workloads") else {
            panic!("BENCHMARK.json has no workloads list");
        };
        let names: Vec<&str> = items
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::Str(s)) => s.as_str(),
                other => panic!("workload without a name: {other:?}"),
            })
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(ours, names);
    }

    #[test]
    fn end_to_end_bounds_are_within_the_contract() {
        let v = benchmark_json();
        let Some(Value::Array(items)) = v.get("end_to_end") else {
            panic!("no end_to_end list");
        };
        for item in items {
            let bound = item.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(
                bound > 0.0 && bound <= 0.25,
                "bound {bound} out of (0, 0.25]"
            );
        }
    }
}
