//! The benchmark's metric tables — the same names, units, directions
//! and bounds as `BENCHMARK.json` at the repo root (a unit test holds
//! the two together).

/// A metric a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_eps", "events/s", true, 0.25),
    e2e("decide_p50_us", "us", false, 0.25),
    e2e("decide_p99_us", "us", false, 0.25),
    e2e("cpu_us_per_event", "us", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.15),
    e2e("served_share", "ratio", true, 0.02),
    e2e("unified_cost", "cost", false, 0.15),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// A metric of a single layer, from the traced run. No bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

pub const PER_LAYER: [PerLayer; 32] = [
    lower("road-network.dis_calls_per_request", "count"),
    lower("road-network.path_calls_per_request", "count"),
    lower("road-network.dis_ns_per_call", "ns"),
    lower("road-network.self_us_per_event", "us"),
    higher("road-network.lru_hit_rate", "ratio"),
    lower("road-network.td_query_us", "us"),
    lower("road-network.td_settled_per_query", "count"),
    higher("road-network.td_cache_hit_rate", "ratio"),
    lower("road-network.label_build_s", "s"),
    lower("urpsm-core.plan_us_per_request", "us"),
    lower("urpsm-core.self_us_per_event", "us"),
    lower("urpsm-core.shortlist_size", "count"),
    lower("urpsm-core.shortlist_us", "us"),
    lower("urpsm-core.dis_per_candidate", "ratio"),
    lower("simulator.self_us_per_event", "us"),
    lower("simulator.replies_per_event", "count"),
    lower("simulator.drain_s", "s"),
    lower("dispatch.self_us_per_event", "us"),
    lower("dispatch.handoffs", "count"),
    lower("dispatch.shard_skew", "ratio"),
    lower("server.self_us_per_event", "us"),
    lower("server.tick_p50_us", "us"),
    lower("server.tick_p99_us", "us"),
    lower("server.encode_ns_per_event", "ns"),
    lower("server.wal_append_ns_per_event", "ns"),
    lower("server.wal_bytes_per_event", "bytes"),
    lower("server.snapshots", "count"),
    lower("server.recover_s", "s"),
    lower("server.shed", "count"),
    lower("server.peak_backlog", "count"),
    lower("workloads.scenario_build_s", "s"),
    lower("trace.overhead_pct", "%"),
];

/// The direction of the metric called `name`, from either table.
pub fn higher_is_better(name: &str) -> bool {
    let e2e = END_TO_END.iter().map(|m| (m.name, m.higher_is_better));
    let layers = PER_LAYER.iter().map(|m| (m.name, m.higher_is_better));
    e2e.chain(layers).any(|m| m.0 == name && m.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::WORKLOADS;
    use crate::json::{self, Value};

    fn direction(higher_is_better: bool) -> &'static str {
        if higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }

    fn names(list: &Value) -> Vec<String> {
        let Value::Array(items) = list else {
            panic!("expected an array")
        };
        items
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the binary prints and `check-repeat` enforces. They must agree.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();

        let e2e = doc.get("end_to_end").unwrap();
        assert_eq!(names(e2e), END_TO_END.map(|m| m.name));
        let Value::Array(items) = e2e else {
            unreachable!()
        };
        for (item, m) in items.iter().zip(&END_TO_END) {
            assert_eq!(item.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                item.get("better").and_then(Value::as_str),
                Some(direction(m.higher_is_better))
            );
            assert_eq!(item.get("bound").and_then(Value::as_f64), Some(m.bound));
        }

        let layers = doc.get("per_layer").unwrap();
        assert_eq!(names(layers), PER_LAYER.map(|m| m.name));
        let Value::Array(items) = layers else {
            unreachable!()
        };
        for (item, m) in items.iter().zip(&PER_LAYER) {
            assert_eq!(item.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                item.get("better").and_then(Value::as_str),
                Some(direction(m.higher_is_better))
            );
        }

        let held: Vec<&str> = WORKLOADS
            .iter()
            .filter(|w| w.held_to_bounds())
            .map(|w| w.name())
            .collect();
        assert_eq!(names(doc.get("workloads").unwrap()), held);
    }
}
