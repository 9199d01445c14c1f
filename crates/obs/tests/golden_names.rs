//! The exposition's names are an interface: dashboards and the perf
//! ledger key on them. This pins every Prometheus `(family, TYPE)` pair
//! and every `MetricsSnapshot::to_json` key against checked-in lists, so
//! a change to how the registry is declared cannot rename, drop or
//! retype a metric unnoticed.

use urpsm_obs::{check_exposition, registry, render_prometheus};

/// Every `# TYPE` line, sorted by family name.
const FAMILIES: &[(&str, &str)] = &[
    ("urpsm_batch_epochs_total", "counter"),
    ("urpsm_borrow_probes_total", "counter"),
    ("urpsm_borrow_wins_total", "counter"),
    ("urpsm_class_driven_total", "counter"),
    ("urpsm_class_served_total", "counter"),
    ("urpsm_classes_live", "gauge"),
    ("urpsm_dis_cache_evictions_total", "counter"),
    ("urpsm_dis_cache_hits_total", "counter"),
    ("urpsm_dis_cache_misses_total", "counter"),
    ("urpsm_ingest_admitted_total", "counter"),
    ("urpsm_ingest_backlog", "gauge"),
    ("urpsm_ingest_deferred_total", "counter"),
    ("urpsm_ingest_peak_backlog", "gauge"),
    ("urpsm_ingest_shed_total", "counter"),
    ("urpsm_ingest_ticks_total", "counter"),
    ("urpsm_kinetic_reorders_total", "counter"),
    ("urpsm_motion_advanced_total", "counter"),
    ("urpsm_path_queries_total", "counter"),
    ("urpsm_plan_assigned_total", "counter"),
    ("urpsm_plan_bound_improvements_total", "counter"),
    ("urpsm_plan_gate_td_misses_total", "counter"),
    ("urpsm_plan_latency_ns", "histogram"),
    ("urpsm_plan_ordered_ranks_total", "counter"),
    ("urpsm_plan_phase_bounds_ns", "histogram"),
    ("urpsm_plan_phase_order_ns", "histogram"),
    ("urpsm_plan_phase_probe_ns", "histogram"),
    ("urpsm_plan_phase_shortlist_ns", "histogram"),
    ("urpsm_plan_probes_total", "counter"),
    ("urpsm_plan_rejected_total", "counter"),
    ("urpsm_plan_requests_total", "counter"),
    ("urpsm_plan_shortlist_len", "histogram"),
    ("urpsm_recovery_replayed_total", "counter"),
    ("urpsm_recovery_runs_total", "counter"),
    ("urpsm_recovery_torn_tail_total", "counter"),
    ("urpsm_service_events_total", "counter"),
    ("urpsm_service_replies_total", "counter"),
    ("urpsm_shard_backlog", "gauge"),
    ("urpsm_shard_events_total", "counter"),
    ("urpsm_shard_handoffs_total", "counter"),
    ("urpsm_shard_sheds_total", "counter"),
    ("urpsm_shards_live", "gauge"),
    ("urpsm_td_dis_hits_total", "counter"),
    ("urpsm_td_dis_misses_total", "counter"),
    ("urpsm_td_evictions_total", "counter"),
    ("urpsm_td_path_queries_total", "counter"),
    ("urpsm_td_queries_total", "counter"),
    ("urpsm_td_settled_total", "counter"),
    ("urpsm_trace_recorded_total", "counter"),
    ("urpsm_wal_appends_total", "counter"),
    ("urpsm_wal_bytes_total", "counter"),
    ("urpsm_wal_flush_ns", "histogram"),
    ("urpsm_wal_flushes_total", "counter"),
    ("urpsm_workload_events_total", "counter"),
];

/// Every top-level key of the snapshot JSON, sorted.
const JSON_KEYS: &[&str] = &[
    "batch_epochs",
    "borrow_probes",
    "borrow_wins",
    "class_driven",
    "class_served",
    "classes_live",
    "dis_cache_evictions",
    "dis_cache_hit_rate",
    "dis_cache_hits",
    "dis_cache_misses",
    "enabled",
    "ingest_admitted",
    "ingest_backlog",
    "ingest_deferred",
    "ingest_peak_backlog",
    "ingest_shed",
    "ingest_ticks",
    "kinetic_reorders",
    "motion_advanced",
    "path_queries",
    "plan_assigned",
    "plan_bound_improvements",
    "plan_gate_td_misses",
    "plan_latency_ns",
    "plan_ordered_ranks",
    "plan_phase_bounds_ns",
    "plan_phase_order_ns",
    "plan_phase_probe_ns",
    "plan_phase_shortlist_ns",
    "plan_probes",
    "plan_rejected",
    "plan_requests",
    "plan_shortlist_len",
    "recovery_replayed",
    "recovery_runs",
    "recovery_torn_tail",
    "service_events",
    "service_replies",
    "shard_events",
    "shard_handoffs",
    "shards_live",
    "td_dis_hit_rate",
    "td_dis_hits",
    "td_dis_misses",
    "td_evictions",
    "td_path_queries",
    "td_queries",
    "td_settled",
    "trace_recorded",
    "wal_appends",
    "wal_bytes",
    "wal_flush_ns",
    "wal_flushes",
    "workload_events",
];

/// The top-level keys of a JSON object rendered without whitespace.
fn top_level_keys(json: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut depth = 0usize;
    let mut rest = json;
    while let Some(c) = rest.chars().next() {
        rest = &rest[c.len_utf8()..];
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            '"' => {
                let close = rest.find('"').expect("terminated string");
                if depth == 1 && rest[close + 1..].starts_with(':') {
                    keys.push(rest[..close].to_string());
                }
                rest = &rest[close + 1..];
            }
            _ => {}
        }
    }
    keys
}

#[test]
fn exposition_names_match_the_golden_lists() {
    // Touch every labelled slot so the per-shard and per-class families
    // are emitted (they are skipped while their `live` gauge is zero).
    let reg = registry();
    reg.shards_live.observe_max(2);
    reg.classes_live.observe_max(2);
    for slot in 0..2 {
        reg.shard_events[slot].inc();
        reg.shard_backlog[slot].set(1);
        reg.shard_sheds[slot].inc();
        reg.class_served[slot].inc();
        reg.class_driven[slot].inc();
    }

    let text = render_prometheus(reg);
    check_exposition(&text).expect("exposition must parse");

    let mut families = Vec::new();
    let mut helps = Vec::new();
    for line in text.lines() {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (name, ty) = decl.split_once(' ').expect("TYPE has a name and a type");
            families.push((name, ty));
        } else if let Some(decl) = line.strip_prefix("# HELP ") {
            let (name, help) = decl.split_once(' ').unwrap_or((decl, ""));
            assert!(!help.trim().is_empty(), "{name}: empty help");
            helps.push(name);
        }
    }
    families.sort_unstable();
    helps.sort_unstable();
    assert_eq!(families, FAMILIES, "Prometheus families drifted");
    let declared: Vec<&str> = families.iter().map(|&(name, _)| name).collect();
    assert_eq!(helps, declared, "every family has exactly one HELP line");

    let mut keys = top_level_keys(&reg.snapshot().to_json());
    keys.sort_unstable();
    assert_eq!(keys, JSON_KEYS, "snapshot JSON keys drifted");
}
