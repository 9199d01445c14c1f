//! End-to-end check of the observability plane (DESIGN.md §11): run a
//! real scenario through the planner, the sharded dispatch plane and a
//! WAL-backed ingest server with the runtime gate open, render the
//! Prometheus-text exposition and feed it back through the format
//! checker.
//!
//! The test is built in both feature states. Without `--features obs`
//! nothing records in any layer, so the exposition must still render,
//! parse and name every family — with all-zero values. With the feature
//! on (the CI `obs-gate` job) the run must actually show up: planner
//! requests, static-cache traffic, ingest ticks, WAL appends and
//! flight-recorder records all nonzero.

use urpsm::obs;
use urpsm::prelude::*;
use urpsm::server::server::{Backend, IngestServer, ServerConfig, WalConfig};

#[test]
fn exposition_parses_and_covers_the_run() {
    obs::set_enabled(true);

    // Planner + oracle traffic through the plain service.
    let scenario = ScenarioBuilder::named("obs-exposition")
        .grid_city(6, 6)
        .workers(3)
        .requests(24)
        .cancel_rate(0.1)
        .seed(11)
        .build();
    let mut service = urpsm::service(&scenario, Box::new(PruneGreedyDp::new()));
    for event in scenario.event_stream() {
        service.submit(event);
    }
    let outcome = service.drain();
    assert!(
        outcome.audit_errors.is_empty(),
        "{:?}",
        outcome.audit_errors
    );

    // Shard + handoff traffic through the dispatch plane.
    let mut sharded = urpsm::sharded(&scenario, 2, |_| Box::new(PruneGreedyDp::new()));
    for event in scenario.event_stream() {
        sharded.submit(event);
    }
    let sharded_out = sharded.drain();
    assert!(
        sharded_out.audit_errors.is_empty(),
        "{:?}",
        sharded_out.audit_errors
    );

    // Ingest + WAL traffic through a durable server.
    let dir = std::env::temp_dir().join(format!("urpsm-obs-expo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let backend = Backend::Sharded(urpsm::sharded(&scenario, 1, |_| {
        Box::new(PruneGreedyDp::new())
    }));
    let server = IngestServer::new(
        backend,
        ServerConfig {
            wal: Some(WalConfig::new(dir.clone())),
            ..ServerConfig::default()
        },
    )
    .expect("open server");
    let server_out = server.run(scenario.event_stream()).expect("run server");
    assert!(server_out.audit_errors.is_empty());
    let _ = std::fs::remove_dir_all(&dir);

    // The exposition renders, parses, and names every family the
    // acceptance criteria call out.
    let text = obs::render_prometheus(obs::registry());
    let samples = obs::check_exposition(&text).expect("exposition must parse");
    assert!(samples > 40, "only {samples} samples rendered");
    for family in [
        "urpsm_plan_latency_ns",
        "urpsm_plan_requests_total",
        "urpsm_plan_ordered_ranks_total",
        "urpsm_plan_phase_shortlist_ns",
        "urpsm_plan_phase_bounds_ns",
        "urpsm_plan_phase_order_ns",
        "urpsm_plan_phase_probe_ns",
        "urpsm_dis_cache_hits_total",
        "urpsm_dis_cache_misses_total",
        "urpsm_td_dis_hits_total",
        "urpsm_ingest_ticks_total",
        "urpsm_ingest_backlog",
        "urpsm_ingest_shed_total",
        "urpsm_wal_flush_ns",
        "urpsm_shards_live",
        "urpsm_motion_advanced_total",
    ] {
        assert!(text.contains(family), "missing family {family}");
    }

    // With the instrumentation compiled in, the run is visible.
    if obs::RECORDING {
        let snap = obs::registry().snapshot();
        assert!(snap.plan_requests > 0, "no planner traffic recorded");
        // The phase split: one sample per phase per planned request,
        // time in every phase, and the lazy order never ranks more
        // candidates than the shortlists held.
        for (phase, hist) in obs::PlanPhase::ALL.iter().zip(&snap.plan_phase_ns) {
            assert_eq!(hist.count, snap.plan_requests, "{phase:?} samples");
            assert!(hist.sum > 0, "no time recorded in {phase:?}");
        }
        assert!(snap.plan_ordered_ranks > 0, "no rank ever ordered");
        assert!(
            snap.plan_ordered_ranks <= snap.plan_shortlist_len.sum,
            "{} ranks ordered out of {} shortlisted",
            snap.plan_ordered_ranks,
            snap.plan_shortlist_len.sum
        );
        let json = snap.to_json();
        assert!(json.contains("\"plan_phase_bounds_ns\":{\"count\":"));
        assert!(json.contains("\"plan_ordered_ranks\":"));
        assert!(
            snap.dis_cache_hits + snap.dis_cache_misses > 0,
            "no oracle cache traffic recorded"
        );
        assert!(snap.ingest_ticks > 0, "no ingest ticks recorded");
        assert!(snap.wal_appends > 0, "no WAL appends recorded");
        assert!(snap.wal_flushes > 0, "no WAL flushes recorded");
        assert!(snap.shards_live >= 2, "sharded run not reflected");
        assert!(snap.service_events > 0, "no service events recorded");
        // Motion is counted, and it follows the vehicles that move: at
        // most the whole fleet per event, in practice far fewer.
        assert!(snap.motion_advanced > 0, "no worker ever advanced");
        let fleet = scenario.workers.len() as u64;
        assert!(
            snap.motion_advanced <= snap.service_events * fleet,
            "{} advances for {} events x {fleet} workers",
            snap.motion_advanced,
            snap.service_events
        );
        assert!(snap.trace_recorded > 0, "flight recorder stayed empty");
        assert!(
            text.contains("urpsm_shard_sheds_total{shard=\"0\"}"),
            "per-shard series missing"
        );

        // The flight recorder dump is valid JSON-ish and non-empty.
        let dump = obs::registry().ring.dump_json();
        assert!(dump.starts_with('[') && dump.ends_with(']'));
        assert!(dump.contains("\"kind\""));

        // A tick's opening record carries the batch it is about to
        // walk (word `c`), not the already-emptied queue.
        let busiest_tick = obs::registry()
            .ring
            .events()
            .iter()
            .filter(|e| e.kind == obs::TraceKind::TickStart)
            .map(|e| e.c)
            .max();
        assert!(
            busiest_tick.is_some_and(|pending| pending > 0),
            "every TickStart reported an empty batch: {busiest_tick:?}"
        );
    } else {
        // Without the feature, zero overhead means zero readings.
        let snap = obs::registry().snapshot();
        assert_eq!(snap.plan_requests, 0);
        assert_eq!(snap.plan_ordered_ranks, 0);
        assert!(snap.plan_phase_ns.iter().all(|h| h.count == 0));
        assert_eq!(snap.ingest_ticks, 0);
        assert_eq!(snap.motion_advanced, 0);
        assert_eq!(snap.trace_recorded, 0);
    }
}
