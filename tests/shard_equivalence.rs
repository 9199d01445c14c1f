//! The geo-sharded dispatch plane against the single `MobilityService`.
//!
//! * **K = 1 is the identity** — a one-shard `ShardedService` replaying
//!   a scenario's full event stream (arrivals, cancellations, fleet
//!   churn) must be *byte-identical* to a plain `MobilityService` fed
//!   the same stream: same event log, same metrics, same committed
//!   distance. Single-shard routing passes every reply through
//!   verbatim, so any divergence is a routing or translation bug.
//! * **K ∈ {2, 4, 8} is audit-clean** — every shard's independent
//!   audit must hold (feasibility, invariability, exact
//!   driven == planned economics) on cancel/churn/multi-region
//!   streams, the Borrow probe handing workers across seams. Solution
//!   *quality* may legitimately differ from K = 1 (sharding trades
//!   optimality for locality); the delta is recorded in the test
//!   output instead of silently degrading.

use urpsm::baselines::prelude::*;
use urpsm::prelude::*;

fn scenario(seed: u64, cancel_rate: f64, churn: (usize, usize), inter_region: f64) -> Scenario {
    ScenarioBuilder::named("shard-eq")
        .grid_city(10, 10)
        .workers(8)
        .requests(140)
        .horizon(35 * MINUTE_CS)
        .deadline_offset(8 * MINUTE_CS)
        .hotspots(4)
        .inter_region_trips(inter_region)
        .cancel_rate(cancel_rate)
        .cancel_delay(3 * MINUTE_CS)
        .fleet_churn(churn.0, churn.1)
        .seed(seed)
        .build()
}

/// The trace battery: plain, cancellation-heavy, churny, and the
/// kitchen sink with cross-region demand.
fn battery() -> Vec<Scenario> {
    vec![
        scenario(3, 0.0, (0, 0), 0.0),
        scenario(17, 0.2, (0, 0), 0.0),
        scenario(2018, 0.0, (2, 2), 0.0),
        scenario(71, 0.15, (1, 2), 0.4),
    ]
}

/// Zeroes the wall-clock field so metrics compare structurally.
fn normalized(mut m: SimMetrics) -> SimMetrics {
    m.planning_time = std::time::Duration::ZERO;
    m
}

fn run_plain(sc: &Scenario, planner: Box<dyn Planner + '_>) -> SimOutcome {
    let mut service = urpsm::service(sc, planner);
    for event in sc.event_stream() {
        service.submit(event);
    }
    service.drain()
}

fn open_sharded(sc: &Scenario, shards: usize) -> ShardedService<'static> {
    ShardedService::new(
        sc.oracle.clone(),
        sc.workers.clone(),
        |_| Box::new(PruneGreedyDp::new()),
        ShardConfig {
            shards,
            sim: SimConfig {
                grid_cell_m: sc.grid_cell_m,
                alpha: sc.alpha,
                classes: sc.classes.clone(),
                ..SimConfig::default()
            },
        },
        sc.event_stream().first().map_or(0, PlatformEvent::time),
    )
}

fn run_sharded(sc: &Scenario, shards: usize) -> ShardedOutcome {
    let mut service = open_sharded(sc, shards);
    for event in sc.event_stream() {
        service.submit(event);
    }
    service.drain()
}

#[test]
fn one_shard_is_byte_identical_to_the_plain_service() {
    for (i, sc) in battery().iter().enumerate() {
        let plain = run_plain(sc, Box::new(PruneGreedyDp::new()));
        let sharded = run_sharded(sc, 1);
        assert_eq!(plain.events, sharded.events, "trace {i}: event log");
        assert_eq!(
            normalized(plain.metrics),
            normalized(sharded.metrics.clone()),
            "trace {i}: metrics"
        );
        assert_eq!(
            plain.state.total_assigned_distance(),
            sharded.total_assigned_distance(),
            "trace {i}: committed distance"
        );
        assert_eq!(sharded.handoffs, 0, "one shard has no seams");
        assert!(sharded.audit_errors.is_empty(), "trace {i}");
    }
}

#[test]
fn one_shard_matches_the_batch_planner_epochs_too() {
    // The batch planner exercises the wake-up/epoch machinery through
    // the dispatch plane (routing must not skip planner wakeups).
    let sc = scenario(17, 0.2, (0, 0), 0.0);
    let plain = run_plain(&sc, Box::new(BatchPlanner::new()));
    let mut service = ShardedService::new(
        sc.oracle.clone(),
        sc.workers.clone(),
        |_| Box::new(BatchPlanner::new()),
        ShardConfig {
            shards: 1,
            sim: SimConfig {
                grid_cell_m: sc.grid_cell_m,
                alpha: sc.alpha,
                classes: sc.classes.clone(),
                ..SimConfig::default()
            },
        },
        sc.event_stream().first().map_or(0, PlatformEvent::time),
    );
    for event in sc.event_stream() {
        service.submit(event);
    }
    let sharded = service.drain();
    assert_eq!(plain.events, sharded.events);
    assert_eq!(normalized(plain.metrics), normalized(sharded.metrics));
}

#[test]
fn multi_shard_runs_are_audit_clean_and_quality_is_recorded() {
    for (i, sc) in battery().iter().enumerate() {
        let baseline = run_plain(sc, Box::new(PruneGreedyDp::new()));
        for shards in [2usize, 4, 8] {
            let out = run_sharded(sc, shards);
            assert_eq!(
                out.audit_errors,
                Vec::<String>::new(),
                "trace {i}, K={shards}"
            );
            // Economics stay exact at every K: what was driven is
            // exactly what was planned, summed over shards.
            assert_eq!(
                out.metrics.driven_distance,
                out.total_assigned_distance(),
                "trace {i}, K={shards}: driven == planned"
            );
            // Every request gets exactly one terminal fate somewhere.
            assert_eq!(
                out.metrics.served + out.metrics.rejected + out.metrics.cancelled,
                out.metrics.requests,
                "trace {i}, K={shards}: terminal fates"
            );
            assert_eq!(out.metrics.requests, sc.requests.len());
            // Per-shard handoff ledgers balance the global count.
            let inflow: usize = out.shards.iter().map(|s| s.handoffs_in).sum();
            let outflow: usize = out.shards.iter().map(|s| s.handoffs_out).sum();
            assert_eq!(inflow, out.handoffs);
            assert_eq!(outflow, out.handoffs);
            // Quality is a recorded trade-off, not a silent one.
            println!(
                "trace {i} K={shards}: served {}/{} (K=1: {}), UC {} (K=1: {}), handoffs {}",
                out.metrics.served,
                out.metrics.requests,
                baseline.metrics.served,
                out.metrics.unified_cost.value(),
                baseline.metrics.unified_cost.value(),
                out.handoffs
            );
        }
    }
}

#[test]
fn borrowing_recovers_quality_where_strict_rejects() {
    // The case the Borrow probe exists for: the whole fleet starts in
    // one corner region while demand is city-wide, so every shard but
    // the corner one begins with no worker of its own. Borrowing must
    // migrate idle workers toward the stranded demand and serve some
    // of it.
    let mut sc = ScenarioBuilder::named("seam")
        .grid_city(12, 12)
        .workers(6)
        .requests(120)
        .horizon(40 * MINUTE_CS)
        .deadline_offset(8 * MINUTE_CS)
        .hotspots(4)
        .inter_region_trips(0.5)
        .seed(5)
        .build();
    // Park every worker on the bottom-left corner block (vertices
    // 0..6 of the row-major grid): shard 0 for every K tested.
    for (i, w) in sc.workers.iter_mut().enumerate() {
        w.origin = VertexId(i as u32);
    }
    for shards in [2usize, 4] {
        let mut service = open_sharded(&sc, shards);
        let corner = service.shard_of_vertex(VertexId(0));
        let mut away = Vec::new();
        for event in sc.event_stream() {
            if let PlatformEvent::RequestArrived(r) = event {
                if service.home_shard(&event) != Some(corner) {
                    away.push(r.id);
                }
            }
            service.submit(event);
        }
        let out = service.drain();
        assert!(out.audit_errors.is_empty(), "K={shards}");
        assert!(out.handoffs > 0, "K={shards}: no worker crossed a seam");
        let rescued = out
            .events
            .iter()
            .filter(|e| matches!(e, SimEvent::Assigned { r, .. } if away.contains(r)))
            .count();
        assert!(
            rescued > 0,
            "K={shards}: no request homed outside the corner shard was assigned"
        );
        println!(
            "K={shards}: served {}, {rescued} assignments away from the corner ({} handoffs)",
            out.metrics.served, out.handoffs
        );
    }
}
