//! The event-driven `MobilityService` fed a scenario's whole event
//! stream against `urpsm::simulate`, its arrival-only loop, plus
//! lifecycle invariants under cancellations and fleet churn.
//!
//! * **Replay equivalence** — for cancellation-free streams, a service
//!   opened with `urpsm::service` and fed every `PlatformEvent` of
//!   `Scenario::event_stream` one at a time must reproduce the
//!   `urpsm::simulate` run, which submits the arrivals only, *byte for
//!   byte*: same event log, same served/rejected counts, same unified
//!   cost, same driven distance (wall-clock planning time is the one
//!   legitimately nondeterministic field).
//! * **Lifecycle invariants** (property-tested) — a cancelled request
//!   is never delivered, every arrival gets exactly one terminal fate,
//!   the independent audit stays clean under worker churn, and the
//!   driven-equals-planned accounting survives route surgery.

use proptest::prelude::*;

use urpsm::baselines::prelude::*;
use urpsm::prelude::*;

fn scenario(seed: u64, cancel_rate: f64, departures: usize, arrivals: usize) -> Scenario {
    ScenarioBuilder::named("replay")
        .grid_city(10, 10)
        .workers(6)
        .requests(140)
        .horizon(35 * MINUTE_CS)
        .deadline_offset(8 * MINUTE_CS)
        .cancel_rate(cancel_rate)
        .cancel_delay(3 * MINUTE_CS)
        .fleet_churn(departures, arrivals)
        .seed(seed)
        .build()
}

/// Zeroes the wall-clock field so metrics compare structurally.
fn normalized(mut m: SimMetrics) -> SimMetrics {
    m.planning_time = std::time::Duration::ZERO;
    m
}

fn run_streamed(sc: &Scenario, planner: Box<dyn Planner + '_>) -> SimOutcome {
    let mut service = urpsm::service(sc, planner);
    for event in sc.event_stream() {
        service.submit(event);
    }
    service.drain()
}

#[test]
fn event_stream_replay_matches_the_arrival_loop() {
    for seed in [3u64, 17, 2018] {
        let sc = scenario(seed, 0.0, 0, 0);

        // The paper's planner and the batch baseline (which exercises
        // the wake-up/epoch machinery) must both replay identically.
        let mut dp = PruneGreedyDp::new();
        let looped = urpsm::simulate(&sc, &mut dp);
        let streamed = run_streamed(&sc, Box::new(PruneGreedyDp::new()));
        assert_eq!(looped.events, streamed.events, "seed {seed}: event log");
        assert_eq!(
            normalized(looped.metrics),
            normalized(streamed.metrics),
            "seed {seed}: metrics"
        );
        assert!(streamed.audit_errors.is_empty(), "seed {seed}");

        let mut batch = BatchPlanner::new();
        let looped = urpsm::simulate(&sc, &mut batch);
        let streamed = run_streamed(&sc, Box::new(BatchPlanner::new()));
        assert_eq!(
            looped.events, streamed.events,
            "seed {seed}: batch event log"
        );
        assert_eq!(
            normalized(looped.metrics),
            normalized(streamed.metrics),
            "seed {seed}: batch metrics"
        );
    }
}

#[test]
fn borrowed_planner_keeps_statistics_readable() {
    // The `impl Planner for &mut P` adapter: lend the planner to the
    // service, read its counters afterwards.
    let sc = scenario(5, 0.0, 0, 0);
    let mut planner = KineticPlanner::new();
    let outcome = run_streamed(&sc, Box::new(&mut planner));
    assert!(outcome.audit_errors.is_empty());
    // The planner is still ours: its overflow statistic is readable.
    let _ = planner.overflow_count();
}

#[test]
fn mixed_trace_with_all_planners_stays_clean() {
    let sc = scenario(2018, 0.15, 1, 1);
    assert!(sc.cancellations.len() >= 2);
    let planners: Vec<Box<dyn Planner>> = vec![
        Box::new(PruneGreedyDp::new()),
        Box::new(GreedyDp::new()),
        Box::new(TSharePlanner::new()),
        Box::new(KineticPlanner::new()),
        Box::new(BatchPlanner::new()),
    ];
    for planner in planners {
        let name = planner.name();
        let out = run_streamed(&sc, planner);
        assert!(
            out.audit_errors.is_empty(),
            "{name}: {:?}",
            out.audit_errors
        );
        assert_eq!(
            out.metrics.served + out.metrics.rejected + out.metrics.cancelled,
            out.metrics.requests,
            "{name}: every request needs a terminal fate"
        );
        assert_eq!(
            out.metrics.driven_distance,
            out.state.total_assigned_distance(),
            "{name}: driven must equal planned after route surgery"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cancelled requests never end up served, and the audit stays
    /// clean across random cancellation/churn mixes and both departure
    /// policies.
    #[test]
    fn lifecycle_invariants_hold(
        seed in 0u64..1_000,
        cancel_pct in 0u32..30,
        departures in 0usize..3,
        arrivals in 0usize..3,
        drain_policy in any::<bool>(),
    ) {
        let sc = ScenarioBuilder::named("prop")
            .grid_city(8, 8)
            .workers(5)
            .requests(80)
            .horizon(25 * MINUTE_CS)
            .cancel_rate(f64::from(cancel_pct) / 100.0)
            .cancel_delay(2 * MINUTE_CS)
            .fleet_churn(departures, arrivals)
            .departure_policy(if drain_policy {
                ReassignPolicy::Drain
            } else {
                ReassignPolicy::Reassign
            })
            .seed(seed)
            .build();
        let out = run_streamed(&sc, Box::new(PruneGreedyDp::new()));

        prop_assert!(out.audit_errors.is_empty(), "audit: {:?}", out.audit_errors);

        // A cancellation is terminal: no delivery may follow, and the
        // request must not be counted served.
        let cancelled: Vec<RequestId> = out
            .events
            .iter()
            .filter_map(|e| match e {
                SimEvent::Cancelled { r, .. } => Some(*r),
                _ => None,
            })
            .collect();
        prop_assert_eq!(cancelled.len(), out.metrics.cancelled);
        for r in &cancelled {
            prop_assert!(
                !out.events.iter().any(|e| matches!(e,
                    SimEvent::Delivery { r: dr, .. } if dr == r)),
                "{r} cancelled yet delivered"
            );
            prop_assert!(out.state.cancelled().contains(r));
        }

        // Terminal-fate accounting and exact distance bookkeeping.
        prop_assert_eq!(
            out.metrics.served + out.metrics.rejected + out.metrics.cancelled,
            out.metrics.requests
        );
        prop_assert_eq!(
            out.metrics.driven_distance,
            out.state.total_assigned_distance()
        );
    }
}
