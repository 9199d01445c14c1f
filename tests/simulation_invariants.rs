//! Whole-system invariants on realistic scenarios: cost accounting is
//! exact, events reconstruct the unified cost, and both city presets
//! drive every planner cleanly.

use std::collections::HashMap;

use urpsm::baselines::prelude::*;
use urpsm::prelude::*;

fn small_city(seed: u64) -> Scenario {
    ScenarioBuilder::named("inv")
        .grid_city(12, 12)
        .workers(8)
        .requests(180)
        .horizon(45 * MINUTE_CS)
        .seed(seed)
        .build()
}

/// Recompute the unified cost purely from the event log + request set
/// and compare with the platform's accounting.
#[test]
fn unified_cost_reconstructs_from_events() {
    let sc = small_city(17);
    let mut planner = PruneGreedyDp::new();
    let out = urpsm::simulate(&sc, &mut planner);
    assert!(out.audit_errors.is_empty());

    let by_id: HashMap<RequestId, &Request> = sc.requests.iter().map(|r| (r.id, r)).collect();
    let mut penalty = 0u64;
    let mut delta_sum = 0u64;
    for ev in &out.events {
        match ev {
            SimEvent::Rejected { r, .. } => penalty += by_id[r].penalty,
            SimEvent::Assigned { delta, .. } => delta_sum += delta,
            _ => {}
        }
    }
    assert_eq!(out.metrics.unified_cost.total_penalty, penalty);
    assert_eq!(out.metrics.unified_cost.total_distance, delta_sum);
    assert_eq!(
        out.metrics.unified_cost.value(),
        sc.alpha * delta_sum + penalty
    );
}

/// Served requests ride within their deadline; their ride time is at
/// least the direct shortest time (no teleporting).
#[test]
fn ride_times_are_physical() {
    let sc = small_city(23);
    let mut planner = GreedyDp::new();
    let out = urpsm::simulate(&sc, &mut planner);
    assert!(out.audit_errors.is_empty());

    let by_id: HashMap<RequestId, &Request> = sc.requests.iter().map(|r| (r.id, r)).collect();
    let mut pickups: HashMap<RequestId, Time> = HashMap::new();
    let mut count = 0;
    for ev in &out.events {
        match ev {
            SimEvent::Pickup { t, r, .. } => {
                pickups.insert(*r, *t);
            }
            SimEvent::Delivery { t, r, .. } => {
                let req = by_id[r];
                let picked = pickups[r];
                let direct = sc.oracle.dis(req.origin, req.destination);
                assert!(*t >= picked + direct, "{r}: rode faster than shortest path");
                assert!(*t <= req.deadline, "{r}: late delivery");
                assert!(picked >= req.release, "{r}: picked before release");
                count += 1;
            }
            _ => {}
        }
    }
    assert_eq!(count, out.metrics.served, "every served request completed");
}

/// Both city presets run every planner cleanly (reduced sizes).
#[test]
fn city_presets_run_all_planners() {
    let cities = [
        urpsm::workloads::scenario::nyc_like(4)
            .grid_city(16, 16)
            .workers(15)
            .requests(150)
            .build(),
        urpsm::workloads::scenario::chengdu_like(4)
            .ring_city(8, 16)
            .workers(10)
            .requests(120)
            .build(),
    ];
    for sc in &cities {
        let mut planners: Vec<Box<dyn Planner>> = vec![
            Box::new(TSharePlanner::new()),
            Box::new(KineticPlanner::new()),
            Box::new(BatchPlanner::new()),
            Box::new(PruneGreedyDp::new()),
        ];
        for p in &mut planners {
            let out = urpsm::simulate(sc, p.as_mut());
            assert!(
                out.audit_errors.is_empty(),
                "{} on {}: {:?}",
                p.name(),
                sc.name,
                out.audit_errors
            );
        }
    }
}

/// More workers ⇒ unified cost can only improve (weakly) for the same
/// stream — the monotonicity behind Fig. 3's downward curves.
#[test]
fn more_workers_weakly_helps() {
    // Use identical request streams: build the big scenario, then
    // truncate its worker list for the small run.
    let big = ScenarioBuilder::named("mono")
        .grid_city(12, 12)
        .workers(16)
        .requests(200)
        .horizon(30 * MINUTE_CS)
        .seed(77)
        .build();
    let mut small_workers = big.workers.clone();
    small_workers.truncate(4);

    let run = |workers: Vec<Worker>| {
        let mut service = MobilityService::new(
            big.oracle.clone(),
            workers,
            Box::new(PruneGreedyDp::new()),
            SimConfig::default(),
            big.requests.first().map_or(0, |r| r.release),
        );
        for r in &big.requests {
            service.submit(PlatformEvent::RequestArrived(*r));
        }
        service.drain().metrics
    };
    let m_small = run(small_workers);
    let m_big = run(big.workers.clone());
    // Not a theorem for greedy algorithms, but overwhelmingly true at
    // this density; treat a large regression as a bug signal.
    assert!(
        m_big.unified_cost.value() <= m_small.unified_cost.value() * 11 / 10,
        "16 workers much worse than 4: {} vs {}",
        m_big.unified_cost.value(),
        m_small.unified_cost.value()
    );
    assert!(m_big.served >= m_small.served);
}
