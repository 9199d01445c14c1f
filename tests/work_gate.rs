//! The work gate: the decision phase's exact bounds, counted.
//!
//! `pruneGreedyDP` plans two `chengdu_like(7)` streams through
//! `MobilityService` — the preset as it is (200 workers, 3 000
//! requests), and the repo benchmark's `chengdu-dense` input (600
//! workers, 5 000 requests, 25-minute deadlines) — and the test pins,
//! to the unit, how many busy candidates `insertion_lower_bound`
//! evaluated, how many route positions those evaluations visited, and
//! how many `dis` queries the run made. The counts are deterministic,
//! so a change to how much work a request costs shows up here as an
//! edited constant, resolved without a wall-clock measurement. A
//! change that moves the `dis` count or the served count has changed
//! more than the bounds phase.

use std::sync::Arc;

use urpsm::core::decision::BoundWork;
use urpsm::core::planner::PruneGreedyDp;
use urpsm::network::oracle::{CountingOracle, DistanceOracle};
use urpsm::prelude::*;
use urpsm::workloads::scenario::chengdu_like;

/// What one stream cost: served requests, `dis` queries, and the
/// `(evaluations, positions)` of the exact bounds.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    served: usize,
    dis: u64,
    exact: u64,
    positions: u64,
}

fn work(sc: &Scenario) -> Work {
    let counting = Arc::new(CountingOracle::new(sc.oracle.clone()));
    let mut planner = PruneGreedyDp::new();
    let mut service = MobilityService::new(
        counting.clone() as Arc<dyn DistanceOracle>,
        sc.workers.clone(),
        Box::new(&mut planner),
        SimConfig {
            grid_cell_m: sc.grid_cell_m,
            alpha: sc.alpha,
            ..SimConfig::default()
        },
        sc.start_time(),
    );
    for r in &sc.requests {
        service.submit(PlatformEvent::RequestArrived(*r));
    }
    let out = service.drain();
    assert_eq!(out.audit_errors, Vec::<String>::new());
    let BoundWork { exact, positions } = planner.bound_work();
    Work {
        served: out.metrics.served,
        dis: counting.stats().dis,
        exact,
        positions,
    }
}

#[test]
fn the_preset_stream_costs_a_pinned_number_of_exact_bounds() {
    let sc = chengdu_like(7).build();
    let want = Work {
        served: 2_644,
        dis: 148_385,
        exact: 122_068,
        positions: 485_759,
    };
    assert_eq!(work(&sc), want);
}

#[test]
fn the_dense_stream_costs_a_pinned_number_of_exact_bounds() {
    let sc = chengdu_like(7)
        .workers(600)
        .requests(5_000)
        .deadline_offset(25 * MINUTE_CS)
        .build();
    let want = Work {
        served: 5_000,
        dis: 662_771,
        exact: 309_079,
        positions: 2_563_943,
    };
    assert_eq!(work(&sc), want);
}
