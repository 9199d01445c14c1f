//! Quickstart: plan a handful of shared rides in a toy grid city.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use urpsm::prelude::*;

fn main() {
    // A 12×12 grid city (144 intersections), 5 taxis, 60 ride requests
    // over one simulated hour.
    let scenario = ScenarioBuilder::named("quickstart")
        .grid_city(12, 12)
        .workers(5)
        .requests(60)
        .seed(2018)
        .build();
    println!(
        "city: {} vertices / {} edges — {} workers, {} requests",
        scenario.network.num_vertices(),
        scenario.network.num_edges(),
        scenario.workers.len(),
        scenario.requests.len()
    );

    // The paper's planner: decision phase + pruned greedy planning on
    // top of the linear-time DP insertion.
    let mut planner = PruneGreedyDp::new();
    let outcome = urpsm::simulate(&scenario, &mut planner);

    println!("planner: {}", planner.name());
    println!(
        "served {}/{} requests ({:.1}%)",
        outcome.metrics.served,
        outcome.metrics.requests,
        outcome.metrics.served_rate() * 100.0
    );
    println!("unified cost: {}", outcome.metrics.unified_cost);
    println!(
        "mean response time: {:?} per request",
        outcome.metrics.response_time()
    );
    assert!(
        outcome.audit_errors.is_empty(),
        "audit failed: {:?}",
        outcome.audit_errors
    );
    println!("audit: every deadline, capacity and precedence constraint verified ✓");

    // Peek at the first worker's final day.
    let agent = &outcome.state.agents()[0];
    println!("worker w0 drove {} time-units", agent.assigned_distance);
}
