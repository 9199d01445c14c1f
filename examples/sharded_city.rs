//! Drive a four-shard city through the geo-sharded dispatch plane:
//! the city is cut into a 2 × 2 lattice of territories, each with its
//! own platform and planner; cross-region demand pulls idle border
//! workers across the seams (the Borrow probe), and riders
//! cancel while the fleet churns — all through one `submit()` loop.
//!
//! ```sh
//! cargo run --release --example sharded_city
//! ```

use urpsm::prelude::*;

const SHARDS: usize = 4;

fn main() {
    // A four-hotspot city with commuter-style cross-region trips: the
    // demand shape that actually exercises shard seams. Riders cancel,
    // one worker departs mid-horizon, one joins.
    let scenario = ScenarioBuilder::named("sharded-city")
        .grid_city(14, 14)
        .workers(8)
        .requests(200)
        .horizon(45 * MINUTE_CS)
        .hotspots(4)
        .inter_region_trips(0.35)
        .rush_hour_skew(1.3)
        .cancel_rate(0.1)
        .cancel_delay(3 * MINUTE_CS)
        .fleet_churn(1, 1)
        .seed(2018)
        .build();

    let stream = scenario.event_stream();
    println!(
        "event trace: {} events ({} arrivals, {} cancellations, {} fleet changes)",
        stream.len(),
        scenario.requests.len(),
        scenario.cancellations.len(),
        scenario.fleet_events.len()
    );
    assert!(
        !scenario.cancellations.is_empty(),
        "trace must exercise cancellations"
    );

    let mut service = urpsm::sharded(&scenario, SHARDS, |_| Box::new(PruneGreedyDp::new()));
    let (kx, ky) = service.map().dims();
    println!("dispatch plane: {SHARDS} shards ({kx} × {ky} lattice), Borrow seams\n");

    // The live loop: every event is routed to its home shard; handoffs
    // show up in the merged log as a departure + a rejoin of the same
    // global worker at the same instant, into the arrival's home shard.
    let mut last_left: Option<(Time, WorkerId)> = None;
    for event in stream {
        let home = service.home_shard(&event);
        for reply in service.submit(event) {
            match *reply {
                SimEvent::WorkerLeft { t, w } => last_left = Some((t, w)),
                SimEvent::WorkerJoined { t, w } if last_left == Some((t, w)) => {
                    let home = home.expect("a handoff follows an arrival");
                    println!("t={t:>7}  {w} handed off across a seam into shard {home}");
                }
                _ => {}
            }
        }
    }
    let handoffs = service.handoffs();

    let outcome = service.drain();
    println!("\n{}", outcome.metrics);
    println!("cross-shard handoffs: {handoffs}");
    for report in &outcome.shards {
        let m = &report.outcome.metrics;
        println!(
            "  shard {}: {:>3} requests, served {:>3}, handoffs in/out {}/{}",
            report.shard, m.requests, m.served, report.handoffs_in, report.handoffs_out
        );
    }
    // Every request found its terminal fate in exactly one shard, and
    // the city-wide economics stayed exact through every handoff.
    assert_eq!(
        outcome.metrics.requests,
        outcome
            .shards
            .iter()
            .map(|s| s.outcome.metrics.requests)
            .sum(),
    );
    assert_eq!(
        outcome.metrics.driven_distance,
        outcome.total_assigned_distance()
    );
    assert!(
        outcome.audit_errors.is_empty(),
        "audit failed: {:?}",
        outcome.audit_errors
    );
    println!(
        "audit: clean across {} shards ({} merged events)",
        SHARDS,
        outcome.events.len()
    );
}
