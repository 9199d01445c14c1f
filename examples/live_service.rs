//! Drive the event-driven `MobilityService` from an interleaved trace:
//! request arrivals, rider cancellations, and fleet churn (a worker
//! joining mid-day, another departing with its un-picked requests
//! handed back through the planner) — all through one `submit()` loop,
//! exactly the shape of a live ingestion path.
//!
//! ```sh
//! cargo run --release --example live_service
//! ```

use urpsm::prelude::*;

fn describe(ev: &SimEvent) -> String {
    match *ev {
        SimEvent::Assigned { t, r, w, delta } => {
            format!("t={t:>7}  {r} assigned to {w} (Δ* = {delta})")
        }
        SimEvent::Rejected { t, r } => format!("t={t:>7}  {r} rejected"),
        SimEvent::Pickup { t, r, w } => format!("t={t:>7}  {w} picked up {r}"),
        SimEvent::Delivery { t, r, w } => format!("t={t:>7}  {w} delivered {r}"),
        SimEvent::Cancelled { t, r, freed } => {
            format!("t={t:>7}  {r} cancelled by rider (freed {freed})")
        }
        SimEvent::Unassigned { t, r, w, freed } => {
            format!("t={t:>7}  {r} handed back by departing {w} (freed {freed})")
        }
        SimEvent::WorkerJoined { t, w } => format!("t={t:>7}  {w} joined the fleet"),
        SimEvent::WorkerLeft { t, w } => format!("t={t:>7}  {w} left the fleet"),
    }
}

fn main() {
    // A mid-size grid city with riders that sometimes cancel and a
    // fleet that churns: one worker leaves mid-horizon (handing its
    // un-picked requests back through the planner), one joins.
    let scenario = ScenarioBuilder::named("live-service")
        .grid_city(12, 12)
        .workers(6)
        .requests(160)
        .horizon(40 * MINUTE_CS)
        .cancel_rate(0.12)
        .cancel_delay(3 * MINUTE_CS)
        .fleet_churn(1, 1)
        .departure_policy(ReassignPolicy::Reassign)
        .seed(2018)
        .build();

    let stream = scenario.event_stream();
    let cancels = scenario.cancellations.len();
    println!(
        "event trace: {} events ({} arrivals, {} cancellations, {} fleet changes)\n",
        stream.len(),
        scenario.requests.len(),
        cancels,
        scenario.fleet_events.len()
    );
    assert!(cancels >= 2, "trace must exercise cancellations");

    let mut service = urpsm::service(&scenario, Box::new(PruneGreedyDp::new()));

    // The live loop: one event in, a batch of consequences out. Only
    // lifecycle moments are printed; steady-state decisions are tallied.
    let mut shown = 0usize;
    for event in stream {
        for reply in service.submit(event) {
            let lifecycle = matches!(
                reply,
                SimEvent::Cancelled { .. }
                    | SimEvent::Unassigned { .. }
                    | SimEvent::WorkerJoined { .. }
                    | SimEvent::WorkerLeft { .. }
            );
            if lifecycle && shown < 40 {
                println!("{}", describe(reply));
                shown += 1;
            }
        }
    }

    let outcome = service.drain();
    println!("\n{}", outcome.metrics);
    println!(
        "completed deliveries: {}   freed by cancellation: {}",
        outcome.state.completed_count(),
        outcome.state.cancelled_count()
    );
    assert!(
        outcome.audit_errors.is_empty(),
        "audit failed: {:?}",
        outcome.audit_errors
    );
    println!("audit: clean ({} events checked)", outcome.events.len());
}
