//! Admission control under overload (DESIGN.md §9): when a shard
//! falls behind its tick budget, queue depth stays bounded, excess
//! arrivals are rejected with an explicit `Overloaded` reply — and the
//! whole overload episode is deterministic: the same event sequence
//! sheds the same requests no matter how many producer threads fed it.
//! Unbounded, the server sheds nothing and equals the plain service.

use urpsm::prelude::*;

fn scenario(seed: u64) -> Scenario {
    // A demand spike: many requests packed into a short horizon, so a
    // small tick budget genuinely falls behind.
    ScenarioBuilder::named("overload")
        .grid_city(10, 10)
        .workers(8)
        .requests(160)
        .horizon(10 * MINUTE_CS)
        .deadline_offset(8 * MINUTE_CS)
        .seed(seed)
        .build()
}

fn overloaded_config() -> ServerConfig {
    ServerConfig {
        admission: AdmissionConfig {
            queue_limit: 6,
            tick_budget: 9,
        },
        ..ServerConfig::default()
    }
}

fn run_with_producers(sc: &Scenario, producers: usize) -> (ServerOutcome, Vec<TickReport>) {
    let mut server = IngestServer::new(
        Backend::Sharded(urpsm::sharded(sc, 1, |_| Box::new(PruneGreedyDp::new()))),
        overloaded_config(),
    )
    .expect("open server");
    // Pre-stamped partitioned feed: thread t sends every
    // (i % producers == t)-th event under its stream index, so the
    // drained order is independent of the thread count.
    let events = std::sync::Arc::new(sc.event_stream());
    let mut threads = Vec::new();
    for t in 0..producers {
        let tx = server.handle();
        let events = std::sync::Arc::clone(&events);
        threads.push(std::thread::spawn(move || {
            for (i, ev) in events.iter().enumerate() {
                if i % producers == t {
                    tx.send_stamped(i as u64, *ev).expect("server alive");
                }
            }
        }));
    }
    for t in threads {
        t.join().expect("producer");
    }
    let mut reports = Vec::new();
    while let Some(r) = server.step().expect("tick") {
        reports.push(r);
    }
    (server.finish().expect("finish"), reports)
}

#[test]
fn overload_sheds_explicitly_and_keeps_queue_depth_bounded() {
    let sc = scenario(21);
    let (outcome, reports) = run_with_producers(&sc, 1);

    // The spike really overloads the server…
    assert!(
        outcome.sheds > 0,
        "budget 9/tick must fall behind the spike"
    );
    // …but the queue bound holds: this is an arrival-only stream, so
    // the backlog can never exceed the queue limit.
    assert!(
        outcome.peak_backlog <= 6,
        "peak backlog {} exceeded the queue limit",
        outcome.peak_backlog
    );
    for r in &reports {
        assert!(r.backlog <= 6, "tick {}: backlog {}", r.until, r.backlog);
    }

    // Every shed is an explicit reply naming the rejected request, and
    // a shed request never reached the platform.
    let shed: Vec<RequestId> = outcome
        .replies
        .iter()
        .filter_map(|r| match r {
            IngestReply::Overloaded { request, .. } => Some(*request),
            IngestReply::Service(_) => None,
        })
        .collect();
    assert_eq!(shed.len(), outcome.sheds);
    for reply in &outcome.replies {
        if let IngestReply::Service(SimEvent::Assigned { r, .. } | SimEvent::Rejected { r, .. }) =
            reply
        {
            assert!(
                !shed.contains(r),
                "request {r:?} was shed yet reached the planner"
            );
        }
    }

    // Conservation: every request got exactly one of the three fates.
    assert_eq!(
        outcome.metrics.served + outcome.metrics.rejected + outcome.sheds,
        sc.requests.len(),
        "served + rejected + shed must cover the stream"
    );
    assert!(
        outcome.audit_errors.is_empty(),
        "{:?}",
        outcome.audit_errors
    );
}

#[test]
fn overload_is_deterministic_across_producer_counts() {
    let sc = scenario(22);
    let (one, _) = run_with_producers(&sc, 1);
    let (four, _) = run_with_producers(&sc, 4);
    assert!(one.sheds > 0, "the episode must actually shed");
    assert_eq!(one.replies, four.replies, "reply log");
    assert_eq!(one.events, four.events, "event log");
    assert_eq!(one.sheds, four.sheds);
    assert_eq!(one.peak_backlog, four.peak_backlog);
    assert_eq!(
        one.metrics.unified_cost, four.metrics.unified_cost,
        "unified cost"
    );
}

/// Until its bounds are set the server is a transport, not a policy:
/// an unbounded `K = 1` server is byte-identical to feeding the same
/// stream straight into the plain service — event log, replies,
/// checkpoint and unified cost.
#[test]
fn unbounded_admission_never_sheds() {
    let sc = scenario(23);
    let events = sc.event_stream();

    let mut plain = urpsm::service(&sc, Box::new(PruneGreedyDp::new()));
    for &event in &events {
        plain.submit(event);
    }

    let mut server = IngestServer::new(
        Backend::Sharded(urpsm::sharded(&sc, 1, |_| Box::new(PruneGreedyDp::new()))),
        ServerConfig::default(),
    )
    .expect("open server");
    let tx = server.handle();
    for ev in &events {
        tx.send(*ev).expect("server alive");
    }
    drop(tx);
    while server.step().expect("tick").is_some() {}
    assert_eq!(server.checkpoint(), plain.checkpoint(), "checkpoint");
    let outcome = server.finish().expect("finish");

    assert_eq!(outcome.sheds, 0);
    assert_eq!(outcome.peak_backlog, 0);
    assert!(outcome.audit_errors.is_empty());
    let replies: Vec<SimEvent> = outcome
        .replies
        .iter()
        .map(|r| match r {
            IngestReply::Service(s) => *s,
            IngestReply::Overloaded { .. } => panic!("an unbounded server shed {r:?}"),
        })
        .collect();
    // A plain service's concatenated replies are its event log.
    assert_eq!(replies, plain.events(), "replies");
    let plain_outcome = plain.drain();
    assert_eq!(outcome.events, plain_outcome.events, "event log");
    assert_eq!(
        outcome.metrics.unified_cost, plain_outcome.metrics.unified_cost,
        "unified cost"
    );
}
