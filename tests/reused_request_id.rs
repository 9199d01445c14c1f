//! A reused `RequestId` is decided once (DESIGN.md §1).
//!
//! A producer or a WAL can deliver an arrival under an id the platform
//! has already seen: the same trip sent twice, or another trip under a
//! used id. The first arrival of an id is the request; a later one is
//! contained the way a malformed join is — the clock advances, nothing
//! else happens, there is no reply — so no request is decided twice,
//! no served request is also charged its penalty, and the audit stays
//! clean. Checked through each front a stream can enter by:
//! `MobilityService`, `ShardedService` at K = 1 and K = 4, and
//! `IngestServer` with the WAL on, live and recovered.

use std::collections::HashMap;
use std::path::PathBuf;

use urpsm::prelude::*;

fn scenario() -> Scenario {
    ScenarioBuilder::named("reused-id")
        .grid_city(8, 8)
        .workers(6)
        .requests(60)
        .horizon(30 * MINUTE_CS)
        .deadline_offset(8 * MINUTE_CS)
        .cancel_rate(0.15)
        .cancel_delay(3 * MINUTE_CS)
        .seed(42)
        .build()
}

/// The scenario's stream with two reused ids spliced in — r5's own
/// arrival sent again a third of the way in, and r9's endpoints under
/// r3's id two thirds of the way in, each stamped with the time of the
/// event it follows — and the reference stream, where each of the two
/// is a `Tick` at that time instead.
fn streams(sc: &Scenario) -> (Vec<PlatformEvent>, Vec<PlatformEvent>) {
    let base = sc.event_stream();
    let request = |id: u32| {
        *sc.requests
            .iter()
            .find(|r| r.id == RequestId(id))
            .expect("the stream has the request")
    };
    let mut reused = Vec::with_capacity(base.len() + 2);
    let mut reference = Vec::with_capacity(base.len() + 2);
    for (i, &ev) in base.iter().enumerate() {
        reused.push(ev);
        reference.push(ev);
        let copy = if i == base.len() / 3 {
            request(5)
        } else if i == 2 * base.len() / 3 {
            Request {
                id: RequestId(3),
                ..request(9)
            }
        } else {
            continue;
        };
        let at = ev.time();
        let shift = at.saturating_sub(copy.release);
        reused.push(PlatformEvent::RequestArrived(Request {
            release: at,
            deadline: copy.deadline + shift,
            ..copy
        }));
        reference.push(PlatformEvent::Tick { at });
    }
    (reused, reference)
}

/// Every request of the scenario has exactly one decision in `events`.
fn decided_once(tag: &str, sc: &Scenario, events: &[SimEvent]) {
    let mut decisions: HashMap<RequestId, usize> = HashMap::new();
    for ev in events {
        if let SimEvent::Assigned { r, .. } | SimEvent::Rejected { r, .. } = *ev {
            *decisions.entry(r).or_default() += 1;
        }
    }
    for r in &sc.requests {
        assert_eq!(decisions.get(&r.id), Some(&1), "{tag}: {:?}", r.id);
    }
    assert_eq!(decisions.len(), sc.requests.len(), "{tag}");
}

#[test]
fn the_plain_service_decides_a_reused_id_once() {
    let sc = scenario();
    let (reused, reference) = streams(&sc);
    let run = |stream: &[PlatformEvent]| {
        let mut service = urpsm::service(&sc, Box::new(PruneGreedyDp::new()));
        for &ev in stream {
            service.submit(ev);
        }
        service.drain()
    };
    let (out, want) = (run(&reused), run(&reference));
    assert_eq!(out.audit_errors, Vec::<String>::new());
    decided_once("plain", &sc, &out.events);
    // A contained arrival is its time advance and nothing more.
    assert_eq!(out.events, want.events);
    assert_eq!(out.metrics.requests, sc.requests.len());
    assert_eq!(out.metrics.unified_cost, want.metrics.unified_cost);
}

#[test]
fn the_sharded_service_decides_a_reused_id_once() {
    let sc = scenario();
    let (reused, _) = streams(&sc);
    let plain = {
        let mut service = urpsm::service(&sc, Box::new(PruneGreedyDp::new()));
        for &ev in &reused {
            service.submit(ev);
        }
        service.drain()
    };
    for shards in [1, 4] {
        let mut service = urpsm::sharded(&sc, shards, |_| Box::new(PruneGreedyDp::new()));
        for &ev in &reused {
            service.submit(ev);
        }
        let out = service.drain();
        assert_eq!(out.audit_errors, Vec::<String>::new(), "K = {shards}");
        decided_once(&format!("K = {shards}"), &sc, &out.events);
        assert_eq!(out.metrics.requests, sc.requests.len(), "K = {shards}");
        if shards == 1 {
            assert_eq!(out.events, plain.events, "K = 1 is the plain service");
        }
    }
}

#[test]
fn the_ingest_server_decides_a_reused_id_once_live_and_recovered() {
    let sc = scenario();
    let (reused, _) = streams(&sc);
    for shards in [1, 4] {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("urpsm-reused-id-{}-{shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || ServerConfig {
            wal: Some(WalConfig {
                dir: dir.clone(),
                snapshot_every: 8,
            }),
            ..ServerConfig::default()
        };
        let backend = || {
            Backend::Sharded(urpsm::sharded(&sc, shards, |_| {
                Box::new(PruneGreedyDp::new())
            }))
        };
        let live = IngestServer::new(backend(), config())
            .expect("open server")
            .run(reused.iter().copied())
            .expect("run");
        assert_eq!(live.audit_errors, Vec::<String>::new(), "K = {shards}");
        decided_once(&format!("live K = {shards}"), &sc, &live.events);

        // The WAL holds every event, the reused arrivals too; replaying
        // it contains them again and rebuilds the live run.
        let (server, report) = recover(backend(), config()).expect("recover");
        assert_eq!(report.events_replayed, reused.len() as u64, "K = {shards}");
        let recovered = server.finish().expect("finish");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(recovered.audit_errors, Vec::<String>::new(), "K = {shards}");
        assert_eq!(recovered.events, live.events, "K = {shards}");
        assert_eq!(
            recovered.metrics.unified_cost, live.metrics.unified_cost,
            "K = {shards}"
        );
    }
}
