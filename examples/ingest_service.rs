//! Run the ingestion service end to end: threaded producers feed a
//! day of demand through the mpsc front-end, the server micro-batches
//! it per tick with a WAL on, then a "crash" throws the in-memory
//! state away and `recover` rebuilds it from snapshot + WAL — landing
//! on the exact same platform, byte for byte.
//!
//! ```sh
//! cargo run --release --example ingest_service
//! ```

use urpsm::prelude::*;

fn main() {
    let scenario = ScenarioBuilder::named("ingest-demo")
        .grid_city(10, 10)
        .workers(6)
        .requests(120)
        .horizon(30 * MINUTE_CS)
        .cancel_rate(0.1)
        .fleet_churn(1, 1)
        .seed(2018)
        .build();
    let events = scenario.event_stream();
    let wal_dir = std::env::temp_dir().join(format!("urpsm-ingest-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let config = || ServerConfig {
        wal: Some(WalConfig::new(wal_dir.clone())),
        ..ServerConfig::default()
    };
    let backend = || {
        Backend::Sharded(urpsm::sharded(&scenario, 1, |_| {
            Box::new(PruneGreedyDp::new())
        }))
    };

    // Phase 1: ingest the first half from four producer threads, with
    // pre-stamped sends so the thread count can't change the run.
    let half = events.len() / 2;
    let mut server = IngestServer::new(backend(), config()).expect("open server");
    let feed = std::sync::Arc::new(events.clone());
    let mut producers = Vec::new();
    for t in 0..4usize {
        let tx = server.handle();
        let feed = std::sync::Arc::clone(&feed);
        producers.push(std::thread::spawn(move || {
            for (i, ev) in feed.iter().take(half).enumerate() {
                if i % 4 == t {
                    tx.send_stamped(i as u64, *ev).expect("server alive");
                }
            }
        }));
    }
    for p in producers {
        p.join().expect("producer");
    }
    while server.step().expect("tick").is_some() {}
    server.sync().expect("sync");
    let checkpoint_before = server.checkpoint();
    println!(
        "ingested {half} events from 4 producers: {} platform events, clock at t={}",
        checkpoint_before.events, checkpoint_before.last_time
    );

    // Phase 2: crash. The server is dropped mid-run — every in-memory
    // structure is gone; only the run directory remains.
    drop(server);
    println!(
        "crash! dropping the server; recovering from {}",
        wal_dir.display()
    );

    // Phase 3: recover and finish the day.
    let (server, report) = recover(backend(), config()).expect("recover");
    println!(
        "recovered {} events from {} WAL bytes (torn tail: {}, snapshot verified: {:?})",
        report.events_replayed, report.wal_bytes, report.torn_tail, report.snapshot_verified
    );
    assert_eq!(
        server.checkpoint(),
        checkpoint_before,
        "recovery must land on the exact pre-crash platform"
    );
    let tx = server.handle();
    for ev in events.iter().skip(report.events_replayed as usize) {
        tx.send(*ev).expect("server alive");
    }
    drop(tx);
    let outcome = server.finish().expect("finish");

    println!(
        "\nday complete: {} served, {} rejected, {} cancelled — {}",
        outcome.metrics.served,
        outcome.metrics.rejected,
        outcome.metrics.cancelled,
        outcome.metrics.unified_cost
    );
    if let Some(w) = outcome.wal {
        println!(
            "wal: {} records, {} bytes, {} snapshots",
            w.records, w.bytes, w.snapshots
        );
    }
    assert!(
        outcome.audit_errors.is_empty(),
        "{:?}",
        outcome.audit_errors
    );
    println!("audit: clean");
    let _ = std::fs::remove_dir_all(&wal_dir);
}
