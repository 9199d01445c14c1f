//! Ingestion-service throughput on the metropolis workload (DESIGN.md
//! §9): events/sec through the full `IngestServer` pipeline — stamp,
//! sort, admission, (optionally) WAL, submit — with the durability
//! cost read off the WAL-on vs WAL-off delta.
//!
//! One gate runs before any timing: at `K = 1` with admission left
//! unbounded and no WAL, the server must be **byte-identical** to
//! feeding the same stream straight into a plain `MobilityService` —
//! same event log, same replies, same unified cost, same checkpoint
//! digest. The server is a transport, not a policy, until its bounds
//! are set.
//!
//! The workload is the `metropolis` preset (1M requests / 100k workers
//! over a 24h day) divided by `--scale` (default 100, or the
//! `URPSM_INGEST_SCALE` env var; CI smokes at 100). The city never
//! shrinks — only demand does — so per-event costs stay representative
//! across scales.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use urpsm_core::event::PlatformEvent;
use urpsm_core::planner::{Planner, PruneGreedyDp};
use urpsm_dispatch::service::{ShardConfig, ShardedService};
use urpsm_server::server::{
    sim_config, Backend, IngestReply, IngestServer, ServerConfig, WalConfig,
};
use urpsm_simulator::service::MobilityService;
use urpsm_workloads::scenario::{metropolis, Scenario};

fn build_backend(scenario: &Scenario, shards: usize) -> Backend<'static> {
    Backend::Sharded(ShardedService::new(
        scenario.oracle.clone(),
        scenario.workers.clone(),
        |_| Box::new(PruneGreedyDp::new()) as Box<dyn Planner>,
        ShardConfig {
            shards,
            sim: sim_config(scenario),
        },
        scenario.start_time(),
    ))
}

struct Row {
    shards: usize,
    wal: bool,
    events: usize,
    events_per_sec: f64,
    wal_bytes: u64,
    unified_cost: u64,
}

fn run_row(
    scenario: &Scenario,
    events: &Arc<Vec<PlatformEvent>>,
    shards: usize,
    wal_dir: Option<PathBuf>,
) -> Row {
    let with_wal = wal_dir.is_some();
    let server = IngestServer::new(
        build_backend(scenario, shards),
        ServerConfig {
            wal: wal_dir.clone().map(WalConfig::new),
            ..ServerConfig::default()
        },
    )
    .expect("open server");
    let t0 = Instant::now();
    let outcome = server.run(events.iter().copied()).expect("run server");
    let secs = t0.elapsed().as_secs_f64();
    assert!(
        outcome.audit_errors.is_empty(),
        "audit errors at K={shards}: {:?}",
        outcome.audit_errors
    );
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Row {
        shards,
        wal: with_wal,
        events: events.len(),
        events_per_sec: events.len() as f64 / secs.max(1e-9),
        wal_bytes: outcome.wal.map(|w| w.bytes).unwrap_or(0),
        unified_cost: outcome.metrics.unified_cost.value(),
    }
}

/// Gate: unbounded K=1 server ≡ plain `MobilityService` over the same
/// stream — log, replies, cost and digest all byte-identical.
fn gate_byte_identity(scenario: &Scenario, events: &Arc<Vec<PlatformEvent>>) {
    let mut plain = MobilityService::new(
        scenario.oracle.clone(),
        scenario.workers.clone(),
        Box::new(PruneGreedyDp::new()),
        sim_config(scenario),
        scenario.start_time(),
    );
    let plain_replies = plain.submit_all(events.iter().copied());
    let plain_checkpoint = plain.checkpoint();
    let plain_outcome = plain.drain();

    let server = IngestServer::new(build_backend(scenario, 1), ServerConfig::default())
        .expect("open server");
    let tx = server.handle();
    for ev in events.iter() {
        tx.send(*ev).expect("server alive");
    }
    drop(tx);
    let mut server = server;
    while server.step().expect("tick").is_some() {}
    assert_eq!(
        server.checkpoint(),
        plain_checkpoint,
        "server checkpoint diverged from plain service"
    );
    let outcome = server.finish().expect("drain server");
    assert_eq!(
        outcome.events, plain_outcome.events,
        "server event log diverged from plain service"
    );
    let served_replies: Vec<_> = outcome
        .replies
        .iter()
        .map(|r| match r {
            IngestReply::Service(s) => *s,
            IngestReply::Overloaded { .. } => panic!("unbounded server shed an event"),
        })
        .collect();
    assert_eq!(
        served_replies, plain_replies,
        "server replies diverged from plain service"
    );
    assert_eq!(
        outcome.metrics.unified_cost, plain_outcome.metrics.unified_cost,
        "server unified cost diverged from plain service"
    );
    eprintln!(
        "gate: K=1 server byte-identical to plain service over {} events",
        events.len()
    );
}

fn write_json(path: &str, scale: usize, scenario: &Scenario, rows: &[Row]) {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = format!(
        "{{\n  \"bench\": \"ingest\",\n  \"meta\": {{\"available_parallelism\": {cpus}, \
         \"scale\": {scale}, \"workers\": {}, \"requests\": {}}},\n  \"results\": [\n",
        scenario.workers.len(),
        scenario.requests.len(),
    );
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shards\": {}, \"wal\": {}, \"events\": {}, \
             \"events_per_sec\": {:.1}, \"wal_bytes\": {}, \"unified_cost\": {}}}{}\n",
            row.shards,
            row.wal,
            row.events,
            row.events_per_sec,
            row.wal_bytes,
            row.unified_cost,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    // Embed the metrics snapshot (all zeros unless built with
    // --features urpsm-obs/record and the URPSM_OBS gate open).
    out.push_str(&format!(
        "  ],\n  \"metrics_snapshot\": {}\n}}\n",
        urpsm_bench::obs_snapshot_json()
    ));
    std::fs::write(path, out).expect("write --json artifact");
    eprintln!("ingest bench: wrote {path}");
}

fn main() {
    // Criterion-compatible argument surface: swallow harness flags,
    // honor `--json <path>` and `--scale <div>`.
    let mut json: Option<String> = None;
    let mut scale: usize = std::env::var("URPSM_INGEST_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = args.next(),
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--scale takes a positive integer");
            }
            "--measurement-time" | "--warm-up-time" | "--sample-size" => {
                args.next();
            }
            _ => {}
        }
    }
    let scale = scale.max(1);

    let t0 = Instant::now();
    let scenario = metropolis(7)
        .requests((1_000_000 / scale).max(1))
        .workers((100_000 / scale).max(1))
        .build();
    let events: Arc<Vec<PlatformEvent>> = Arc::new(scenario.event_stream());
    eprintln!(
        "metropolis ÷{scale}: {} vertices, {} workers, {} events ({:.1?} to build)",
        scenario.network.num_vertices(),
        scenario.workers.len(),
        events.len(),
        t0.elapsed()
    );

    gate_byte_identity(&scenario, &events);

    let wal_root = std::env::temp_dir().join(format!("urpsm-ingest-bench-{}", std::process::id()));
    let mut rows = Vec::new();
    for (shards, wal) in [(1, false), (1, true), (4, false), (4, true)] {
        let dir = wal.then(|| wal_root.join(format!("k{shards}")));
        rows.push(run_row(&scenario, &events, shards, dir));
    }
    let _ = std::fs::remove_dir_all(&wal_root);

    eprintln!(
        "{:>6} {:>5} {:>9} {:>13} {:>12} {:>14}",
        "shards", "wal", "events", "events/sec", "wal bytes", "unified cost"
    );
    for row in &rows {
        eprintln!(
            "{:>6} {:>5} {:>9} {:>13.0} {:>12} {:>14}",
            row.shards, row.wal, row.events, row.events_per_sec, row.wal_bytes, row.unified_cost
        );
    }
    // WAL on/off at the same K must agree on the outcome — durability
    // is logging, not policy.
    for k in [1, 4] {
        let costs: Vec<u64> = rows
            .iter()
            .filter(|r| r.shards == k)
            .map(|r| r.unified_cost)
            .collect();
        assert!(
            costs.windows(2).all(|w| w[0] == w[1]),
            "WAL changed the outcome at K={k}: {costs:?}"
        );
    }

    if let Some(path) = json {
        write_json(&path, scale, &scenario, &rows);
    }
}
