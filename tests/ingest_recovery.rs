//! Crash-recovery determinism for the ingestion service (DESIGN.md
//! §9): kill a server at an arbitrary event index, recover from
//! snapshot + WAL, and the completed run must be **byte-identical** —
//! event log, every reply, audit verdict, unified cost — to a run
//! that never crashed. Pinned at `K = 1` and `K = 4` on the library
//! defaults and at the far corner of the configuration lattice (see
//! [`CONFIGS`]), with torn-tail and bit-flipped WAL corruption on top.
//! At each of them a run without a WAL equals the logged run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use urpsm::prelude::*;

/// One backend configuration: the shard count, and whether everything
/// else is switched on too — the no-op planner width knob at 4, a
/// congested day routed through the TD oracle, and the mixed fleet.
#[derive(Debug, Clone, Copy)]
struct Config {
    shards: usize,
    everything_on: bool,
}

const CONFIGS: [Config; 3] = [
    Config {
        shards: 1,
        everything_on: false,
    },
    Config {
        shards: 4,
        everything_on: false,
    },
    Config {
        shards: 4,
        everything_on: true,
    },
];

fn scenario(seed: u64, cfg: Config) -> Scenario {
    let builder = ScenarioBuilder::named("recovery")
        .grid_city(10, 10)
        .workers(6)
        .requests(90)
        .horizon(30 * MINUTE_CS)
        .deadline_offset(8 * MINUTE_CS)
        .cancel_rate(0.15)
        .cancel_delay(3 * MINUTE_CS)
        .fleet_churn(1, 2)
        .seed(seed);
    if !cfg.everything_on {
        return builder.build();
    }
    // The two-peak day compressed to 20 minutes, so the half-hour
    // stream crosses every bucket boundary.
    let wave = CongestionProfile::uniform("wave", 5 * MINUTE_CS, &[1.0, 1.3, 1.7, 1.2])
        .expect("well-formed profile");
    builder
        .congestion(wave)
        .fleet_mix(FleetMix::mixed())
        .build()
}

fn backend(sc: &Scenario, cfg: Config) -> Backend<'static> {
    if cfg.everything_on {
        Backend::Sharded(ShardedService::new(
            sc.oracle.clone(),
            sc.workers.clone(),
            |_| Box::new(PruneGreedyDp::with_threads(4)),
            ShardConfig {
                shards: cfg.shards,
                sim: SimConfig {
                    td_oracle: true,
                    ..sim_config(sc)
                },
            },
            sc.start_time(),
        ))
    } else {
        Backend::Sharded(urpsm::sharded(sc, cfg.shards, |_| {
            Box::new(PruneGreedyDp::new())
        }))
    }
}

fn wal_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "urpsm-recovery-{}-{}-{}",
        std::process::id(),
        tag,
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        wal: Some(WalConfig {
            dir: dir.to_path_buf(),
            snapshot_every: 8,
        }),
        ..ServerConfig::default()
    }
}

/// Zeroes the wall-clock field so metrics compare structurally.
fn normalized(mut m: SimMetrics) -> SimMetrics {
    m.planning_time = std::time::Duration::ZERO;
    m
}

/// The uninterrupted reference run (WAL on, like the crashed runs).
fn baseline(sc: &Scenario, cfg: Config, dir: &std::path::Path) -> ServerOutcome {
    let server = IngestServer::new(backend(sc, cfg), config(dir)).expect("open server");
    let outcome = server.run(sc.event_stream()).expect("run");
    assert!(
        outcome.audit_errors.is_empty(),
        "{:?}",
        outcome.audit_errors
    );
    let _ = std::fs::remove_dir_all(dir);
    outcome
}

/// Feeds the first `k` events, syncs, and "crashes" (drops the server
/// without draining). Returns nothing — the state of interest is on
/// disk.
fn run_and_crash(sc: &Scenario, cfg: Config, dir: &std::path::Path, k: usize) {
    let mut server = IngestServer::new(backend(sc, cfg), config(dir)).expect("open server");
    let tx = server.handle();
    for ev in sc.event_stream().into_iter().take(k) {
        tx.send(ev).expect("server alive");
    }
    drop(tx);
    while server.step().expect("tick").is_some() {}
    server.sync().expect("sync");
    // Crash: the server is dropped mid-run; only WAL + snapshot remain.
}

/// Recovers from `dir`, feeds the not-yet-logged tail of the stream,
/// and returns the completed outcome plus the recovery report.
fn recover_and_finish(
    sc: &Scenario,
    cfg: Config,
    dir: &std::path::Path,
) -> (ServerOutcome, RecoveryReport) {
    let (server, report) = recover(backend(sc, cfg), config(dir)).expect("recover");
    let tx = server.handle();
    for ev in sc
        .event_stream()
        .into_iter()
        .skip(report.events_replayed as usize)
    {
        tx.send(ev).expect("server alive");
    }
    drop(tx);
    let outcome = server.finish().expect("finish");
    let _ = std::fs::remove_dir_all(dir);
    (outcome, report)
}

fn assert_byte_identical(tag: &str, full: &ServerOutcome, recovered: &ServerOutcome) {
    assert_eq!(full.events, recovered.events, "{tag}: event log");
    assert_eq!(full.replies, recovered.replies, "{tag}: reply log");
    assert_eq!(
        normalized(full.metrics.clone()),
        normalized(recovered.metrics.clone()),
        "{tag}: metrics"
    );
    assert!(
        recovered.audit_errors.is_empty(),
        "{tag}: {:?}",
        recovered.audit_errors
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Crash at any event index; recovery completes byte-identically.
    #[test]
    fn crash_at_any_index_recovers_byte_identically(seed in 1u64..4, frac in 0.0f64..1.0) {
        for cfg in CONFIGS {
            let sc = scenario(seed, cfg);
            let k = ((sc.event_stream().len() as f64) * frac) as usize;
            let full = baseline(&sc, cfg, &wal_dir("base"));
            let dir = wal_dir("crash");
            run_and_crash(&sc, cfg, &dir, k);
            let (recovered, report) = recover_and_finish(&sc, cfg, &dir);
            prop_assert_eq!(report.events_replayed, k as u64, "{:?}", cfg);
            prop_assert!(!report.torn_tail, "clean crash has no torn tail");
            prop_assert_eq!(
                report.snapshot_verified, Some(true),
                "synced snapshot must verify ({:?})", cfg
            );
            assert_byte_identical(&format!("{cfg:?} k={k}"), &full, &recovered);
        }
    }
}

#[test]
fn torn_tail_truncation_is_detected_and_recovered() {
    for cfg in CONFIGS {
        let sc = scenario(11, cfg);
        let n = sc.event_stream().len();
        let full = baseline(&sc, cfg, &wal_dir("base"));
        let dir = wal_dir("torn");
        run_and_crash(&sc, cfg, &dir, n / 2);

        // Tear the final record: chop three bytes off the WAL, as if
        // the process died mid-write.
        let wal = dir.join(WAL_FILE);
        let len = std::fs::metadata(&wal).expect("wal exists").len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .expect("open wal");
        f.set_len(len - 3).expect("truncate");
        drop(f);

        let (recovered, report) = recover_and_finish(&sc, cfg, &dir);
        assert!(report.torn_tail, "{cfg:?}: torn tail must be flagged");
        assert_eq!(
            report.events_replayed,
            (n / 2 - 1) as u64,
            "{cfg:?}: exactly the torn record is lost"
        );
        // The snapshot vouched for one event more than the WAL now
        // holds — the mismatch is reported, not papered over.
        assert_eq!(report.snapshot_verified, Some(false), "{cfg:?}");
        assert_byte_identical(&format!("{cfg:?} torn"), &full, &recovered);
    }
}

#[test]
fn bit_flip_in_final_record_is_detected_and_recovered() {
    for cfg in CONFIGS {
        let sc = scenario(12, cfg);
        let n = sc.event_stream().len();
        let full = baseline(&sc, cfg, &wal_dir("base"));
        let dir = wal_dir("flip");
        run_and_crash(&sc, cfg, &dir, n / 3);

        // Flip one bit in the final record's payload: the checksum
        // must catch it and recovery must drop exactly that record.
        let wal = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal).expect("read wal");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x04;
        std::fs::write(&wal, &bytes).expect("rewrite wal");

        let (recovered, report) = recover_and_finish(&sc, cfg, &dir);
        assert!(report.torn_tail, "{cfg:?}: corruption must be flagged");
        assert_eq!(report.events_replayed, (n / 3 - 1) as u64, "{cfg:?}");
        assert_eq!(report.snapshot_verified, Some(false), "{cfg:?}");
        assert_byte_identical(&format!("{cfg:?} flip"), &full, &recovered);
    }
}

/// The WAL is logging, not policy: a run without one is byte-identical
/// to the logged run at every configuration.
#[test]
fn the_wal_does_not_change_the_outcome() {
    for cfg in CONFIGS {
        let sc = scenario(5, cfg);
        let logged = baseline(&sc, cfg, &wal_dir("logged"));
        let unlogged = IngestServer::new(backend(&sc, cfg), ServerConfig::default())
            .expect("open server")
            .run(sc.event_stream())
            .expect("run");
        assert!(unlogged.wal.is_none(), "{cfg:?}: no WAL was configured");
        assert_byte_identical(&format!("{cfg:?} no WAL"), &logged, &unlogged);
    }
}

#[test]
fn recovery_without_a_wal_starts_fresh() {
    let sc = scenario(13, CONFIGS[0]);
    let dir = wal_dir("fresh");
    let (server, report) = recover(backend(&sc, CONFIGS[0]), config(&dir)).expect("recover");
    assert_eq!(report.events_replayed, 0);
    assert!(!report.torn_tail);
    assert_eq!(report.snapshot_verified, None);
    let outcome = server.run(sc.event_stream()).expect("run");
    assert!(outcome.audit_errors.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A WAL holds whatever the codec can spell, and `decode_event` takes
/// any `u32` vertex and `u16` class: a join with a class outside the
/// table, a join off the network, arrivals with a stray endpoint.
/// Replaying them must not take the server down — the joins are
/// dropped, the arrivals rejected — and the run that follows is the
/// clean run, two rejections later.
#[test]
fn malformed_events_in_a_wal_are_contained_on_recovery() {
    for cfg in [CONFIGS[0], CONFIGS[1]] {
        let sc = scenario(14, cfg);
        let full = baseline(&sc, cfg, &wal_dir("base"));
        let next_id = WorkerId(sc.workers.len() as u32);
        let at = sc.start_time();
        let stray = VertexId(u32::MAX);
        let malformed = [
            PlatformEvent::WorkerJoined {
                at,
                worker: Worker {
                    id: next_id,
                    class: urpsm::core::types::ClassId(9),
                    ..sc.workers[0]
                },
            },
            PlatformEvent::WorkerJoined {
                at,
                worker: Worker {
                    id: next_id,
                    origin: stray,
                    ..sc.workers[0]
                },
            },
            PlatformEvent::RequestArrived(Request {
                id: RequestId(900_000),
                origin: stray,
                ..sc.requests[0]
            }),
            PlatformEvent::RequestArrived(Request {
                id: RequestId(900_001),
                destination: stray,
                ..sc.requests[0]
            }),
        ];
        let dir = wal_dir("malformed");
        std::fs::create_dir_all(&dir).expect("run directory");
        let mut wal =
            urpsm::server::wal::WalWriter::create(&dir.join(WAL_FILE)).expect("create wal");
        for ev in &malformed {
            wal.append(ev).expect("append");
        }
        wal.flush().expect("flush");
        drop(wal);

        let (server, report) = recover(backend(&sc, cfg), config(&dir)).expect("recover");
        assert_eq!(report.events_replayed, 4, "{cfg:?}");
        assert!(!report.torn_tail, "{cfg:?}");
        let recovered = server.run(sc.event_stream()).expect("run");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            matches!(
                recovered.events[..2],
                [
                    SimEvent::Rejected {
                        r: RequestId(900_000),
                        ..
                    },
                    SimEvent::Rejected {
                        r: RequestId(900_001),
                        ..
                    }
                ]
            ),
            "{cfg:?}: {:?}",
            &recovered.events[..2]
        );
        // The dropped joins left every id free for the stream's own
        // churn, so the rest of the run is the clean run.
        assert_eq!(recovered.events[2..], full.events[..], "{cfg:?}");
        assert_eq!(recovered.audit_errors, Vec::<String>::new(), "{cfg:?}");
        assert_eq!(recovered.metrics.rejected, full.metrics.rejected + 2);
        assert_eq!(recovered.metrics.served, full.metrics.served);
    }
}
