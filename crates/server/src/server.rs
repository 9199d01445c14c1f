//! The ingestion server: micro-batched ticks over the dispatch plane,
//! with admission control and event-sourced durability (DESIGN.md §9).
//!
//! [`IngestServer`] owns a geo-sharded [`ShardedService`] (`K ≥ 1`;
//! one shard is the paper's single dispatcher) plus the mpsc
//! front-end, the [`AdmissionController`] and (optionally) the WAL.
//! Its life is a sequence of [`tick`](IngestServer::tick)s; each tick:
//!
//! 1. drains the ingestion channel and sorts the pending batch into
//!    the canonical order, [`StampedEvent::order_key`];
//! 2. walks the events due by the tick boundary, asking the admission
//!    controller for a verdict: **admitted** events are appended to
//!    the WAL and then submitted to the backend (write-ahead order),
//!    **deferred** events stay queued for the next tick, and **shed**
//!    arrivals are answered with an explicit
//!    [`IngestReply::Overloaded`];
//! 3. flushes the WAL and, on the configured cadence, cuts a logical
//!    snapshot.
//!
//! Determinism: the sorted batch order is a total order independent of
//! producer interleaving, the admission verdicts are pure functions of
//! that order, and the WAL records exactly the submitted sequence —
//! so a run with admission left unbounded is byte-identical to
//! feeding the same events straight into the backend, and a crashed
//! run recovers ([`recover`]) to a state byte-identical to never
//! having crashed.

use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::mpsc::Receiver;

use urpsm_core::event::PlatformEvent;
use urpsm_core::types::{RequestId, Time};
use urpsm_dispatch::admission::{Admission, AdmissionConfig, AdmissionController};
use urpsm_dispatch::service::ShardedService;
use urpsm_simulator::engine::SimConfig;
use urpsm_simulator::metrics::SimMetrics;
use urpsm_simulator::service::ServiceCheckpoint;
use urpsm_simulator::SimEvent;
use urpsm_workloads::scenario::Scenario;

use crate::ingest::{channel, ProducerHandle, StampedEvent};
use crate::wal::{
    read_snapshot, read_wal, write_snapshot, Snapshot, WalWriter, SNAPSHOT_FILE, WAL_FILE,
};

/// The [`SimConfig`] a [`Scenario`] describes: its grid cell, `α`,
/// congestion profile and class table, with the remaining fields at
/// their library defaults (overlay legs, and the no-op `drain` and
/// `threads`). The one scenario → config mapping: the facade constructors
/// and `urpsm-serve` open their services with it.
pub fn sim_config(scenario: &Scenario) -> SimConfig {
    SimConfig {
        grid_cell_m: scenario.grid_cell_m,
        alpha: scenario.alpha,
        congestion: scenario.congestion.clone(),
        classes: scenario.classes.clone(),
        ..SimConfig::default()
    }
}

/// The dispatch plane the server fronts, as [`IngestServer::new`] and
/// [`recover`] take it. There is one plane — a [`ShardedService`],
/// which at `K = 1` is byte-identical to a single dispatcher — so this
/// is a one-variant shim: it survives only because the repository's
/// frozen benchmark adapter spells `Backend::Sharded(..)`, and goes
/// when that adapter can be edited.
pub enum Backend<'p> {
    /// The geo-sharded plane, `K ≥ 1`.
    Sharded(ShardedService<'p>),
}

/// Durability knobs: where the run directory lives and how often to
/// snapshot.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Run directory; holds [`WAL_FILE`] and [`SNAPSHOT_FILE`].
    /// Created if missing.
    pub dir: PathBuf,
    /// Cut a snapshot every this many logged events (and once at
    /// [`IngestServer::finish`]).
    pub snapshot_every: u64,
}

impl WalConfig {
    /// Durability under `dir` with the default snapshot cadence
    /// (every 1024 events).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            snapshot_every: 1024,
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Micro-batch tick length in platform time units (centiseconds;
    /// default one minute).
    pub tick: Time,
    /// Admission bounds (default: unbounded — byte-identical to a
    /// plain service).
    pub admission: AdmissionConfig,
    /// Event-sourced durability; `None` (the default) runs without a
    /// WAL.
    pub wal: Option<WalConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            tick: 6_000,
            admission: AdmissionConfig::default(),
            wal: None,
        }
    }
}

/// A reply to one ingested event: either what the platform decided, or
/// an explicit overload rejection from the admission layer (the event
/// never reached the platform — or its WAL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestReply {
    /// A platform decision or stop notification.
    Service(SimEvent),
    /// The request's home shard was at its queue-depth bound: shed.
    Overloaded {
        /// The tick boundary at which the verdict was made.
        at: Time,
        /// The rejected request.
        request: RequestId,
    },
}

/// Per-tick lag metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickReport {
    /// The tick boundary processed up to.
    pub until: Time,
    /// Events admitted (submitted to the backend) this tick.
    pub admitted: usize,
    /// New arrivals shed this tick.
    pub shed: usize,
    /// Events still deferred across all shards after the tick.
    pub backlog: usize,
    /// High-water mark of any shard's backlog *within this tick* —
    /// resets at every tick boundary. The run-level maximum is
    /// [`ServerOutcome::peak_backlog`].
    pub peak_backlog: usize,
}

/// WAL accounting after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Final WAL size in bytes (magic included).
    pub bytes: u64,
    /// Event records in the WAL.
    pub records: u64,
    /// Snapshots cut over the run.
    pub snapshots: u64,
}

/// Everything a finished server produces.
pub struct ServerOutcome {
    /// Aggregate platform metrics.
    pub metrics: SimMetrics,
    /// The full platform event log (the byte-identity surface).
    pub events: Vec<SimEvent>,
    /// Audit findings (empty = clean).
    pub audit_errors: Vec<String>,
    /// Every reply emitted over the run, in emission order — platform
    /// replies interleaved with `Overloaded` sheds.
    pub replies: Vec<IngestReply>,
    /// Ticks processed.
    pub ticks: u64,
    /// Total arrivals shed.
    pub sheds: usize,
    /// High-water mark of any shard's deferred backlog over the run —
    /// with a finite queue limit this stays bounded (the overload test
    /// pins it).
    pub peak_backlog: usize,
    /// WAL accounting, when durability was on.
    pub wal: Option<WalStats>,
}

/// What [`recover`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Events replayed from the WAL's valid prefix.
    pub events_replayed: u64,
    /// Bytes of that valid prefix (the WAL was truncated back to it).
    pub wal_bytes: u64,
    /// Whether a torn tail (partial or corrupt trailing record) was
    /// dropped.
    pub torn_tail: bool,
    /// Whether the on-disk snapshot's checkpoint matched the replayed
    /// state at its offset (`None` = no usable snapshot found).
    pub snapshot_verified: Option<bool>,
}

struct Pending {
    stamped: StampedEvent,
    /// Deferred by a previous tick (already counted in the backlog
    /// gauge; never shed).
    queued: bool,
}

struct WalState {
    writer: WalWriter,
    snapshot_path: PathBuf,
    snapshot_every: u64,
    last_snapshot_at: u64,
    snapshots: u64,
}

impl WalState {
    fn new(writer: WalWriter, cfg: &WalConfig) -> Self {
        WalState {
            writer,
            snapshot_path: cfg.dir.join(SNAPSHOT_FILE),
            // Zero would cut a snapshot on every tick, even an empty one.
            snapshot_every: cfg.snapshot_every.max(1),
            last_snapshot_at: 0,
            snapshots: 0,
        }
    }
}

/// The long-running ingestion service runtime.
pub struct IngestServer<'p> {
    backend: ShardedService<'p>,
    admission: AdmissionController,
    tick_len: Time,
    handle: ProducerHandle,
    rx: Receiver<StampedEvent>,
    /// Events drained from the channel and not yet admitted.
    pending: Vec<Pending>,
    /// The tick's batch, swapped with `pending` as a tick starts; what
    /// the tick keeps goes back into `pending`. Empty between ticks.
    batch: Vec<Pending>,
    replies: Vec<IngestReply>,
    wal: Option<WalState>,
    ticks: u64,
}

impl<'p> IngestServer<'p> {
    /// Opens a server over `backend`. With `config.wal` set, the run
    /// directory is created and a fresh WAL started (an existing WAL
    /// at that path is truncated — use [`recover`] to resume one).
    pub fn new(backend: Backend<'p>, config: ServerConfig) -> io::Result<Self> {
        let Backend::Sharded(backend) = backend;
        let wal = match &config.wal {
            Some(w) => {
                fs::create_dir_all(&w.dir)?;
                Some(WalState::new(WalWriter::create(&w.dir.join(WAL_FILE))?, w))
            }
            None => None,
        };
        Ok(Self::assemble(backend, &config, 0, Vec::new(), wal))
    }

    fn assemble(
        backend: ShardedService<'p>,
        config: &ServerConfig,
        first_seq: u64,
        replies: Vec<IngestReply>,
        wal: Option<WalState>,
    ) -> Self {
        let (handle, rx) = channel(first_seq);
        let admission = AdmissionController::new(
            backend.num_shards(),
            AdmissionConfig {
                queue_limit: config.admission.queue_limit,
                // A zero budget could never drain anything: clamp so
                // every tick makes progress.
                tick_budget: config.admission.tick_budget.max(1),
            },
        );
        IngestServer {
            backend,
            admission,
            tick_len: config.tick.max(1),
            handle,
            rx,
            pending: Vec::new(),
            batch: Vec::new(),
            replies,
            wal,
            ticks: 0,
        }
    }

    /// A producer endpoint; clone freely across threads.
    pub fn handle(&self) -> ProducerHandle {
        self.handle.clone()
    }

    /// Current platform time.
    pub fn now(&self) -> Time {
        self.backend.now()
    }

    /// Replies emitted so far, in emission order.
    pub fn replies(&self) -> &[IngestReply] {
        &self.replies
    }

    /// Fingerprint of the backend's progress.
    pub fn checkpoint(&self) -> ServiceCheckpoint {
        self.backend.checkpoint()
    }

    /// Moves whatever the producers have sent so far into `pending`.
    fn drain_channel(&mut self) {
        while let Ok(stamped) = self.rx.try_recv() {
            self.pending.push(Pending {
                stamped,
                queued: false,
            });
        }
    }

    /// Processes one micro-batch tick: drains the channel, sorts, and
    /// walks every pending event with time ≤ `until` through
    /// admission → WAL → backend.
    pub fn tick(&mut self, until: Time) -> io::Result<TickReport> {
        self.drain_channel();
        self.pending.sort_unstable_by_key(|p| p.stamped.order_key());
        std::mem::swap(&mut self.pending, &mut self.batch);

        self.admission.begin_tick();
        urpsm_obs::with(|m| {
            m.ingest_ticks.inc();
            m.ring.record(
                urpsm_obs::TraceKind::TickStart,
                self.ticks + 1,
                until,
                self.batch.len() as u64,
                0,
            );
        });
        let mut admitted = 0usize;
        let mut deferred = 0usize;
        let mut shed = 0usize;
        for p in self.batch.drain(..) {
            let event = p.stamped.event;
            if event.time() > until {
                self.pending.push(p);
                continue;
            }
            let fresh_arrival = matches!(event, PlatformEvent::RequestArrived(_)) && !p.queued;
            let shard = self.backend.home_shard(&event);
            let verdict = self.admission.classify(shard, fresh_arrival, p.queued);
            urpsm_obs::with(|m| {
                let code = match verdict {
                    Admission::Admit => 0u64,
                    Admission::Defer => 1,
                    Admission::Shed => 2,
                };
                m.ring.record(
                    urpsm_obs::TraceKind::Admission,
                    code,
                    shard.map_or(u64::MAX, |s| s as u64),
                    event.time(),
                    u64::from(p.queued),
                );
            });
            match verdict {
                Admission::Admit => {
                    if let Some(w) = &mut self.wal {
                        w.writer.append(&event)?;
                    }
                    let out = self.backend.submit(event).iter().copied();
                    self.replies.extend(out.map(IngestReply::Service));
                    admitted += 1;
                }
                Admission::Defer => {
                    deferred += 1;
                    self.pending.push(Pending { queued: true, ..p });
                }
                Admission::Shed => {
                    let PlatformEvent::RequestArrived(r) = event else {
                        unreachable!("only request arrivals are shed");
                    };
                    self.replies.push(IngestReply::Overloaded {
                        at: until,
                        request: r.id,
                    });
                    urpsm_obs::with(|m| {
                        if let Some(s) = shard {
                            m.shard_sheds[urpsm_obs::registry::shard_slot(s)].inc();
                        }
                    });
                    shed += 1;
                }
            }
        }
        self.ticks += 1;

        if let Some(w) = &mut self.wal {
            w.writer.flush()?;
            if w.writer.records() - w.last_snapshot_at >= w.snapshot_every {
                Self::cut_snapshot(w, &self.backend)?;
            }
        }
        urpsm_obs::with(|m| {
            m.ingest_admitted.add(admitted as u64);
            m.ingest_deferred.add(deferred as u64);
            m.ingest_shed.add(shed as u64);
            m.ingest_backlog.set(self.admission.backlog() as u64);
            m.ingest_peak_backlog
                .observe_max(self.admission.peak_backlog() as u64);
            let shards = self.admission.num_shards();
            m.shards_live.observe_max(shards as u64);
            for s in 0..shards.min(urpsm_obs::MAX_SHARDS) {
                m.shard_backlog[s].set(self.admission.shard_backlog(s) as u64);
            }
            m.ring.record(
                urpsm_obs::TraceKind::TickEnd,
                self.ticks,
                admitted as u64,
                shed as u64,
                self.admission.backlog() as u64,
            );
        });
        Ok(TickReport {
            until,
            admitted,
            shed,
            backlog: self.admission.backlog(),
            // Per-tick high-water mark: resets each tick (the run-level
            // maximum lives in `ServerOutcome::peak_backlog`).
            peak_backlog: self.admission.tick_peak_backlog(),
        })
    }

    fn cut_snapshot(w: &mut WalState, backend: &ShardedService<'_>) -> io::Result<()> {
        write_snapshot(
            &w.snapshot_path,
            &Snapshot {
                events_applied: w.writer.records(),
                wal_bytes: w.writer.bytes(),
                checkpoint: backend.checkpoint(),
            },
        )?;
        w.last_snapshot_at = w.writer.records();
        w.snapshots += 1;
        Ok(())
    }

    /// Forces the WAL to disk and cuts a snapshot now. A crash after
    /// `sync` returns loses nothing that was admitted before it.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(w) = &mut self.wal {
            w.writer.flush()?;
            Self::cut_snapshot(w, &self.backend)?;
        }
        Ok(())
    }

    /// Runs one tick at the next natural boundary: one `config.tick`
    /// past the earliest pending event (clamped to the platform
    /// clock), so deferred backlogs drain exactly as they would under
    /// a live clock. Returns `Ok(None)` when channel and queue are
    /// both empty.
    pub fn step(&mut self) -> io::Result<Option<TickReport>> {
        self.drain_channel();
        let Some(earliest) = self.pending.iter().map(|p| p.stamped.event.time()).min() else {
            return Ok(None);
        };
        let until = (earliest.max(self.backend.now()) / self.tick_len + 1) * self.tick_len;
        self.tick(until).map(Some)
    }

    /// Ticks until the queue is empty, then drains the backend.
    pub fn finish(mut self) -> io::Result<ServerOutcome> {
        while self.step()?.is_some() {}
        self.sync()?;
        let wal = self.wal.as_ref().map(|w| WalStats {
            bytes: w.writer.bytes(),
            records: w.writer.records(),
            snapshots: w.snapshots,
        });
        let drained = self.backend.drain();
        Ok(ServerOutcome {
            metrics: drained.metrics,
            events: drained.events,
            audit_errors: drained.audit_errors,
            replies: self.replies,
            ticks: self.ticks,
            sheds: self.admission.total_shed() as usize,
            peak_backlog: self.admission.peak_backlog(),
            wal,
        })
    }

    /// Convenience: sends `events` through the front-end (stamping
    /// them in iteration order) and runs to completion.
    pub fn run<I>(self, events: I) -> io::Result<ServerOutcome>
    where
        I: IntoIterator<Item = PlatformEvent>,
    {
        let tx = self.handle();
        for ev in events {
            tx.send(ev)
                .expect("`self` holds the receiver until `finish`, so the channel is open");
        }
        drop(tx);
        self.finish()
    }
}

/// Rebuilds a server from a run directory's WAL + snapshot.
///
/// The WAL's valid prefix is replayed through `backend` in append
/// order — replay is deterministic, so this reconstructs the exact
/// pre-crash platform (the snapshot's checkpoint verifies it). The
/// file is truncated back to the valid prefix, dropping any torn
/// tail, and the returned server appends where the crashed one left
/// off. Requires `config.wal` to be set; a missing WAL file starts a
/// fresh run (`events_replayed = 0`).
pub fn recover<'p>(
    backend: Backend<'p>,
    config: ServerConfig,
) -> io::Result<(IngestServer<'p>, RecoveryReport)> {
    let Some(wal_cfg) = config.wal.clone() else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "recover requires ServerConfig.wal",
        ));
    };
    let wal_path = wal_cfg.dir.join(WAL_FILE);
    let scan = match read_wal(&wal_path) {
        Ok(scan) => scan,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let server = IngestServer::new(backend, config)?;
            return Ok((
                server,
                RecoveryReport {
                    events_replayed: 0,
                    wal_bytes: 0,
                    torn_tail: false,
                    snapshot_verified: None,
                },
            ));
        }
        Err(e) => return Err(e),
    };
    let snapshot = read_snapshot(&wal_cfg.dir.join(SNAPSHOT_FILE))?;

    let Backend::Sharded(mut backend) = backend;
    let mut replies = Vec::new();
    let mut snapshot_verified = snapshot.map(|s| {
        // A snapshot beyond the valid prefix means the WAL lost flushed
        // records — report the mismatch rather than guessing.
        s.events_applied == 0 && backend.checkpoint() == s.checkpoint
    });
    for (i, event) in scan.events.iter().enumerate() {
        let out = backend.submit(*event).iter().copied();
        replies.extend(out.map(IngestReply::Service));
        if let Some(s) = snapshot {
            if s.events_applied == i as u64 + 1 {
                snapshot_verified = Some(backend.checkpoint() == s.checkpoint);
            }
        }
    }

    // Truncate the torn tail and reopen for appending.
    let writer = WalWriter::open_at(&wal_path, scan.valid_bytes, scan.events.len() as u64)?;
    let mut server = IngestServer::assemble(
        backend,
        &config,
        scan.events.len() as u64,
        replies,
        Some(WalState::new(writer, &wal_cfg)),
    );
    // Pin the recovered state on disk before accepting new events.
    server.sync()?;
    let report = RecoveryReport {
        events_replayed: scan.events.len() as u64,
        wal_bytes: scan.valid_bytes,
        torn_tail: scan.torn,
        snapshot_verified,
    };
    urpsm_obs::with(|m| {
        m.recovery_runs.inc();
        m.recovery_replayed.add(report.events_replayed);
        if report.torn_tail {
            m.recovery_torn_tail.inc();
        }
        m.ring.record(
            urpsm_obs::TraceKind::Recovery,
            report.events_replayed,
            report.wal_bytes,
            u64::from(report.torn_tail),
            report.snapshot_verified.map_or(2, u64::from),
        );
    });
    Ok((server, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;
    use road_network::VertexId;
    use urpsm_core::planner::PruneGreedyDp;
    use urpsm_core::types::{Request, Worker, WorkerId};
    use urpsm_dispatch::service::ShardConfig;

    /// A server over two shards of a 1 m-spaced line of 50 vertices
    /// (100 cs per edge), with no initial fleet.
    fn line_server() -> IngestServer<'static> {
        let mut b = road_network::builder::NetworkBuilder::new();
        for i in 0..50 {
            b.add_vertex(Point::new(f64::from(i), 0.0));
        }
        for i in 1..50 {
            b.add_edge_with_cost(VertexId(i - 1), VertexId(i), 100)
                .unwrap();
        }
        b.set_top_speed_mps(1.0);
        let oracle = std::sync::Arc::new(MatrixOracle::from_network(&b.finish().unwrap()));
        let backend = ShardedService::new(
            oracle,
            Vec::new(),
            |_| Box::new(PruneGreedyDp::new()),
            ShardConfig {
                shards: 2,
                sim: SimConfig::default(),
            },
            0,
        );
        IngestServer::new(Backend::Sharded(backend), ServerConfig::default()).unwrap()
    }

    fn arrival(id: u32, o: u32, d: u32, release: Time) -> PlatformEvent {
        PlatformEvent::RequestArrived(Request {
            class: Default::default(),
            id: RequestId(id),
            origin: VertexId(o),
            destination: VertexId(d),
            release,
            deadline: release + 100_000,
            penalty: 1_000_000,
            capacity: 1,
        })
    }

    /// Sends `events` through the producer channel in the given order
    /// (so their stamps follow it) and runs the one tick window that
    /// covers them all.
    fn run_one_tick(events: &[PlatformEvent]) -> (Vec<IngestReply>, ServiceCheckpoint) {
        let mut server = line_server();
        let tx = server.handle();
        for &event in events {
            tx.send(event).unwrap();
        }
        server.tick(1_000).unwrap();
        (server.replies().to_vec(), server.checkpoint())
    }

    #[test]
    fn tick_sorts_a_reversed_window_into_the_canonical_order() {
        // In canonical order: a worker joins at t = 100 where a request
        // is released at the same instant (a join ranks first, so the
        // worker can serve it); at t = 200 a request arrives and is
        // cancelled (an arrival ranks before its cancellation); at
        // t = 300 two requests tie on (time, rank) and only their
        // stamps order them.
        let in_order = [
            PlatformEvent::WorkerJoined {
                at: 100,
                worker: Worker {
                    class: Default::default(),
                    id: WorkerId(0),
                    origin: VertexId(20),
                    capacity: 4,
                },
            },
            arrival(0, 21, 30, 100),
            arrival(1, 10, 5, 200),
            PlatformEvent::RequestCancelled {
                at: 200,
                request: RequestId(1),
            },
            arrival(2, 40, 45, 300),
            arrival(3, 44, 48, 300),
        ];
        let (replies, checkpoint) = run_one_tick(&in_order);
        assert!(
            matches!(
                replies[1],
                IngestReply::Service(SimEvent::Assigned {
                    r: RequestId(0),
                    w: WorkerId(0),
                    ..
                })
            ),
            "the joined worker serves request 0: {replies:?}"
        );
        assert!(replies.contains(&IngestReply::Service(SimEvent::Cancelled {
            t: 200,
            r: RequestId(1),
            freed: 2_500,
        })));

        // The same window sent in reverse, except that the two tied
        // arrivals keep their relative order (their stamps are the only
        // thing that orders them): every other pair of events now has
        // its stamps against the canonical order, and the server's sort
        // must restore it.
        let e = in_order;
        let reversed = [e[4], e[5], e[3], e[2], e[1], e[0]];
        assert_eq!(run_one_tick(&reversed), (replies, checkpoint));
    }
}
