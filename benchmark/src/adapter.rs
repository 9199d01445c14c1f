//! Every contact this benchmark has with the repo's APIs: the five
//! workload presets, opening a service over a generated scenario,
//! feeding it one event at a time, the two span wrappers, and the
//! direct drives of functions no trait reaches. Everything else in the
//! package is harness and knows nothing of `urpsm`.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use urpsm::core::event::{PlatformEvent, WorkerChange};
use urpsm::core::planner::{Planner, PlannerReplies, PruneGreedyDp};
use urpsm::core::platform::{CandidateBuf, PlatformState};
use urpsm::core::types::{Request, RequestId, Time};
use urpsm::dispatch::service::ShardedService;
use urpsm::network::cache::LruCachedOracle;
use urpsm::network::congestion::{CongestionProfile, HOUR_CS};
use urpsm::network::geo::Point;
use urpsm::network::graph::RoadNetwork;
use urpsm::network::hub_labels::HubLabels;
use urpsm::network::oracle::{DistanceOracle, HubLabelOracle};
use urpsm::network::td::{TdTravelTimeProvider, TimeDependentOracle};
use urpsm::network::{Cost, VertexId};
use urpsm::server::codec::encode_event;
use urpsm::server::server::{recover, Backend, IngestServer, ServerConfig, WalConfig};
use urpsm::server::wal::WalWriter;
use urpsm::simulator::engine::SimConfig;
use urpsm::simulator::metrics::SimMetrics;
use urpsm::simulator::service::MobilityService;
use urpsm::workloads::scenario::{chengdu_like, metropolis, Scenario, ScenarioBuilder};
use urpsm::workloads::MINUTE_CS;

use crate::trace::{self, Kind};

/// The benchmark's workloads. `why` is the sentence BENCHMARK.json
/// carries; README.md has the long form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChengduDense,
    ChengduDenseT2,
    ChengduRushTd,
    MetroIngest,
    MetroBigfleet,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload::ChengduDense,
    Workload::ChengduDenseT2,
    Workload::ChengduRushTd,
    Workload::MetroIngest,
    Workload::MetroBigfleet,
];

/// How a workload's events reach the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// `MobilityService::submit`, planner fan-out `threads`.
    Plain { threads: usize },
    /// `MobilityService::submit` under the core-jam profile with the
    /// time-dependent oracle on.
    TdOracle,
    /// `IngestServer` over the K = 4 sharded backend, WAL on.
    Ingest,
}

/// Shards of the `metro-ingest` backend.
const INGEST_SHARDS: usize = 4;
/// Tick length of the `metro-ingest` server (one platform minute).
const INGEST_TICK: Time = MINUTE_CS;
/// `chengdu-rush-td` moves the two-hour stream to 07:30–09:30, across
/// the 08:00 peak of the core-jam profile.
const RUSH_SHIFT: Time = 7 * HOUR_CS + HOUR_CS / 2;
/// Requests kept from the `metro-bigfleet` stream. (Half as many would
/// double the passes a run's median is over, but between seeds the
/// unified cost of so short a stream differs by 8 % where this one's
/// differs by 2–3 %.)
const BIGFLEET_REQUESTS: usize = 4_000;
/// Distance/path capacities of the per-pass LRU front — the values
/// `ScenarioBuilder` gives a scenario's own oracle.
const LRU_DIS: usize = 1 << 20;
const LRU_PATHS: usize = LRU_DIS / 64;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChengduDense => "chengdu-dense",
            Workload::ChengduDenseT2 => "chengdu-dense-t2",
            Workload::ChengduRushTd => "chengdu-rush-td",
            Workload::MetroIngest => "metro-ingest",
            Workload::MetroBigfleet => "metro-bigfleet",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    fn route(self) -> Route {
        match self {
            Workload::ChengduDense | Workload::MetroBigfleet => Route::Plain { threads: 1 },
            Workload::ChengduDenseT2 => Route::Plain { threads: 2 },
            Workload::ChengduRushTd => Route::TdOracle,
            Workload::MetroIngest => Route::Ingest,
        }
    }

    /// Whether the workload runs the server and dispatch layers (and so
    /// has a WAL to check and recover).
    pub fn is_ingest(self) -> bool {
        self.route() == Route::Ingest
    }

    /// Whether the workload runs the time-dependent oracle.
    pub fn is_td(self) -> bool {
        self.route() == Route::TdOracle
    }

    /// Whether `BENCHMARK.json` lists the workload, so that its timings
    /// are held to a bound. `chengdu-dense-t2` is not: it spawns and
    /// joins a thread per request and needs both cores of a box whose
    /// two cores are shared with unseen neighbours, which measures the
    /// host's scheduler (its ten-seed spreads read 25–30 % where the
    /// schema's cap on a bound is 25 %). `run` still measures and
    /// prints it.
    pub fn held_to_bounds(self) -> bool {
        self != Workload::ChengduDenseT2
    }

    /// The planner fan-out of the discarded warm-up pass, where it is
    /// not the workload's own: fan-out changes wall-clock, never
    /// decisions, so every measured pass must reproduce the outputs of
    /// a warm-up at the other width. (On `chengdu-dense` this keeps the
    /// width-2 check inside the runs the driver makes.)
    pub fn reference_threads(self) -> Option<usize> {
        match self {
            Workload::ChengduDense => Some(2),
            Workload::ChengduDenseT2 => Some(1),
            _ => None,
        }
    }

    /// The workload that gets the same generated inputs and must reach
    /// the same decisions, so the same `served_share` and
    /// `unified_cost` (checked by `run` and `check-repeat`, which
    /// measure both).
    pub fn same_outputs_as(self) -> Option<Workload> {
        (self == Workload::ChengduDenseT2).then_some(Workload::ChengduDense)
    }

    /// How many cities (inputs generated from consecutive sub-seeds) an
    /// untraced run measures and averages over. Throughput differs by
    /// 10–15 % between seeds of one preset — where the hotspots fall
    /// decides the shortlist sizes — and a run's numbers should say
    /// something about the preset, not about one draw. The count is
    /// bounded by what a build costs: ~0.1 s here, ~4 s on `metro-*`.
    pub fn cities(self) -> usize {
        match self {
            Workload::ChengduDense | Workload::ChengduDenseT2 | Workload::ChengduRushTd => 6,
            Workload::MetroIngest | Workload::MetroBigfleet => 3,
        }
    }

    fn builder(self, seed: u64) -> ScenarioBuilder {
        match self {
            Workload::ChengduDense | Workload::ChengduDenseT2 | Workload::ChengduRushTd => {
                chengdu_like(seed)
                    .workers(600)
                    .requests(5_000)
                    .deadline_offset(25 * MINUTE_CS)
            }
            Workload::MetroIngest => metropolis(seed)
                .requests(10_000)
                .workers(1_000)
                .cancel_rate(0.1)
                .fleet_churn(50, 50),
            Workload::MetroBigfleet => metropolis(seed).requests(100_000).workers(10_000),
        }
    }
}

/// The region-structured rush profile: a 3×3 lattice over the city;
/// the centre cell runs a two-peak day, the rest stays free flow, so
/// the time-dependent shortest path differs from the static one.
fn core_jam_profile(g: &RoadNetwork) -> CongestionProfile {
    let points: Vec<Point> = (0..g.num_vertices())
        .map(|i| g.point(VertexId(i as u32)))
        .collect();
    let regions = CongestionProfile::regionize(&points, 3, 3);
    let mut downtown = vec![1000u32; 24];
    for (hour, pm) in [
        (7, 1300),
        (8, 1700),
        (9, 1350),
        (16, 1200),
        (17, 1600),
        (18, 1750),
        (19, 1300),
    ] {
        downtown[hour] = pm;
    }
    let tables = (0..9)
        .map(|cell| {
            if cell == 4 {
                downtown.clone()
            } else {
                vec![1000; 24]
            }
        })
        .collect();
    CongestionProfile::per_region("two-peak-core", HOUR_CS, tables, regions)
        .expect("the preset's multipliers are within bounds")
}

/// A workload's generated inputs: everything the program under test
/// receives, and nothing else.
pub struct Input {
    workload: Workload,
    scenario: Scenario,
    events: Vec<PlatformEvent>,
    /// The label index, built once; every pass puts a new LRU over it.
    base: Arc<HubLabelOracle>,
    /// The current pass's LRU front (the scenario's oracle, unwrapped).
    lru: Arc<Lru>,
}

type Lru = LruCachedOracle<Arc<HubLabelOracle>>;

fn new_lru(base: &Arc<HubLabelOracle>) -> Arc<Lru> {
    Arc::new(LruCachedOracle::new(base.clone(), LRU_DIS, LRU_PATHS))
}

/// What one pass over the stream produced.
pub struct PassOutcome {
    /// First event in → `drain()`/`finish()` returned, seconds.
    pub wall_s: f64,
    /// Of which the drain (audit included).
    pub drain_s: f64,
    /// Per `RequestArrived`: handing it over → its replies are back, µs.
    pub decide_us: Vec<f64>,
    pub events: usize,
    pub replies: usize,
    /// `checkpoint().digest` after the last event, before the drain.
    pub digest: u64,
    pub metrics: SimMetrics,
    pub audit_errors: Vec<String>,
    /// `(hits, misses)` of the pass's LRU distance cache.
    pub lru: (u64, u64),
    /// Σ shortlist sizes seen by the probing planner wrapper (traced
    /// passes only).
    pub shortlisted: u64,
    pub ingest: Option<IngestOutcome>,
}

impl PassOutcome {
    /// Requests neither rejected by the planner nor shed at admission,
    /// as a share of those attempted.
    pub fn served_share(&self) -> f64 {
        let shed = self.ingest.as_ref().map_or(0, |i| i.shed);
        let refused = self.metrics.rejected as u64 + shed;
        1.0 - refused as f64 / (self.metrics.requests as u64 + shed) as f64
    }
}

/// The server's side of a `metro-ingest` pass.
pub struct IngestOutcome {
    /// Wall time of each `tick` call, µs.
    pub tick_us: Vec<f64>,
    pub admitted: u64,
    pub shed: u64,
    pub peak_backlog: usize,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub snapshots: u64,
}

impl Input {
    /// Generates the workload's inputs from `seed`. Also returns the
    /// seconds `ScenarioBuilder::build()` took (network, hub labels,
    /// fleet, stream).
    pub fn build(workload: Workload, seed: u64) -> (Input, f64) {
        let t0 = Instant::now();
        let mut scenario = workload.builder(seed).build();
        let scenario_s = t0.elapsed().as_secs_f64();

        match workload {
            Workload::ChengduRushTd => {
                for r in &mut scenario.requests {
                    r.release += RUSH_SHIFT;
                    r.deadline += RUSH_SHIFT;
                }
                scenario.congestion = Some(Arc::new(core_jam_profile(&scenario.network)));
            }
            Workload::MetroBigfleet => scenario.requests.truncate(BIGFLEET_REQUESTS),
            _ => {}
        }
        let labels = scenario
            .oracle
            .backing_labels()
            .expect("both preset cities are small enough for hub labels");
        let base = Arc::new(HubLabelOracle::from_labels(
            scenario.network.clone(),
            HubLabels::clone(labels),
        ));
        let events = scenario.event_stream();
        let input = Input {
            workload,
            scenario,
            events,
            lru: new_lru(&base),
            base,
        };
        (input, scenario_s)
    }

    pub fn requests(&self) -> usize {
        self.scenario.requests.len()
    }

    /// Seconds one `HubLabels::build` over the city takes.
    pub fn time_label_build(&self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(HubLabels::build(&self.scenario.network));
        t0.elapsed().as_secs_f64()
    }

    /// Puts a new, empty LRU over the label index and makes it the
    /// scenario's oracle (behind a [`SpanOracle`] when tracing).
    fn fresh_oracle(&mut self) {
        self.lru = new_lru(&self.base);
        self.scenario.oracle = if trace::enabled() {
            Arc::new(SpanOracle(self.lru.clone()))
        } else {
            self.lru.clone()
        };
    }

    fn planner(&self, threads: usize) -> Box<dyn Planner> {
        let inner = PruneGreedyDp::with_threads(threads);
        if trace::enabled() {
            Box::new(SpanPlanner {
                inner,
                unspanned: self.lru.clone(),
                buf: CandidateBuf::new(),
            })
        } else {
            Box::new(inner)
        }
    }

    fn open_plain(&self, threads: usize) -> MobilityService<'static> {
        urpsm::service(&self.scenario, self.planner(threads))
    }

    fn open_td(&self) -> MobilityService<'static> {
        let s = &self.scenario;
        MobilityService::new(
            s.oracle.clone(),
            s.workers.clone(),
            self.planner(1),
            SimConfig {
                grid_cell_m: s.grid_cell_m,
                alpha: s.alpha,
                drain: true,
                threads: 0,
                congestion: s.congestion.clone(),
                td_oracle: true,
                classes: s.classes.clone(),
            },
            self.events.first().map_or(0, PlatformEvent::time),
        )
    }

    fn open_sharded(&self) -> ShardedService<'static> {
        urpsm::sharded(&self.scenario, INGEST_SHARDS, |_| self.planner(1))
    }

    fn server_config(wal_dir: &Path) -> ServerConfig {
        ServerConfig {
            tick: INGEST_TICK,
            wal: Some(WalConfig::new(wal_dir)),
            ..ServerConfig::default()
        }
    }

    /// Opens the workload's service (and server, and WAL) over fresh
    /// caches and drops it: the construction half of `setup_s`.
    pub fn open_and_drop(&mut self, wal_dir: &Path) -> io::Result<()> {
        self.fresh_oracle();
        match self.workload.route() {
            Route::Plain { threads } => drop(self.open_plain(threads)),
            Route::TdOracle => drop(self.open_td()),
            Route::Ingest => drop(IngestServer::new(
                Backend::Sharded(self.open_sharded()),
                Self::server_config(wal_dir),
            )?),
        }
        Ok(())
    }

    /// One cold pass: new caches, new service, the whole stream one
    /// event at a time, drain. `threads` overrides the planner fan-out
    /// of a plain workload (for its width-1 reference pass).
    pub fn run_pass(&mut self, threads: Option<usize>, wal_dir: &Path) -> io::Result<PassOutcome> {
        self.fresh_oracle();
        SHORTLISTED.store(0, Ordering::Relaxed);
        let mut out = match self.workload.route() {
            Route::Plain { threads: own } => {
                let service = self.open_plain(threads.unwrap_or(own));
                self.feed_service(service)
            }
            Route::TdOracle => {
                let service = self.open_td();
                self.feed_service(service)
            }
            Route::Ingest => self.feed_server(wal_dir)?,
        };
        out.lru = self.lru.dis_hit_stats();
        out.shortlisted = SHORTLISTED.load(Ordering::Relaxed);
        Ok(out)
    }

    fn feed_service(&self, mut service: MobilityService<'static>) -> PassOutcome {
        let mut decide_us = Vec::with_capacity(self.requests());
        let mut replies = 0;
        let started = Instant::now();
        for (i, event) in self.events.iter().enumerate() {
            trace::set_event(i);
            let t0 = Instant::now();
            let out = {
                let _span = trace::enter(Kind::Submit);
                service.submit(*event)
            };
            if matches!(event, PlatformEvent::RequestArrived(_)) {
                decide_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            replies += out.len();
        }
        let fed_s = started.elapsed().as_secs_f64();
        let digest = service.checkpoint().digest;
        let t0 = Instant::now();
        let outcome = {
            let _span = trace::enter(Kind::Drain);
            service.drain()
        };
        let drain_s = t0.elapsed().as_secs_f64();
        PassOutcome {
            wall_s: fed_s + drain_s,
            drain_s,
            decide_us,
            events: self.events.len(),
            replies,
            digest,
            metrics: outcome.metrics,
            audit_errors: outcome.audit_errors,
            lru: (0, 0),
            shortlisted: 0,
            ingest: None,
        }
    }

    /// Feeds the server as a live clock would: one tick window at a
    /// time — `send` the window's events, then `tick(until)`. (Sending
    /// the whole stream first, as `IngestServer::run` does, makes every
    /// tick re-sort and re-scan all pending events, which measures the
    /// driver, not the server.) A request's decision latency runs from
    /// its `send` to the return of the tick that decided it.
    fn feed_server(&self, wal_dir: &Path) -> io::Result<PassOutcome> {
        let mut server = IngestServer::new(
            Backend::Sharded(self.open_sharded()),
            Self::server_config(wal_dir),
        )?;
        let producer = server.handle();
        let mut decide_us = Vec::with_capacity(self.requests());
        let mut tick_us = Vec::new();
        let mut sent_at = Vec::new();
        let (mut admitted, mut shed) = (0u64, 0u64);
        let mut next = 0;
        let started = Instant::now();
        while next < self.events.len() {
            // Empty windows are skipped, as `IngestServer::step` does.
            let until = (self.events[next].time() / INGEST_TICK + 1) * INGEST_TICK;
            trace::set_event(next);
            while next < self.events.len() && self.events[next].time() <= until {
                let event = self.events[next];
                if matches!(event, PlatformEvent::RequestArrived(_)) {
                    sent_at.push(Instant::now());
                }
                producer.send(event).expect("the server owns the receiver");
                next += 1;
            }
            let t0 = Instant::now();
            let report = {
                let _span = trace::enter(Kind::Tick);
                server.tick(until)?
            };
            let done = Instant::now();
            tick_us.push((done - t0).as_secs_f64() * 1e6);
            decide_us.extend(sent_at.drain(..).map(|s| (done - s).as_secs_f64() * 1e6));
            admitted += report.admitted as u64;
            shed += report.shed as u64;
        }
        let fed_s = started.elapsed().as_secs_f64();
        let digest = server.checkpoint().digest;
        drop(producer);
        let t0 = Instant::now();
        let outcome = {
            let _span = trace::enter(Kind::Drain);
            server.finish()?
        };
        let drain_s = t0.elapsed().as_secs_f64();
        let wal = outcome.wal.expect("the server was opened with a WAL");
        Ok(PassOutcome {
            wall_s: fed_s + drain_s,
            drain_s,
            decide_us,
            events: self.events.len(),
            replies: outcome.replies.len(),
            digest,
            metrics: outcome.metrics,
            audit_errors: outcome.audit_errors,
            lru: (0, 0),
            shortlisted: 0,
            ingest: Some(IngestOutcome {
                tick_us,
                admitted,
                shed,
                peak_backlog: outcome.peak_backlog,
                wal_records: wal.records,
                wal_bytes: wal.bytes,
                snapshots: wal.snapshots,
            }),
        })
    }

    /// Rebuilds a server from the WAL a `metro-ingest` pass left in
    /// `wal_dir`; returns the recovered checkpoint digest and the
    /// seconds `recover` took.
    pub fn recover_digest(&mut self, wal_dir: &Path) -> io::Result<(u64, f64)> {
        self.fresh_oracle();
        let backend = Backend::Sharded(self.open_sharded());
        let t0 = Instant::now();
        let (server, _report) = recover(backend, Self::server_config(wal_dir))?;
        let secs = t0.elapsed().as_secs_f64();
        Ok((server.checkpoint().digest, secs))
    }

    /// Replays the stream straight into the sharded plane, without the
    /// server in front (spans: `sharded_submit`). Returns the digest
    /// and the dispatch-plane counters.
    pub fn replay_sharded(&mut self) -> ShardedReplay {
        self.fresh_oracle();
        let mut service = self.open_sharded();
        let mut per_shard = vec![0u64; service.num_shards()];
        let started = Instant::now();
        for (i, event) in self.events.iter().enumerate() {
            if let Some(shard) = service.home_shard(event) {
                per_shard[shard] += 1;
            }
            trace::set_event(i);
            let _span = trace::enter(Kind::ShardedSubmit);
            std::hint::black_box(service.submit(*event));
        }
        let wall_s = started.elapsed().as_secs_f64();
        let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
        let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
        ShardedReplay {
            wall_s,
            digest: service.checkpoint().digest,
            handoffs: service.handoffs(),
            shard_skew: max / mean.max(1.0),
        }
    }

    /// Drives the time-dependent oracle directly: one `dis_at` per
    /// request, origin → destination at its release time, through a
    /// provider built the way `MobilityService::new` builds its own.
    pub fn drive_td(&self) -> TdDrive {
        let s = &self.scenario;
        let profile = s
            .congestion
            .clone()
            .expect("the TD workload carries a congestion profile");
        let provider = TdTravelTimeProvider::new(
            s.network.clone(),
            profile,
            s.oracle.backing_labels().cloned(),
        );
        let oracle = provider.oracle();
        let t0 = Instant::now();
        for r in &s.requests {
            std::hint::black_box(oracle.dis_at(r.origin, r.destination, r.release));
        }
        let secs = t0.elapsed().as_secs_f64();
        let stats = oracle.inner().stats();
        let (hits, misses) = oracle.dis_hit_stats();
        TdDrive {
            query_us: secs * 1e6 / s.requests.len() as f64,
            settled_per_query: stats.settled as f64 / (stats.queries as f64).max(1.0),
            cache_hit_rate: hits as f64 / ((hits + misses) as f64).max(1.0),
        }
    }

    /// Drives the codec and the WAL writer directly over the stream.
    pub fn drive_wal(&self, wal_dir: &Path) -> io::Result<WalDrive> {
        let n = self.events.len() as f64;
        let mut buf = Vec::with_capacity(64);
        let t0 = Instant::now();
        for event in &self.events {
            buf.clear();
            encode_event(event, &mut buf);
            std::hint::black_box(&buf);
        }
        let encode_ns = t0.elapsed().as_secs_f64() * 1e9 / n;

        std::fs::create_dir_all(wal_dir)?;
        let mut writer = WalWriter::create(&wal_dir.join("drive.wal"))?;
        let t0 = Instant::now();
        for event in &self.events {
            writer.append(event)?;
        }
        writer.flush()?;
        let append_ns = t0.elapsed().as_secs_f64() * 1e9 / n;
        Ok(WalDrive {
            encode_ns_per_event: encode_ns,
            append_ns_per_event: append_ns,
        })
    }
}

pub struct ShardedReplay {
    pub wall_s: f64,
    pub digest: u64,
    pub handoffs: usize,
    /// Max ÷ mean events per home shard.
    pub shard_skew: f64,
}

pub struct TdDrive {
    pub query_us: f64,
    pub settled_per_query: f64,
    pub cache_hit_rate: f64,
}

pub struct WalDrive {
    pub encode_ns_per_event: f64,
    pub append_ns_per_event: f64,
}

/// Records one leaf span per distance / path query.
struct SpanOracle(Arc<dyn DistanceOracle>);

impl DistanceOracle for SpanOracle {
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }
    fn point(&self, v: VertexId) -> Point {
        self.0.point(v)
    }
    fn top_speed_mps(&self) -> f64 {
        self.0.top_speed_mps()
    }
    fn dis(&self, u: VertexId, v: VertexId) -> Cost {
        let t0 = Instant::now();
        let d = self.0.dis(u, v);
        trace::leaf(Kind::Dis, t0);
        d
    }
    fn shortest_path(&self, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        let t0 = Instant::now();
        let p = self.0.shortest_path(u, v);
        trace::leaf(Kind::Path, t0);
        p
    }
    fn euc(&self, u: VertexId, v: VertexId) -> Cost {
        self.0.euc(u, v)
    }
    fn backing_network(&self) -> Option<&Arc<RoadNetwork>> {
        self.0.backing_network()
    }
    fn backing_labels(&self) -> Option<&Arc<HubLabels>> {
        self.0.backing_labels()
    }
}

/// Σ shortlist sizes seen by [`SpanPlanner`]s since the pass began
/// (every shard's planner adds to it).
static SHORTLISTED: AtomicU64 = AtomicU64::new(0);

/// Records one span per planner callback and, before each request is
/// planned, probes the platform's candidate shortlist the planner is
/// about to compute (size into [`SHORTLISTED`], time as its own span).
struct SpanPlanner {
    inner: PruneGreedyDp,
    /// The pass's oracle without its [`SpanOracle`], so that the probe's
    /// own `dis` query is not counted as the program's.
    unspanned: Arc<Lru>,
    buf: CandidateBuf,
}

impl Planner for SpanPlanner {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_request(&mut self, state: &mut PlatformState, r: &Request) -> PlannerReplies {
        let direct = self.unspanned.dis(r.origin, r.destination);
        let t0 = Instant::now();
        let shortlist = state.candidate_workers(r, direct, &mut self.buf).len();
        trace::leaf(Kind::ShortlistProbe, t0);
        SHORTLISTED.fetch_add(shortlist as u64, Ordering::Relaxed);
        let _span = trace::enter(Kind::OnRequest);
        self.inner.on_request(state, r)
    }
    fn on_time(&mut self, state: &mut PlatformState, now: Time) -> PlannerReplies {
        let _span = trace::enter(Kind::OnTime);
        self.inner.on_time(state, now)
    }
    fn flush(&mut self, state: &mut PlatformState) -> PlannerReplies {
        let _span = trace::enter(Kind::Flush);
        self.inner.flush(state)
    }
    fn next_wakeup(&self) -> Option<Time> {
        self.inner.next_wakeup()
    }
    fn on_cancel(&mut self, state: &mut PlatformState, r: RequestId) -> bool {
        let _span = trace::enter(Kind::OnCancel);
        self.inner.on_cancel(state, r)
    }
    fn on_worker_change(&mut self, state: &mut PlatformState, change: WorkerChange) {
        let _span = trace::enter(Kind::OnWorkerChange);
        self.inner.on_worker_change(state, change)
    }
    fn set_threads(&mut self, threads: usize) {
        self.inner.set_threads(threads)
    }
}
