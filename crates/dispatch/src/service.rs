//! [`ShardedService`] — K independent [`MobilityService`]s behind one
//! streaming entry point.
//!
//! Every event is routed to its *home shard* by
//! [`PlatformEvent::routing`]: arrivals by pickup location, joins by
//! come-online position, cancellations follow their request,
//! departures follow their worker, ticks are broadcast. Each shard owns
//! a full platform — its own `PlatformState`, boxed [`Planner`],
//! worker motion and event log — so shards never contend on state.
//!
//! One boundary rule governs the seams (the Borrow probe, DESIGN.md §6):
//! before planning, the dispatcher asks the home shard for its nearest
//! eligible worker and each of the [`BORROW_PROBE`] nearest foreign
//! shards for its nearest eligible *idle* worker, on straight-line
//! pickup distance ([`borrow_probe`]). Each read streams the shard's
//! grid nearest cell first and stops once no unread cell can beat the
//! best so far, so no shortlist is collected on either side of the
//! seam. A foreign worker that strictly beats every home candidate is
//! *handed off*: exported from its shard through the exact-accounting
//! surface ([`MobilityService::handoff_worker`] →
//! [`urpsm_core::platform::PlatformState::export_worker`]) and re-hired
//! by the home shard under its next dense local id. With K = 1 there is
//! no foreign shard and nothing is probed.
//!
//! Global worker ids are preserved at the boundary: each shard plans in
//! its own dense local id space, and every reply is translated back to
//! the global id before it enters the merged log; each `submit` returns
//! the tail of that log it appended. Replies from multi-shard steps are
//! merged deterministically by `(time, event_seq, shard_id)` —
//! single-shard steps pass through verbatim, which is why a 1-shard
//! service is *byte-identical* to a plain [`MobilityService`] (pinned by
//! `tests/shard_equivalence.rs`).

use std::ops::Range;
use std::sync::Arc;

use road_network::fxhash::FxHashMap;
use road_network::oracle::DistanceOracle;
use road_network::{Cost, VertexId};
use urpsm_core::event::{EventRouting, PlatformEvent};
use urpsm_core::planner::Planner;
use urpsm_core::platform::PlatformState;
use urpsm_core::types::{Request, RequestId, Time, Worker, WorkerId};
use urpsm_simulator::engine::{SimConfig, SimOutcome};
use urpsm_simulator::metrics::SimMetrics;
use urpsm_simulator::service::{MobilityService, ServiceCheckpoint};
use urpsm_simulator::SimEvent;

use crate::shard_map::ShardMap;

/// Bump the per-shard submitted-event counter (labelled series are
/// capped at [`urpsm_obs::MAX_SHARDS`]; higher shard ids fold into the
/// last slot).
#[inline]
fn obs_shard_event(shard: usize) {
    urpsm_obs::with(|m| m.shard_events[urpsm_obs::registry::shard_slot(shard)].inc());
}

/// How many of the nearest foreign shards the Borrow probe reads for
/// idle border workers before each arrival is planned (fewer when
/// K − 1 is smaller).
pub const BORROW_PROBE: usize = 3;

/// What the Borrow probe reads for one request ([`borrow_probe`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BorrowPick {
    /// The straight-line pickup distance (metres) of the home shard's
    /// nearest eligible worker, busy or idle; `∞` when it has none.
    pub local_best: f64,
    /// The idle foreign worker that strictly beats `local_best`, as
    /// `(distance, shard, local id)`: the lexicographic minimum of
    /// `(distance, position in the probe order, local id)`. `None`
    /// when no probed worker beats the home shard: ties stay home.
    pub winner: Option<(f64, usize, WorkerId)>,
}

/// The Borrow probe's selection for `r` (`direct` is `L = dis(o_r,
/// d_r)`): one nearest-candidate read on the `home` platform, busy or
/// idle, then one per `foreign` platform, in probe order, for the
/// nearest idle worker within the best distance so far — `local_best`
/// first, then each new winner's. A shard wins only by being strictly
/// nearer, so ties go home, then to the earlier shard; within a shard
/// they go to the lower local id. Every read is
/// [`PlatformState::nearest_candidate`], the eligibility seam's reach
/// radius and class filter, so a borrowed worker is one the shortlist
/// would have offered.
pub fn borrow_probe<'a>(
    home: &PlatformState,
    foreign: impl IntoIterator<Item = (usize, &'a PlatformState)>,
    r: &Request,
    direct: Cost,
) -> BorrowPick {
    let local_best = home
        .nearest_candidate(r, direct, false, f64::INFINITY)
        .map_or(f64::INFINITY, |(d, _)| d);
    let mut winner = None;
    let mut cap = local_best;
    for (s, state) in foreign {
        // Only idle workers change jurisdiction.
        if let Some((d, w)) = state.nearest_candidate(r, direct, true, cap) {
            if d < cap {
                winner = Some((d, s, w));
                cap = d;
            }
        }
    }
    BorrowPick { local_best, winner }
}

/// Configuration of the sharded dispatch plane.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of geo-shards `K` (clamped to ≥ 1).
    pub shards: usize,
    /// Per-shard simulation parameters (grid cell, α, drain,
    /// congestion, classes).
    pub sim: SimConfig,
}

impl Default for ShardConfig {
    /// One shard (byte-identical to `MobilityService`).
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            sim: SimConfig::default(),
        }
    }
}

/// One shard's slice of a drained [`ShardedOutcome`].
pub struct ShardReport {
    /// The shard id (index into the [`ShardMap`] lattice).
    pub shard: usize,
    /// Workers handed *into* this shard by the Borrow probe.
    pub handoffs_in: usize,
    /// Workers handed *out of* this shard by the Borrow probe.
    pub handoffs_out: usize,
    /// The shard's own full outcome (local worker ids): per-shard
    /// metrics, final platform state, local event log, audit verdict.
    pub outcome: SimOutcome,
}

/// Everything a drained [`ShardedService`] produces: the per-shard
/// outcomes plus their deterministic roll-up.
pub struct ShardedOutcome {
    /// City-wide metrics: counts and costs are exact sums over shards;
    /// `planning_time` is the summed planner wall-clock.
    pub metrics: SimMetrics,
    /// The merged, global-id event log.
    pub events: Vec<SimEvent>,
    /// Audit findings from every shard, each prefixed with its shard id
    /// (empty = every shard replayed clean).
    pub audit_errors: Vec<String>,
    /// Total cross-shard worker handoffs performed.
    pub handoffs: usize,
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardReport>,
}

impl ShardedOutcome {
    /// Σ over shards of committed planned distance — equals
    /// `metrics.driven_distance` after a drained run (each shard's
    /// audit asserts its own half of that equality).
    pub fn total_assigned_distance(&self) -> Cost {
        self.shards
            .iter()
            .map(|s| s.outcome.state.total_assigned_distance())
            .sum()
    }
}

/// One shard: a full platform plus the local↔global id seam.
struct Shard<'p> {
    service: MobilityService<'p>,
    /// Local worker id → global worker id.
    to_global: Vec<WorkerId>,
    /// Watermark into `service.events()`: everything before it has
    /// already been translated into the merged log.
    seen: usize,
    handoffs_in: usize,
    handoffs_out: usize,
}

/// Translates a shard-local event to global worker ids through the
/// shard's `local → global` map.
fn translate(to_global: &[WorkerId], ev: SimEvent) -> SimEvent {
    let g = |w: WorkerId| to_global[w.idx()];
    match ev {
        SimEvent::Assigned { t, r, w, delta } => SimEvent::Assigned {
            t,
            r,
            w: g(w),
            delta,
        },
        SimEvent::Pickup { t, r, w } => SimEvent::Pickup { t, r, w: g(w) },
        SimEvent::Delivery { t, r, w } => SimEvent::Delivery { t, r, w: g(w) },
        SimEvent::Unassigned { t, r, w, freed } => SimEvent::Unassigned {
            t,
            r,
            w: g(w),
            freed,
        },
        SimEvent::WorkerJoined { t, w } => SimEvent::WorkerJoined { t, w: g(w) },
        SimEvent::WorkerLeft { t, w } => SimEvent::WorkerLeft { t, w: g(w) },
        SimEvent::Rejected { .. } | SimEvent::Cancelled { .. } => ev,
    }
}

/// The plane's one merge: appends shard-local log tails — each given
/// as `(shard, tail, local → global map)`, in shard order — to the
/// merged log, translated to global worker ids. The tails are
/// interleaved position-major; a single tail so passes through
/// verbatim, and several are then stably sorted by time, which orders
/// them by `(time, position in tail, shard)` — deterministic because
/// each shard's log is deterministic and the key is total.
fn merge_tails<'a, I>(merged: &mut Vec<SimEvent>, tails: I)
where
    I: IntoIterator<Item = (usize, &'a [SimEvent], &'a [WorkerId])>,
    I::IntoIter: Clone,
{
    let tails = tails.into_iter();
    debug_assert!(tails.clone().map(|(s, ..)| s).is_sorted());
    let mark = merged.len();
    let longest = tails.clone().map(|(_, tail, _)| tail.len()).max();
    for seq in 0..longest.unwrap_or(0) {
        for (_, tail, to_global) in tails.clone() {
            if let Some(&ev) = tail.get(seq) {
                merged.push(translate(to_global, ev));
            }
        }
    }
    if tails.count() > 1 {
        merged[mark..].sort_by_key(SimEvent::time);
    }
}

/// The geo-sharded dispatch plane: `K` independent platforms, one
/// streaming entry point, global worker ids at the boundary.
pub struct ShardedService<'p> {
    map: ShardMap,
    shards: Vec<Shard<'p>>,
    oracle: Arc<dyn DistanceOracle>,
    /// Global worker id → (owning shard, local id). Ownership moves
    /// only through a handoff.
    owner: Vec<(usize, WorkerId)>,
    /// Request id → home shard (assigned at arrival, immutable).
    request_home: FxHashMap<RequestId, usize>,
    /// The merged, global-id event log.
    events: Vec<SimEvent>,
    last_time: Time,
}

impl<'p> ShardedService<'p> {
    /// Opens a sharded service at `start_time`. The initial fleet is
    /// partitioned by worker origin; `planners` is called once per
    /// shard (in shard order) to build that shard's planner — shards
    /// must not share mutable planner state.
    ///
    /// # Panics
    /// If `workers` are not densely indexed by id (the same contract as
    /// [`urpsm_core::platform::PlatformState::new`]).
    pub fn new<F>(
        oracle: Arc<dyn DistanceOracle>,
        workers: Vec<Worker>,
        mut planners: F,
        config: ShardConfig,
        start_time: Time,
    ) -> Self
    where
        F: FnMut(usize) -> Box<dyn Planner + 'p>,
    {
        let k = config.shards.max(1);
        let bbox = road_network::geo::BoundingBox::around(
            (0..oracle.num_vertices()).map(|i| oracle.point(VertexId(i as u32))),
        );
        let map = ShardMap::new(bbox, k);

        // Partition the fleet by origin, handing out dense local ids in
        // global id order (so K = 1 is the identity mapping).
        let mut fleets: Vec<Vec<Worker>> = vec![Vec::new(); map.shards()];
        let mut to_global: Vec<Vec<WorkerId>> = vec![Vec::new(); map.shards()];
        let mut owner = Vec::with_capacity(workers.len());
        for (i, w) in workers.iter().enumerate() {
            assert_eq!(w.id.idx(), i, "workers must be densely indexed by id");
            let s = map.shard_of(oracle.point(w.origin));
            let local = WorkerId(fleets[s].len() as u32);
            fleets[s].push(Worker { id: local, ..*w });
            to_global[s].push(w.id);
            owner.push((s, local));
        }

        let shards = fleets
            .into_iter()
            .zip(to_global)
            .enumerate()
            .map(|(s, (fleet, to_global))| Shard {
                service: MobilityService::new(
                    Arc::clone(&oracle),
                    fleet,
                    planners(s),
                    config.sim.clone(),
                    start_time,
                ),
                to_global,
                seen: 0,
                handoffs_in: 0,
                handoffs_out: 0,
            })
            .collect();

        urpsm_obs::with(|m| m.shards_live.observe_max(k as u64));
        ShardedService {
            map,
            shards,
            oracle,
            owner,
            request_home: FxHashMap::default(),
            events: Vec::new(),
            last_time: start_time,
        }
    }

    /// Number of shards `K`.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The geographic partition.
    #[inline]
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Current dispatch-plane time (the largest event time seen).
    #[inline]
    pub fn now(&self) -> Time {
        self.last_time
    }

    /// Cross-shard worker handoffs performed so far.
    #[inline]
    pub fn handoffs(&self) -> usize {
        self.shards.iter().map(|s| s.handoffs_in).sum()
    }

    /// The merged, global-id event log accumulated so far.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// The home shard of a vertex.
    #[inline]
    pub fn shard_of_vertex(&self, v: VertexId) -> usize {
        self.map.shard_of(self.oracle.point(v))
    }

    /// The shard that handles this event right now: `Some(shard)` for
    /// single-shard events, `None` for broadcasts (ticks). This is the
    /// plane's one routing table — [`ShardedService::submit`] delivers
    /// to the shard it names, and the ingestion plane's admission
    /// controller keys its per-shard queue depths and tick budgets off
    /// it (DESIGN.md §9) *before* deciding whether to submit at all.
    ///
    /// Events that name nothing the plane knows resolve to shard 0,
    /// which shrugs them off exactly like a plain [`MobilityService`]:
    /// a cancellation for a not-yet-seen request, a departure for an
    /// unknown worker, an arrival or join anchored off the network.
    pub fn home_shard(&self, event: &PlatformEvent) -> Option<usize> {
        match event.routing() {
            EventRouting::Origin(anchor) if self.on_network(anchor) => {
                Some(self.shard_of_vertex(anchor))
            }
            EventRouting::Origin(_) => Some(0),
            EventRouting::Request(request) => {
                Some(self.request_home.get(&request).copied().unwrap_or(0))
            }
            EventRouting::Worker(worker) => Some(self.worker_shard(worker).unwrap_or(0)),
            EventRouting::Broadcast => None,
        }
    }

    /// Cuts a [`ServiceCheckpoint`] over the *merged* event log — the
    /// same progress fingerprint as
    /// [`MobilityService::checkpoint`], taken at the dispatch plane's
    /// deterministic merge boundary. Because the merged log and the
    /// plane clock are pure functions of the input event sequence, a
    /// recovery replay that reproduces this triple has reconstructed
    /// every shard byte-for-byte.
    pub fn checkpoint(&self) -> ServiceCheckpoint {
        ServiceCheckpoint {
            events: self.events.len() as u64,
            last_time: self.last_time,
            digest: urpsm_simulator::event_log_digest(&self.events),
        }
    }

    /// The shard currently owning a worker, if the worker exists.
    pub fn worker_shard(&self, w: WorkerId) -> Option<usize> {
        self.owner.get(w.idx()).map(|&(s, _)| s)
    }

    /// Feeds one event into the plane, routing it to its
    /// [`home_shard`](ShardedService::home_shard) (broadcasting ticks),
    /// and returns everything it caused across all shards — translated
    /// to global worker ids and merged deterministically. The reply is
    /// the tail of the merged log this call appended, borrowed until
    /// the next call.
    pub fn submit(&mut self, event: PlatformEvent) -> &[SimEvent] {
        let mark = self.events.len();
        let t = event.time().max(self.last_time);
        self.last_time = t;
        let Some(home) = self.home_shard(&event) else {
            self.broadcast(event);
            return &self.events[mark..];
        };
        obs_shard_event(home);
        let fleet = self.shards[home].service.state().num_workers();
        // The shard plans in its own dense worker-id space: worker ids
        // are localised on the way in. An id the plane cannot localise
        // (a join that skips a global id, a departure of an unknown
        // worker) or must not take again (a reused request id) leaves
        // only the event's clock advance to deliver.
        let local = match event {
            // A reused request id is dropped like a malformed join: the
            // first arrival of an id is the request (DESIGN.md §1).
            PlatformEvent::RequestArrived(r) if self.request_home.contains_key(&r.id) => {
                PlatformEvent::Tick { at: t }
            }
            PlatformEvent::RequestArrived(r) => {
                self.request_home.insert(r.id, home);
                if self.shards.len() > 1
                    && self.on_network(r.origin)
                    && self.on_network(r.destination)
                {
                    // Synchronize every shard to `t` so the probe reads
                    // current positions, then maybe borrow.
                    self.broadcast(PlatformEvent::Tick { at: t });
                    self.maybe_borrow(&r, t, home);
                }
                event
            }
            PlatformEvent::WorkerJoined { at, worker } if worker.id.idx() == self.owner.len() => {
                PlatformEvent::WorkerJoined {
                    at,
                    worker: Worker {
                        id: WorkerId(fleet as u32),
                        ..worker
                    },
                }
            }
            PlatformEvent::WorkerJoined { .. } => PlatformEvent::Tick { at: t },
            PlatformEvent::WorkerLeft {
                at,
                worker,
                reassign,
            } => match self.owner.get(worker.idx()) {
                Some(&(_, local)) => PlatformEvent::WorkerLeft {
                    at,
                    worker: local,
                    reassign,
                },
                None => PlatformEvent::Tick { at: t },
            },
            PlatformEvent::RequestCancelled { .. } | PlatformEvent::Tick { .. } => event,
        };
        let shard = &mut self.shards[home];
        shard.service.submit(local);
        // The shard has the last word on a join (its class table, its
        // network): the plane registers ownership only once the
        // shard's fleet has actually grown.
        if let PlatformEvent::WorkerJoined { worker, .. } = event {
            if shard.service.state().num_workers() > fleet {
                shard.to_global.push(worker.id);
                self.owner.push((home, WorkerId(fleet as u32)));
            }
        }
        self.collect(home..home + 1);
        &self.events[mark..]
    }

    /// Ends the stream: drains every shard (flush, route drain, audit),
    /// merges the tails, and rolls the per-shard metrics up.
    pub fn drain(mut self) -> ShardedOutcome {
        let handoffs = self.handoffs();
        let mut seams = Vec::with_capacity(self.shards.len());
        let reports: Vec<ShardReport> = self
            .shards
            .into_iter()
            .enumerate()
            .map(|(s, shard)| {
                seams.push((shard.seen, shard.to_global));
                ShardReport {
                    shard: s,
                    handoffs_in: shard.handoffs_in,
                    handoffs_out: shard.handoffs_out,
                    outcome: shard.service.drain(),
                }
            })
            .collect();
        merge_tails(
            &mut self.events,
            reports.iter().zip(&seams).map(|(r, (seen, to_global))| {
                (r.shard, &r.outcome.events[*seen..], &to_global[..])
            }),
        );

        let (first, rest) = reports.split_first().expect("K ≥ 1");
        let mut metrics = first.outcome.metrics.clone();
        for r in rest {
            metrics.absorb(&r.outcome.metrics);
        }
        let audit_errors = reports
            .iter()
            .flat_map(|r| {
                r.outcome
                    .audit_errors
                    .iter()
                    .map(move |e| format!("shard {}: {e}", r.shard))
            })
            .collect();
        ShardedOutcome {
            metrics,
            events: self.events,
            audit_errors,
            handoffs,
            shards: reports,
        }
    }

    // ── internals ────────────────────────────────────────────────────

    /// Whether `v` is a vertex of the network — checked before an
    /// event-supplied vertex is located on the shard map.
    fn on_network(&self, v: VertexId) -> bool {
        v.idx() < self.oracle.num_vertices()
    }

    /// Delivers `event` to every shard and merges the replies.
    fn broadcast(&mut self, event: PlatformEvent) {
        for shard in &mut self.shards {
            shard.service.submit(event);
        }
        self.collect(0..self.shards.len())
    }

    /// Moves every event the touched shards produced since their last
    /// collect into the merged log ([`merge_tails`]).
    fn collect(&mut self, touched: Range<usize>) {
        let shards = &self.shards;
        merge_tails(
            &mut self.events,
            touched.clone().map(|s| {
                let shard = &shards[s];
                (
                    s,
                    &shard.service.events()[shard.seen..],
                    &shard.to_global[..],
                )
            }),
        );
        for s in touched {
            self.shards[s].seen = self.shards[s].service.events().len();
        }
    }

    /// The Borrow probe for one request: read the home shard's nearest
    /// eligible worker and the nearest eligible idle worker of each of
    /// the [`BORROW_PROBE`] nearest foreign shards ([`borrow_probe`]),
    /// and hand a foreign worker that is strictly nearer to the pickup
    /// than every home candidate off to the home shard. Each read walks
    /// its shard's grid nearest cell first and stops at the best
    /// distance so far, so the probe collects no shortlist. All reads
    /// are against shard snapshots at the request's arrival time (every
    /// shard was just ticked to `t`), so the probe is deterministic.
    fn maybe_borrow(&mut self, r: &Request, t: Time, home: usize) {
        urpsm_obs::with(|m| m.borrow_probes.inc());
        let direct = self.oracle.dis(r.origin, r.destination);
        let order = self.map.nearest_order(self.oracle.point(r.origin));
        let foreign = order.iter().filter(|&&s| s != home).take(BORROW_PROBE);
        let pick = borrow_probe(
            self.shards[home].service.state(),
            foreign.map(|&s| (s, self.shards[s].service.state())),
            r,
            direct,
        );
        let Some((_, src, local)) = pick.winner else {
            return;
        };
        let Some(ticket) = self.shards[src].service.handoff_worker(local) else {
            return; // raced into busyness: impossible today, safe anyway
        };
        let global = self.shards[src].to_global[local.idx()];
        let new_local = WorkerId(self.shards[home].service.state().num_workers() as u32);
        self.owner[global.idx()] = (home, new_local);
        self.shards[home].to_global.push(global);
        self.shards[home]
            .service
            .submit(PlatformEvent::WorkerJoined {
                at: t,
                worker: Worker {
                    id: new_local,
                    origin: ticket.position,
                    capacity: ticket.capacity,
                    class: ticket.class,
                },
            });
        self.shards[src].handoffs_out += 1;
        self.shards[home].handoffs_in += 1;
        urpsm_obs::with(|m| {
            m.borrow_wins.inc();
            m.shard_handoffs.inc();
            m.ring.record(
                urpsm_obs::TraceKind::ShardHandoff,
                global.idx() as u64,
                src as u64,
                home as u64,
                0,
            );
        });
        // Two single-shard (verbatim) collects, source first, so the
        // merged log always reads departure-then-rejoin — a sorted
        // two-shard merge would flip them whenever `home < src`.
        self.collect(src..src + 1);
        self.collect(home..home + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;
    use urpsm_core::event::ReassignPolicy;
    use urpsm_core::planner::PruneGreedyDp;

    /// A 1 m-spaced line of `n` vertices, 100 cs per edge, 1 m/s top
    /// speed — the same metric as the simulator's own tests. With
    /// K = 2 the west half (x < n/2) is shard 0, the east half shard 1.
    fn line_oracle(n: usize) -> Arc<dyn DistanceOracle> {
        let mut b = road_network::builder::NetworkBuilder::new();
        for i in 0..n {
            b.add_vertex(Point::new(i as f64, 0.0));
        }
        for i in 1..n as u32 {
            b.add_edge_with_cost(VertexId(i - 1), VertexId(i), 100)
                .unwrap();
        }
        b.set_top_speed_mps(1.0);
        Arc::new(MatrixOracle::from_network(&b.finish().unwrap()))
    }

    fn fleet(origins: &[u32]) -> Vec<Worker> {
        origins
            .iter()
            .enumerate()
            .map(|(i, &v)| Worker {
                class: Default::default(),
                id: WorkerId(i as u32),
                origin: VertexId(v),
                capacity: 4,
            })
            .collect()
    }

    fn req(id: u32, o: u32, d: u32, release: Time, deadline: Time) -> Request {
        Request {
            class: Default::default(),
            id: RequestId(id),
            origin: VertexId(o),
            destination: VertexId(d),
            release,
            deadline,
            penalty: 1_000_000,
            capacity: 1,
        }
    }

    fn sharded(origins: &[u32], shards: usize) -> ShardedService<'static> {
        ShardedService::new(
            line_oracle(50),
            fleet(origins),
            |_| Box::new(PruneGreedyDp::new()),
            ShardConfig {
                shards,
                sim: SimConfig::default(),
            },
            0,
        )
    }

    fn pickup(t: Time, r: u32, w: u32) -> SimEvent {
        SimEvent::Pickup {
            t,
            r: RequestId(r),
            w: WorkerId(w),
        }
    }

    #[test]
    fn merge_tails_passes_one_tail_through_and_orders_several() {
        let old = pickup(0, 99, 0);
        // One tail, out of time order: appended verbatim, ids
        // translated.
        let mut merged = vec![old];
        let tail = [pickup(30, 0, 0), pickup(10, 1, 1), pickup(20, 2, 0)];
        let to_global = [WorkerId(7), WorkerId(3)];
        merge_tails(&mut merged, [(2, &tail[..], &to_global[..])]);
        assert_eq!(
            merged,
            [old, pickup(30, 0, 7), pickup(10, 1, 3), pickup(20, 2, 7)]
        );

        // Three tails tied at t = 10 across shards. Shard 1 holds two
        // events at that time, so its second (position 1) must follow
        // shard 2's first (position 0): `(time, position, shard)`.
        let s0 = [pickup(10, 0, 0), pickup(20, 1, 0)];
        let s1 = [pickup(10, 2, 0), pickup(10, 3, 0)];
        let s2 = [pickup(10, 4, 0), pickup(15, 5, 0), pickup(5, 6, 0)];
        let maps = [[WorkerId(100)], [WorkerId(101)], [WorkerId(102)]];
        let mut merged = vec![old];
        merge_tails(
            &mut merged,
            [&s0[..], &s1[..], &s2[..]]
                .into_iter()
                .zip(&maps)
                .enumerate()
                .map(|(s, (tail, map))| (s, tail, &map[..])),
        );
        assert_eq!(
            merged,
            [
                old,
                pickup(5, 6, 102),
                pickup(10, 0, 100),
                pickup(10, 2, 101),
                pickup(10, 4, 102),
                pickup(10, 3, 101),
                pickup(15, 5, 102),
                pickup(20, 1, 100),
            ]
        );
    }

    #[test]
    fn fleet_partitions_by_origin_and_ids_stay_global() {
        let svc = sharded(&[2, 48, 4], 2);
        assert_eq!(svc.num_shards(), 2);
        assert_eq!(svc.worker_shard(WorkerId(0)), Some(0));
        assert_eq!(svc.worker_shard(WorkerId(1)), Some(1));
        assert_eq!(svc.worker_shard(WorkerId(2)), Some(0));
        assert_eq!(svc.worker_shard(WorkerId(9)), None);
        assert_eq!(svc.shard_of_vertex(VertexId(0)), 0);
        assert_eq!(svc.shard_of_vertex(VertexId(49)), 1);
    }

    #[test]
    fn borrow_policy_hands_an_idle_border_worker_off() {
        // Shard 0 has no workers; shard 1 idles a worker at vertex 30
        // (global id 1), which must cross the seam and serve the
        // shard-0 request.
        let mut svc = sharded(&[45, 30], 2);
        let replies = svc.submit(PlatformEvent::RequestArrived(req(0, 20, 10, 0, 100_000)));
        assert!(
            replies
                .iter()
                .any(|e| matches!(e, SimEvent::Assigned { r, w, .. }
                    if *r == RequestId(0) && *w == WorkerId(1))),
            "borrow must rescue the request with global worker 1: {replies:?}"
        );
        // The handoff is visible in the log as a departure + a join of
        // the same global worker.
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::WorkerLeft { w, .. } if *w == WorkerId(1))));
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::WorkerJoined { w, .. } if *w == WorkerId(1))));
        assert_eq!(svc.handoffs(), 1);
        assert_eq!(svc.worker_shard(WorkerId(1)), Some(0));

        let out = svc.drain();
        assert_eq!(out.audit_errors, Vec::<String>::new());
        assert_eq!(out.metrics.served, 1);
        assert_eq!(out.metrics.driven_distance, out.total_assigned_distance());
        assert_eq!(out.shards[0].handoffs_in, 1);
        assert_eq!(out.shards[1].handoffs_out, 1);
    }

    #[test]
    fn borrow_ties_and_busy_workers_stay_home() {
        // Shard 0's own worker at vertex 20 is strictly closer than the
        // foreign one at 30: no handoff happens.
        let mut svc = sharded(&[20, 30], 2);
        let replies = svc.submit(PlatformEvent::RequestArrived(req(0, 18, 10, 0, 100_000)));
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::Assigned { w, .. } if *w == WorkerId(0))));
        assert_eq!(svc.handoffs(), 0);

        // A busy foreign worker never crosses, even when it is closer:
        // occupy worker 1 with an eastbound trip, then ask from shard 0.
        svc.submit(PlatformEvent::RequestArrived(req(1, 30, 45, 100, 100_000)));
        let replies = svc.submit(PlatformEvent::RequestArrived(req(2, 24, 10, 200, 10_000)));
        assert!(
            replies
                .iter()
                .any(|e| matches!(e, SimEvent::Assigned { r, w, .. }
                    if *r == RequestId(2) && *w == WorkerId(0))),
            "{replies:?}"
        );
        assert_eq!(svc.handoffs(), 0);
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
    }

    #[test]
    fn departures_follow_handed_off_workers() {
        let mut svc = sharded(&[45, 30], 2);
        svc.submit(PlatformEvent::RequestArrived(req(0, 20, 10, 0, 100_000)));
        assert_eq!(svc.worker_shard(WorkerId(1)), Some(0));
        // Worker 1 now lives in shard 0; its departure must route there
        // and strip the pending request for re-offer (which only worker
        // 1 could serve — so it is re-rejected by the empty shard).
        let replies = svc.submit(PlatformEvent::WorkerLeft {
            at: 100,
            worker: WorkerId(1),
            reassign: ReassignPolicy::Reassign,
        });
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::Unassigned { r, w, .. }
                if *r == RequestId(0) && *w == WorkerId(1))));
        let out = svc.drain();
        assert!(out.audit_errors.is_empty(), "{:?}", out.audit_errors);
        assert_eq!(out.metrics.served + out.metrics.rejected, 1);
    }

    #[test]
    fn malformed_fleet_events_are_dropped_not_fatal() {
        let mut svc = sharded(&[5], 2);
        // A join that skips a global id and an unknown departure: both
        // dropped (the clock still advances somewhere deterministic).
        assert!(svc
            .submit(PlatformEvent::WorkerJoined {
                at: 10,
                worker: Worker {
                    class: Default::default(),
                    id: WorkerId(7),
                    origin: VertexId(3),
                    capacity: 2,
                },
            })
            .is_empty());
        assert!(svc
            .submit(PlatformEvent::WorkerLeft {
                at: 20,
                worker: WorkerId(99),
                reassign: ReassignPolicy::Drain,
            })
            .is_empty());
        // A dense join lands in its home shard with a fresh local id.
        let replies = svc.submit(PlatformEvent::WorkerJoined {
            at: 30,
            worker: Worker {
                class: Default::default(),
                id: WorkerId(1),
                origin: VertexId(48),
                capacity: 4,
            },
        });
        assert!(matches!(
            replies[..],
            [SimEvent::WorkerJoined { w: WorkerId(1), .. }]
        ));
        assert_eq!(svc.worker_shard(WorkerId(1)), Some(1));
        // What the codec can spell and a WAL can therefore replay: a
        // dense join whose class is not in the shard's table, and a
        // dense join that comes online off the network. The shard drops
        // both, so the plane must not register an owner for them.
        for (class, origin) in [(3, 48), (0, 999)] {
            let replies = svc.submit(PlatformEvent::WorkerJoined {
                at: 40,
                worker: Worker {
                    class: urpsm_core::types::ClassId(class),
                    id: WorkerId(2),
                    origin: VertexId(origin),
                    capacity: 4,
                },
            });
            assert!(replies.is_empty(), "{replies:?}");
            assert_eq!(svc.worker_shard(WorkerId(2)), None);
        }
        assert_eq!(svc.now(), 40, "a dropped event still advances the clock");
        // A trip with an endpoint off the network is unreachable:
        // rejected by its home shard (shard 0 when the pickup is the
        // stray end), never probed across a seam, never planned.
        for (id, o, d, home) in [(7, 999, 10, 0), (8, 40, 999, 1)] {
            let arrival = PlatformEvent::RequestArrived(req(id, o, d, 50, 100_000));
            assert_eq!(svc.home_shard(&arrival), Some(home));
            let replies = svc.submit(arrival);
            assert!(
                matches!(replies[..], [SimEvent::Rejected { r, .. }] if r == RequestId(id)),
                "{replies:?}"
            );
        }
        // The plane is intact: the next dense join and a well-formed
        // trip for it go through, and ownership matches the fleets.
        svc.submit(PlatformEvent::WorkerJoined {
            at: 60,
            worker: Worker {
                class: Default::default(),
                id: WorkerId(2),
                origin: VertexId(30),
                capacity: 4,
            },
        });
        assert_eq!(svc.worker_shard(WorkerId(2)), Some(1));
        let replies = svc.submit(PlatformEvent::RequestArrived(req(0, 31, 35, 70, 100_000)));
        assert!(
            matches!(replies[..], [SimEvent::Assigned { w: WorkerId(2), .. }]),
            "{replies:?}"
        );
        let out = svc.drain();
        assert_eq!(out.audit_errors, Vec::<String>::new());
        let fleets: Vec<usize> = out
            .shards
            .iter()
            .map(|s| s.outcome.state.num_workers())
            .collect();
        assert_eq!(fleets, [1, 2], "owner and to_global grew with the fleets");
        assert_eq!(out.metrics.served, 1);
        assert_eq!(out.metrics.rejected, 2);
    }

    #[test]
    fn home_shard_mirrors_submit_routing() {
        let mut svc = sharded(&[5, 45], 2);
        let arrival = PlatformEvent::RequestArrived(req(0, 40, 46, 0, 100_000));
        assert_eq!(svc.home_shard(&arrival), Some(1));
        // Before the arrival is submitted the cancel falls back to
        // shard 0 (exactly where submit would shrug it off) …
        let cancel = PlatformEvent::RequestCancelled {
            at: 100,
            request: RequestId(0),
        };
        assert_eq!(svc.home_shard(&cancel), Some(0));
        svc.submit(arrival);
        // … and follows the request home afterwards.
        assert_eq!(svc.home_shard(&cancel), Some(1));
        assert_eq!(
            svc.home_shard(&PlatformEvent::WorkerLeft {
                at: 200,
                worker: WorkerId(1),
                reassign: ReassignPolicy::Drain,
            }),
            Some(1)
        );
        assert_eq!(
            svc.home_shard(&PlatformEvent::WorkerLeft {
                at: 200,
                worker: WorkerId(99),
                reassign: ReassignPolicy::Drain,
            }),
            Some(0),
            "unknown workers fall back to shard 0, like submit"
        );
        assert_eq!(svc.home_shard(&PlatformEvent::Tick { at: 300 }), None);
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
    }

    #[test]
    fn checkpoints_fingerprint_the_merged_log() {
        let feed = |svc: &mut ShardedService<'static>| {
            svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 0, 100_000)));
            svc.submit(PlatformEvent::RequestArrived(req(1, 44, 40, 100, 100_000)));
            svc.submit(PlatformEvent::Tick { at: 500 });
        };
        let mut a = sharded(&[5, 45], 2);
        let mut b = sharded(&[5, 45], 2);
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a.checkpoint(), b.checkpoint());
        assert_eq!(a.checkpoint().events, a.events().len() as u64);
        let before = b.checkpoint();
        b.submit(PlatformEvent::RequestCancelled {
            at: 600,
            request: RequestId(1),
        });
        assert_ne!(before.digest, b.checkpoint().digest);
    }

    #[test]
    fn cancellations_follow_their_request_home() {
        let mut svc = sharded(&[5, 45], 2);
        svc.submit(PlatformEvent::RequestArrived(req(0, 40, 46, 0, 100_000)));
        let replies = svc.submit(PlatformEvent::RequestCancelled {
            at: 100,
            request: RequestId(0),
        });
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::Cancelled { r, .. } if *r == RequestId(0))));
        // Unknown request: deterministically shrugged off.
        assert!(svc
            .submit(PlatformEvent::RequestCancelled {
                at: 200,
                request: RequestId(77),
            })
            .is_empty());
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
        assert_eq!(out.metrics.cancelled, 1);
    }
}
