//! [`MobilityService`] — the streaming facade of the platform.
//!
//! The paper's setting is online (§2): requests "arrive dynamically and
//! must be served immediately and irrevocably". This type is that
//! setting as an API. It owns a [`PlatformState`] and a boxed
//! [`Planner`], and consumes one [`PlatformEvent`] at a time through
//! [`MobilityService::submit`] — from a simulator replaying a trace, a
//! test feeding a hand-written interleaving, or a live ingestion loop
//! reading a socket. No complete-future-knowledge is required: the
//! service never looks past the event it was just handed.
//!
//! Each `submit` returns the tail of the event log it appended —
//! planner decisions, pickups/deliveries passed while moving workers
//! forward, cancellation acknowledgements, fleet changes. When the
//! stream ends, [`MobilityService::drain`] flushes planner buffers,
//! lets workers finish their routes, and produces the run's
//! [`SimOutcome`] report. This is the only way a run is opened: a
//! recorded stream is replayed by submitting its arrivals and draining.
//!
//! The two URPSM constraints survive every event: a cancellation frees
//! only un-picked stops (an onboard rider is delivered regardless), and
//! a departing worker either drains its committed route or hands its
//! un-picked requests back through the planner
//! ([`ReassignPolicy`]) — never abandoning anyone mid-ride.

use std::sync::Arc;
use std::time::{Duration, Instant};

use road_network::fxhash::FxHashMap;
use road_network::oracle::DistanceOracle;
use road_network::{Cost, VertexId};
use urpsm_core::event::{PlatformEvent, ReassignPolicy, WorkerChange};
use urpsm_core::planner::{reply_one, Planner, PlannerReplies};
use urpsm_core::platform::{CancelOutcome, HandoffTicket, Outcome, PlatformState, DUE_BLOCK};
use urpsm_core::types::{Request, RequestId, Stop, StopKind, Time, Worker, WorkerId};

use crate::audit::audit_events;
use crate::engine::{SimConfig, SimOutcome};
use crate::metrics::SimMetrics;
use crate::motion::WorkerMotion;
use crate::SimEvent;

/// A logical snapshot of a service's progress, cheap enough to cut
/// after every micro-batch: the event-log length, the platform clock,
/// and an order-sensitive digest of the full log
/// ([`crate::event_log_digest`]).
///
/// Because the platform is deterministic — the same input event
/// sequence always produces the same log — this triple *is* the state
/// for recovery purposes: a replay that reaches the same checkpoint has
/// reconstructed the same platform, byte for byte. The ingestion
/// plane's snapshots (DESIGN.md §9) persist exactly this next to the
/// WAL offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceCheckpoint {
    /// Number of events in the service's log.
    pub events: u64,
    /// Current platform time.
    pub last_time: Time,
    /// [`crate::event_log_digest`] of the log.
    pub digest: u64,
}

/// The event-driven mobility platform: state + planner + worker motion
/// behind a single streaming entry point.
pub struct MobilityService<'p> {
    state: PlatformState,
    planner: Box<dyn Planner + 'p>,
    oracle: Arc<dyn DistanceOracle>,
    motions: Vec<WorkerMotion>,
    /// The one buffer every motion walks a static leg into, lent to
    /// [`WorkerMotion::advance`] (DESIGN.md §8).
    walk: Vec<(VertexId, Cost)>,
    /// Every request ever submitted, by id (reassignment re-offers need
    /// the full request, not just its id).
    registry: FxHashMap<RequestId, Request>,
    /// Requests in arrival order (the audit's universe).
    arrived: Vec<Request>,
    events: Vec<SimEvent>,
    config: SimConfig,
    last_time: Time,
    planning_time: Duration,
    /// Reference model for the motion index: advance by a sweep over
    /// every worker instead (see `service_motion_tests.rs`).
    #[cfg(test)]
    full_sweep: bool,
    /// Blocks of the due index whose entries `advance_all` read.
    #[cfg(test)]
    due_blocks_read: u64,
}

impl<'p> MobilityService<'p> {
    /// Opens a service at `start_time` with an initial fleet. The
    /// planner is boxed so callers can hand over ownership
    /// (`Box::new(planner)`) or lend it (`Box::new(&mut planner)`, via
    /// the `impl Planner for &mut P` adapter) and keep reading its
    /// statistics afterwards.
    pub fn new(
        oracle: Arc<dyn DistanceOracle>,
        workers: Vec<Worker>,
        planner: Box<dyn Planner + 'p>,
        config: SimConfig,
        start_time: Time,
    ) -> Self {
        let mut state = PlatformState::new(
            Arc::clone(&oracle),
            &workers,
            config.grid_cell_m,
            start_time,
        );
        if let Some(profile) = &config.congestion {
            // Two provider flavors (DESIGN.md §7 vs §10): the PR-5
            // profile *overlay* stretches schedules along free-flow
            // paths; with `td_oracle` and a graph-backed oracle, the
            // time-dependent oracle *reroutes* — schedules follow the
            // path that is shortest at the departure time. Matrix-style
            // oracles expose no graph and keep the overlay.
            let provider: Arc<dyn road_network::congestion::TravelTimeProvider> =
                match (config.td_oracle, oracle.backing_network()) {
                    (true, Some(g)) => Arc::new(road_network::td::TdTravelTimeProvider::new(
                        g.clone(),
                        profile.clone(),
                        oracle.backing_labels().cloned(),
                    )),
                    _ => profile.clone(),
                };
            state.set_congestion(Some(provider));
        }
        if let Some(classes) = &config.classes {
            state.set_classes(Arc::clone(classes));
        }
        let motions = vec![WorkerMotion::default(); workers.len()];
        MobilityService {
            state,
            planner,
            oracle,
            motions,
            walk: Vec::new(),
            registry: FxHashMap::default(),
            arrived: Vec::new(),
            events: Vec::new(),
            config,
            last_time: start_time,
            planning_time: Duration::ZERO,
            #[cfg(test)]
            full_sweep: false,
            #[cfg(test)]
            due_blocks_read: 0,
        }
    }

    /// Current platform time (the largest event time seen so far).
    #[inline]
    pub fn now(&self) -> Time {
        self.last_time
    }

    /// Read access to the platform state.
    #[inline]
    pub fn state(&self) -> &PlatformState {
        &self.state
    }

    /// The full event log accumulated so far.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// Cuts a [`ServiceCheckpoint`] of the current progress — the
    /// snapshot/restore hook of the ingestion plane. Determinism makes
    /// this triple a complete state fingerprint: a recovery replay that
    /// reproduces it has reconstructed this exact platform.
    pub fn checkpoint(&self) -> ServiceCheckpoint {
        ServiceCheckpoint {
            events: self.events.len() as u64,
            last_time: self.last_time,
            digest: crate::event_log_digest(&self.events),
        }
    }

    /// Feeds one event into the service and returns everything it
    /// caused, in occurrence order: planner wake-ups that became due,
    /// stops passed while moving workers up to the event time, and the
    /// consequences of the event itself. The reply is the tail of the
    /// event log this call appended, borrowed until the next call.
    ///
    /// Event times should be (weakly) monotone; a stale timestamp is
    /// clamped to the current platform time rather than rejected, so a
    /// live caller with slightly out-of-order sources degrades
    /// gracefully instead of crashing. Malformed events are contained
    /// on the same principle — a WAL or a producer can deliver any
    /// vertex, class or worker id the codec can spell. A departure of
    /// an unknown worker is dropped, and so is a join that breaks the
    /// dense-id contract (see [`PlatformEvent::WorkerJoined`]), names
    /// a class outside the installed table, or comes online off the
    /// network: the clock advances, the fleet does not change, there
    /// is no reply. An arrival under an id the service has already
    /// seen is dropped the same way — the first arrival of an id is the
    /// request, so no request is decided twice (DESIGN.md §1). An
    /// arrival with an endpoint off the network is an unreachable trip
    /// and is answered `Rejected` (its penalty accrues) without the
    /// oracle or the planner ever seeing it.
    pub fn submit(&mut self, event: PlatformEvent) -> &[SimEvent] {
        urpsm_obs::with(|m| m.service_events.inc());
        let mark = self.events.len();
        let t = event.time().max(self.last_time);
        self.fire_wakeups_due(t);
        self.advance_all(t);
        self.last_time = t;

        match event {
            // A reused id is dropped (the time advance above still
            // counts).
            PlatformEvent::RequestArrived(r) if self.registry.contains_key(&r.id) => {}
            PlatformEvent::RequestArrived(r) => {
                self.registry.insert(r.id, r);
                self.arrived.push(r);
                let outs = if self.on_network(r.origin) && self.on_network(r.destination) {
                    let t0 = Instant::now();
                    let outs = self.planner.on_request(&mut self.state, &r);
                    self.planning_time += t0.elapsed();
                    outs
                } else {
                    self.state.reject(&r);
                    reply_one(r.id, Outcome::Rejected)
                };
                self.record(outs, t);
            }
            PlatformEvent::RequestCancelled { request, .. } => {
                self.handle_cancel(request, t);
            }
            // A malformed join is dropped (the time advance above
            // still counts).
            PlatformEvent::WorkerJoined { worker, .. }
                if worker.id.idx() == self.state.num_workers()
                    && worker.class.idx() < self.state.classes().len()
                    && self.on_network(worker.origin) =>
            {
                self.state.add_worker(worker);
                self.motions.push(WorkerMotion::default());
                self.events.push(SimEvent::WorkerJoined { t, w: worker.id });
                let t0 = Instant::now();
                self.planner
                    .on_worker_change(&mut self.state, WorkerChange::Joined(worker.id));
                self.planning_time += t0.elapsed();
            }
            PlatformEvent::WorkerJoined { .. } => {}
            PlatformEvent::WorkerLeft {
                worker, reassign, ..
            } => {
                self.handle_departure(worker, reassign, t);
            }
            PlatformEvent::Tick { .. } => {
                // Time advance + due wake-ups already happened above.
            }
        }
        let out = &self.events[mark..];
        urpsm_obs::with(|m| m.service_replies.add(out.len() as u64));
        out
    }

    /// Ends the stream: fires still-pending planner wake-ups (an open
    /// batch epoch ends at its boundary, not at stream end), flushes
    /// planner buffers, lets every worker finish its route, audits the
    /// full event log against the exact distance ledgers, and reports.
    pub fn drain(mut self) -> SimOutcome {
        self.fire_wakeups_due(Time::MAX);

        let t0 = Instant::now();
        let outs = self.planner.flush(&mut self.state);
        self.planning_time += t0.elapsed();
        self.record(outs, self.last_time);

        let horizon = self
            .state
            .agents()
            .iter()
            .map(|a| {
                if a.route.is_empty() {
                    a.route.start_time()
                } else {
                    a.route.arr(a.route.len())
                }
            })
            .max()
            .unwrap_or(self.last_time)
            .max(self.last_time);
        self.advance_all(horizon);
        self.last_time = horizon;

        let driven: Vec<Cost> = self.motions.iter().map(|m| m.driven).collect();
        let planned: Vec<Cost> = self
            .state
            .agents()
            .iter()
            .map(|a| a.assigned_distance)
            .collect();
        // The platform never forgets a worker (retirees keep their
        // slot), so its agents are the audit's full cast.
        let cast: Vec<Worker> = self.state.agents().iter().map(|a| a.worker).collect();
        let audit_errors = audit_events(&self.arrived, &cast, &self.events, &driven, &planned);
        // Per-class breakdown: served from the platform's class tally,
        // driven distance from the motion ledger of each worker.
        let mut per_class =
            vec![crate::metrics::ClassMetrics::default(); self.state.classes().len()];
        for (a, d) in self.state.agents().iter().zip(&driven) {
            // A fleet tagged with classes but driven without a table
            // (no `SimConfig::classes`) still reports its breakdown.
            if a.worker.class.idx() >= per_class.len() {
                per_class.resize(a.worker.class.idx() + 1, Default::default());
            }
            per_class[a.worker.class.idx()].driven_distance += *d;
        }
        for (c, &served) in per_class.iter_mut().zip(self.state.served_by_class()) {
            c.served = served;
        }
        urpsm_obs::with(|m| {
            m.classes_live.observe_max(per_class.len() as u64);
            for (i, c) in per_class.iter().enumerate() {
                let slot = urpsm_obs::class_slot(i);
                m.class_served[slot].add(c.served as u64);
                m.class_driven[slot].add(c.driven_distance);
            }
        });
        let metrics = SimMetrics {
            requests: self.arrived.len(),
            served: self.state.served_count(),
            rejected: self.state.rejected_count(),
            cancelled: self.state.cancelled_count(),
            unified_cost: self.state.unified_cost(self.config.alpha),
            planning_time: self.planning_time,
            driven_distance: driven.iter().sum(),
            per_class,
        };
        SimOutcome {
            metrics,
            state: self.state,
            events: self.events,
            audit_errors,
        }
    }

    /// Exports an idle worker for a cross-service handoff (the
    /// geo-sharded dispatch plane moves border workers between shards
    /// through this): retires the worker here, logs its departure, and
    /// returns the [`HandoffTicket`] the receiving service turns into a
    /// [`PlatformEvent::WorkerJoined`] under its own dense id.
    ///
    /// Refused (`None`, no mutation, no event) for unknown workers and
    /// for workers with committed stops — only a worker with nothing
    /// promised can change jurisdictions, which is what keeps the
    /// driven/planned ledgers of both services exact (see
    /// [`PlatformState::export_worker`]).
    pub fn handoff_worker(&mut self, w: WorkerId) -> Option<HandoffTicket> {
        if w.idx() >= self.state.num_workers() {
            return None;
        }
        let ticket = self.state.export_worker(w)?;
        self.events.push(SimEvent::WorkerLeft {
            t: self.last_time,
            w,
        });
        let t0 = Instant::now();
        self.planner.on_worker_change(
            &mut self.state,
            WorkerChange::Left {
                worker: w,
                policy: ReassignPolicy::Drain,
            },
        );
        self.planning_time += t0.elapsed();
        Some(ticket)
    }

    // ── internals ────────────────────────────────────────────────────

    /// Whether `v` is a vertex of the oracle's network — checked before
    /// any event-supplied vertex is used as an index.
    fn on_network(&self, v: VertexId) -> bool {
        v.idx() < self.oracle.num_vertices()
    }

    /// Fires every planner wake-up due at or before `t` (batch epoch
    /// boundaries), advancing workers to each boundary first.
    fn fire_wakeups_due(&mut self, t: Time) {
        while let Some(tw) = self.planner.next_wakeup() {
            if tw > t {
                break;
            }
            let tw = tw.max(self.last_time);
            self.advance_all(tw);
            let t0 = Instant::now();
            let outs = self.planner.on_time(&mut self.state, tw);
            self.planning_time += t0.elapsed();
            self.record(outs, tw);
            if self.planner.next_wakeup() == Some(tw) {
                break; // planner did not advance its wakeup: stop looping
            }
            self.last_time = tw;
        }
    }

    /// Moves every *due* worker forward to time `t`, logging passed
    /// stops. The platform's motion index names the workers for whom
    /// [`WorkerMotion::advance`] would do anything (`due(w) ≤ t`), and
    /// idle workers need nothing — the platform's clock is their clock
    /// (DESIGN.md §1) — so the cost follows the vehicles that move, not
    /// the fleet. The index's block summary skips every block of
    /// [`DUE_BLOCK`] workers whose minimum is above `t`, so only the
    /// blocks holding a due worker are read. Due workers are visited in
    /// ascending id — the order a sweep over every worker would reach
    /// them in, hence the same log; advancing one touches only its own
    /// entries, so a block's minimum is read before its workers move.
    fn advance_all(&mut self, t: Time) {
        #[cfg(test)]
        if self.full_sweep {
            return self.advance_all_by_sweep(t);
        }
        self.state.advance_clock(t);
        let mut advanced = 0u64;
        let oracle = &*self.oracle;
        let walk = &mut self.walk;
        let events = &mut self.events;
        let n = self.motions.len();
        for b in 0..n.div_ceil(DUE_BLOCK) {
            if self.state.due_block(b) > t {
                continue;
            }
            #[cfg(test)]
            {
                self.due_blocks_read += 1;
            }
            for i in b * DUE_BLOCK..n.min((b + 1) * DUE_BLOCK) {
                let w = WorkerId(i as u32);
                if self.state.due(w) > t {
                    continue;
                }
                advanced += 1;
                self.motions[i].advance(&mut self.state, w, t, oracle, walk, |stop, at| {
                    events.push(stop_event(stop, at, w));
                });
            }
        }
        urpsm_obs::with(|m| m.motion_advanced.add(advanced));
    }

    /// The reference the motion index and the lazy idle clock are
    /// checked against: every worker is advanced on every clock move,
    /// idle or not, the due index is never consulted, and every idle
    /// worker behind `t` is stored at `t` (the eager clock the lazy one
    /// replaced).
    #[cfg(test)]
    fn advance_all_by_sweep(&mut self, t: Time) {
        self.state.advance_clock(t);
        let oracle = &*self.oracle;
        let events = &mut self.events;
        for (i, m) in self.motions.iter_mut().enumerate() {
            let w = WorkerId(i as u32);
            m.advance(&mut self.state, w, t, oracle, &mut self.walk, |stop, at| {
                events.push(stop_event(stop, at, w));
            });
            let head = self.state.head(w);
            if head.idle && head.start < t {
                self.state.set_worker_position(w, head.vertex, t, None);
            }
        }
    }

    /// Logs planner outcomes (the platform state keeps the counts).
    fn record(&mut self, outs: PlannerReplies, t: Time) {
        for (rid, out) in outs {
            self.events.push(match out {
                Outcome::Assigned { worker, delta } => SimEvent::Assigned {
                    t,
                    r: rid,
                    w: worker,
                    delta,
                },
                Outcome::Rejected => SimEvent::Rejected { t, r: rid },
            });
        }
    }

    /// A cancellation: first offer it to the planner (batch planners
    /// may still hold the request in an epoch buffer), then fall back
    /// to platform-level route surgery. Refused cancellations (rider
    /// already onboard, request already completed/rejected/unknown)
    /// produce no event — the ride simply continues.
    fn handle_cancel(&mut self, request: RequestId, t: Time) {
        let t0 = Instant::now();
        let absorbed = self.planner.on_cancel(&mut self.state, request);
        self.planning_time += t0.elapsed();
        if absorbed {
            self.state.note_cancelled(request);
            // Still buffered: no route ever saw it, nothing was freed.
            self.events.push(SimEvent::Cancelled {
                t,
                r: request,
                freed: 0,
            });
            return;
        }
        if let CancelOutcome::Cancelled { freed, .. } = self.state.cancel_request(request) {
            self.events.push(SimEvent::Cancelled {
                t,
                r: request,
                freed,
            });
        }
    }

    /// A worker departure. `Drain`: the worker just stops taking new
    /// work and finishes its route. `Reassign`: its un-picked requests
    /// are stripped and re-offered through the planner (onboard riders
    /// are delivered by the departing worker either way).
    fn handle_departure(&mut self, worker: WorkerId, reassign: ReassignPolicy, t: Time) {
        if worker.idx() >= self.state.num_workers() {
            return; // unknown worker: drop the event
        }
        self.state.retire_worker(worker);
        let stripped = match reassign {
            ReassignPolicy::Drain => Vec::new(),
            ReassignPolicy::Reassign => self.state.strip_unpicked(worker),
        };
        for &(rid, freed) in &stripped {
            self.events.push(SimEvent::Unassigned {
                t,
                r: rid,
                w: worker,
                freed,
            });
        }
        self.events.push(SimEvent::WorkerLeft { t, w: worker });
        let t0 = Instant::now();
        self.planner.on_worker_change(
            &mut self.state,
            WorkerChange::Left {
                worker,
                policy: reassign,
            },
        );
        self.planning_time += t0.elapsed();
        for (rid, _) in stripped {
            let r = self.registry[&rid];
            let t0 = Instant::now();
            let outs = self.planner.on_request(&mut self.state, &r);
            self.planning_time += t0.elapsed();
            self.record(outs, t);
        }
    }
}

/// The log entry for worker `w` passing `stop` at time `at`.
fn stop_event(stop: Stop, at: Time, w: WorkerId) -> SimEvent {
    match stop.kind {
        StopKind::Pickup => SimEvent::Pickup {
            t: at,
            r: stop.request,
            w,
        },
        StopKind::Delivery => SimEvent::Delivery {
            t: at,
            r: stop.request,
            w,
        },
    }
}

// An embedder may build a service (or the `IngestServer` that owns
// one) on a set-up thread and tick it on another, which moves the
// whole service — planner included, `Planner: Send` is a supertrait —
// across a thread spawn. Compile-time proof that it stays sendable.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<MobilityService<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;
    use urpsm_core::planner::{GreedyDp, PruneGreedyDp};

    pub(super) fn line_oracle(n: usize) -> Arc<dyn DistanceOracle> {
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

    pub(super) fn fleet(origins: &[u32]) -> Vec<Worker> {
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

    pub(super) fn req(id: u32, o: u32, d: u32, release: Time, deadline: Time) -> Request {
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

    fn service(origins: &[u32]) -> MobilityService<'static> {
        MobilityService::new(
            line_oracle(50),
            fleet(origins),
            Box::new(PruneGreedyDp::new()),
            SimConfig::default(),
            0,
        )
    }

    /// Replays an arrival-only stream the way `urpsm::simulate` does:
    /// the service opens at the first release, takes every arrival,
    /// and drains.
    fn replay(
        oracle: Arc<dyn DistanceOracle>,
        workers: Vec<Worker>,
        requests: &[Request],
        planner: &mut dyn Planner,
    ) -> SimOutcome {
        let mut svc = MobilityService::new(
            oracle,
            workers,
            Box::new(planner),
            SimConfig::default(),
            requests.first().map_or(0, |r| r.release),
        );
        for r in requests {
            svc.submit(PlatformEvent::RequestArrived(*r));
        }
        svc.drain()
    }

    #[test]
    fn simple_run_is_clean_and_exact() {
        let out = replay(
            line_oracle(50),
            fleet(&[0, 40]),
            &[
                req(0, 5, 10, 0, 100_000),
                req(1, 38, 30, 1_000, 100_000),
                req(2, 7, 12, 2_000, 100_000),
            ],
            &mut PruneGreedyDp::new(),
        );
        assert_eq!(out.audit_errors, Vec::<String>::new());
        assert_eq!(out.metrics.served, 3);
        assert_eq!(out.metrics.rejected, 0);
        assert_eq!(out.metrics.served_rate(), 1.0);
        // Drained: driven == planned exactly.
        assert_eq!(
            out.metrics.driven_distance,
            out.state.total_assigned_distance()
        );
    }

    #[test]
    fn impossible_requests_get_rejected_and_audited() {
        let out = replay(
            line_oracle(50),
            fleet(&[0]),
            &[req(0, 40, 45, 0, 500)], // unreachable in time
            &mut PruneGreedyDp::new(),
        );
        assert!(out.audit_errors.is_empty());
        assert_eq!(out.metrics.rejected, 1);
        assert_eq!(out.metrics.unified_cost.total_penalty, 1_000_000);
    }

    #[test]
    fn greedy_and_prune_greedy_identical_end_to_end() {
        let requests: Vec<Request> = (0..20)
            .map(|i| {
                let o = (i * 7) % 45;
                let d = (o + 3 + (i % 5)) % 50;
                req(i, o, d, u64::from(i) * 500, u64::from(i) * 500 + 50_000)
            })
            .collect();
        let run = |planner: &mut dyn Planner| {
            replay(
                line_oracle(50),
                fleet(&[0, 10, 20, 30, 40]),
                &requests,
                planner,
            )
        };
        let out_g = run(&mut GreedyDp::new());
        let out_p = run(&mut PruneGreedyDp::new());
        assert!(out_g.audit_errors.is_empty());
        assert!(out_p.audit_errors.is_empty());
        // Lemma 8 must not change any outcome, only query counts.
        assert_eq!(out_g.events, out_p.events);
        assert_eq!(
            out_g.metrics.unified_cost.value(),
            out_p.metrics.unified_cost.value()
        );
    }

    /// A planner that rejects everything but records exactly when the
    /// service wakes it, to pin the epoch contract batch planners rely on.
    struct WakeupRecorder {
        epoch: Time,
        next: Option<Time>,
        wakeups: Vec<Time>,
        flushed: bool,
    }

    impl urpsm_core::planner::Planner for WakeupRecorder {
        fn name(&self) -> &'static str {
            "wakeup-recorder"
        }
        fn on_request(
            &mut self,
            state: &mut PlatformState,
            r: &Request,
        ) -> urpsm_core::planner::PlannerReplies {
            if self.next.is_none() {
                self.next = Some(r.release + self.epoch);
            }
            state.reject(r);
            urpsm_core::planner::reply_one(r.id, Outcome::Rejected)
        }
        fn on_time(
            &mut self,
            _state: &mut PlatformState,
            now: Time,
        ) -> urpsm_core::planner::PlannerReplies {
            self.wakeups.push(now);
            self.next = None;
            urpsm_core::planner::PlannerReplies::new()
        }
        fn flush(&mut self, _state: &mut PlatformState) -> urpsm_core::planner::PlannerReplies {
            self.flushed = true;
            urpsm_core::planner::PlannerReplies::new()
        }
        fn next_wakeup(&self) -> Option<Time> {
            self.next
        }
    }

    #[test]
    fn service_honors_planner_wakeups() {
        let requests = vec![
            req(0, 1, 2, 0, 100_000),
            req(1, 2, 3, 100, 100_000),
            req(2, 3, 4, 5_000, 100_000), // well past the first epoch
        ];
        let mut planner = WakeupRecorder {
            epoch: 600,
            next: None,
            wakeups: Vec::new(),
            flushed: false,
        };
        let out = replay(line_oracle(10), fleet(&[0]), &requests, &mut planner);
        // The first epoch (opened at t=0) must fire at exactly t=600 —
        // before request 2's release at t=5000 — then a second epoch
        // opens at 5000+600 and is woken before the stream drains.
        assert_eq!(planner.wakeups, vec![600, 5_600]);
        assert!(planner.flushed, "flush must be called at end of stream");
        assert_eq!(out.metrics.rejected, 3);
        assert!(out.audit_errors.is_empty());
    }

    #[test]
    fn streaming_arrivals_match_batch_behaviour() {
        let mut svc = service(&[0, 40]);
        let replies = svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 0, 100_000)));
        assert!(matches!(replies[0], SimEvent::Assigned { .. }));
        svc.submit(PlatformEvent::RequestArrived(req(
            1, 38, 30, 1_000, 100_000,
        )));
        let out = svc.drain();
        assert_eq!(out.audit_errors, Vec::<String>::new());
        assert_eq!(out.metrics.served, 2);
        assert_eq!(out.metrics.cancelled, 0);
        assert_eq!(
            out.metrics.driven_distance,
            out.state.total_assigned_distance()
        );
    }

    #[test]
    fn cancellation_before_pickup_frees_the_route() {
        let mut svc = service(&[0]);
        svc.submit(PlatformEvent::RequestArrived(req(0, 20, 30, 0, 100_000)));
        // Cancel at t=500: the worker is still driving to vertex 20
        // (pickup would be at t=2000).
        let replies = svc.submit(PlatformEvent::RequestCancelled {
            at: 500,
            request: RequestId(0),
        });
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::Cancelled { r, .. } if *r == RequestId(0))));
        let out = svc.drain();
        assert_eq!(out.audit_errors, Vec::<String>::new());
        assert_eq!(out.metrics.served, 0);
        assert_eq!(out.metrics.cancelled, 1);
        // No pickup/delivery ever happened.
        assert!(!out
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::Pickup { .. } | SimEvent::Delivery { .. })));
        // Accounting stayed exact despite the partial drive.
        assert_eq!(
            out.metrics.driven_distance,
            out.state.total_assigned_distance()
        );
    }

    #[test]
    fn cancellation_after_pickup_is_refused() {
        let mut svc = service(&[0]);
        svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 0, 100_000)));
        // t=800: pickup (t=500) already happened; rider is onboard.
        let replies = svc.submit(PlatformEvent::RequestCancelled {
            at: 800,
            request: RequestId(0),
        });
        assert!(!replies
            .iter()
            .any(|e| matches!(e, SimEvent::Cancelled { .. })));
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
        assert_eq!(out.metrics.served, 1);
        assert_eq!(out.metrics.cancelled, 0);
    }

    #[test]
    fn worker_drain_departure_finishes_committed_stops() {
        let mut svc = service(&[0, 40]);
        svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 0, 100_000)));
        let replies = svc.submit(PlatformEvent::WorkerLeft {
            at: 100,
            worker: WorkerId(0),
            reassign: ReassignPolicy::Drain,
        });
        assert!(matches!(replies[0], SimEvent::WorkerLeft { .. }));
        // A new request near the departed worker's position must go to
        // the remaining worker (or nowhere) — never to the retiree.
        svc.submit(PlatformEvent::RequestArrived(req(1, 6, 12, 200, 100_000)));
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
        for ev in &out.events {
            if let SimEvent::Assigned { r, w, .. } = ev {
                if *r == RequestId(1) {
                    assert_eq!(*w, WorkerId(1), "retired worker must not be assigned");
                }
            }
        }
        // The retiree still served its committed request.
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::Delivery { r, w, .. }
                if *r == RequestId(0) && *w == WorkerId(0))));
    }

    #[test]
    fn worker_reassign_departure_hands_requests_back() {
        let mut svc = service(&[0, 10]);
        // Assigned to worker 0 (nearest).
        svc.submit(PlatformEvent::RequestArrived(req(0, 4, 20, 0, 100_000)));
        let replies = svc.submit(PlatformEvent::WorkerLeft {
            at: 100,
            worker: WorkerId(0),
            reassign: ReassignPolicy::Reassign,
        });
        // Unassigned, departure, then a fresh decision for r0.
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::Unassigned { r, .. } if *r == RequestId(0))));
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::Assigned { r, w, .. }
                if *r == RequestId(0) && *w == WorkerId(1))));
        let out = svc.drain();
        assert_eq!(out.audit_errors, Vec::<String>::new());
        assert_eq!(out.metrics.served, 1);
        assert_eq!(
            out.metrics.driven_distance,
            out.state.total_assigned_distance()
        );
    }

    #[test]
    fn handoff_exports_idle_workers_and_stays_audit_clean() {
        let mut svc = service(&[0, 40]);
        svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 0, 100_000)));
        // Worker 0 is busy with r0: the handoff must be refused.
        assert_eq!(svc.handoff_worker(WorkerId(0)), None);
        // Worker 1 is idle at vertex 40: exported, logged, retired.
        svc.submit(PlatformEvent::Tick { at: 200 });
        let ticket = svc.handoff_worker(WorkerId(1)).expect("idle worker");
        assert_eq!(ticket.position, VertexId(40));
        assert!(svc
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::WorkerLeft { w, .. } if *w == WorkerId(1))));
        // Unknown worker: refused.
        assert_eq!(svc.handoff_worker(WorkerId(9)), None);
        // A request at the exported worker's doorstep must not reach it.
        svc.submit(PlatformEvent::RequestArrived(req(1, 39, 35, 300, 100_000)));
        let out = svc.drain();
        assert_eq!(out.audit_errors, Vec::<String>::new());
        for ev in &out.events {
            if let SimEvent::Assigned { w, .. } = ev {
                assert_eq!(*w, WorkerId(0), "exported worker must take no work");
            }
        }
        assert_eq!(
            out.metrics.driven_distance,
            out.state.total_assigned_distance()
        );
    }

    #[test]
    fn worker_join_expands_the_fleet() {
        let mut svc = service(&[0]);
        // Far-away request with a tight pickup budget: worker 0 at
        // vertex 0 cannot make it in time.
        let r = req(0, 40, 45, 1_000, 2_200);
        let joined = Worker {
            class: Default::default(),
            id: WorkerId(1),
            origin: VertexId(39),
            capacity: 4,
        };
        let replies = svc.submit(PlatformEvent::WorkerJoined {
            at: 500,
            worker: joined,
        });
        assert!(matches!(replies[0], SimEvent::WorkerJoined { .. }));
        let replies = svc.submit(PlatformEvent::RequestArrived(r));
        assert!(replies
            .iter()
            .any(|e| matches!(e, SimEvent::Assigned { w, .. } if *w == WorkerId(1))));
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
    }

    #[test]
    fn tick_advances_time_without_side_effects() {
        let mut svc = service(&[0]);
        svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 0, 100_000)));
        let replies = svc.submit(PlatformEvent::Tick { at: 700 });
        // The pickup at t=500 is passed while advancing to 700.
        assert!(matches!(replies[0], SimEvent::Pickup { t: 500, .. }));
        assert_eq!(svc.now(), 700);
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
    }

    #[test]
    fn malformed_fleet_events_are_dropped_not_fatal() {
        let mut svc = service(&[0]);
        // Unknown departure and a join that skips an id: both dropped.
        assert!(svc
            .submit(PlatformEvent::WorkerLeft {
                at: 10,
                worker: WorkerId(99),
                reassign: ReassignPolicy::Reassign,
            })
            .is_empty());
        assert!(svc
            .submit(PlatformEvent::WorkerJoined {
                at: 20,
                worker: Worker {
                    class: Default::default(),
                    id: WorkerId(7),
                    origin: VertexId(3),
                    capacity: 2,
                },
            })
            .is_empty());
        // What the codec can spell and a WAL can therefore replay: a
        // dense join whose class is not in the installed table, a dense
        // join that comes online off the network …
        for (class, origin) in [(3, 3), (0, 999)] {
            let replies = svc.submit(PlatformEvent::WorkerJoined {
                at: 25,
                worker: Worker {
                    class: urpsm_core::types::ClassId(class),
                    id: WorkerId(1),
                    origin: VertexId(origin),
                    capacity: 2,
                },
            });
            assert!(replies.is_empty(), "{replies:?}");
        }
        assert_eq!(svc.state().num_workers(), 1);
        assert_eq!(svc.now(), 25, "a dropped event still advances the clock");
        // … and a trip with an endpoint off the network, which is
        // unreachable: rejected, never planned.
        for (id, o, d) in [(7, 999, 10), (8, 5, 999)] {
            let replies = svc.submit(PlatformEvent::RequestArrived(req(id, o, d, 28, 100_000)));
            assert!(
                matches!(replies[..], [SimEvent::Rejected { r, .. }] if r == RequestId(id)),
                "{replies:?}"
            );
        }
        svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 30, 100_000)));
        let out = svc.drain();
        assert_eq!(out.audit_errors, Vec::<String>::new());
        assert_eq!(out.state.num_workers(), 1);
        assert_eq!(out.metrics.served, 1);
        assert_eq!(out.metrics.rejected, 2);
        assert_eq!(out.metrics.unified_cost.total_penalty, 2_000_000);
    }

    #[test]
    fn checkpoints_fingerprint_progress_deterministically() {
        let feed = |svc: &mut MobilityService<'static>| {
            svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 0, 100_000)));
            svc.submit(PlatformEvent::Tick { at: 700 });
        };
        let mut a = service(&[0, 40]);
        let mut b = service(&[0, 40]);
        feed(&mut a);
        feed(&mut b);
        // Identical feeds → identical fingerprints.
        assert_eq!(a.checkpoint(), b.checkpoint());
        assert_eq!(a.checkpoint().events, a.events().len() as u64);
        assert_eq!(a.checkpoint().last_time, 700);
        // A diverging event changes the digest, not just the length.
        let before = b.checkpoint();
        b.submit(PlatformEvent::RequestArrived(req(1, 38, 30, 800, 100_000)));
        let after = b.checkpoint();
        assert_ne!(before.digest, after.digest);
        assert!(after.events > before.events);
    }

    #[test]
    fn stale_timestamps_clamp_instead_of_panicking() {
        let mut svc = service(&[0]);
        svc.submit(PlatformEvent::Tick { at: 1_000 });
        // An out-of-order arrival is processed at the platform's now.
        let replies = svc.submit(PlatformEvent::RequestArrived(req(0, 5, 10, 400, 100_000)));
        assert!(matches!(replies[0], SimEvent::Assigned { t: 1_000, .. }));
        let out = svc.drain();
        assert!(out.audit_errors.is_empty());
    }
}

#[cfg(test)]
#[path = "service_motion_tests.rs"]
mod motion_tests;
