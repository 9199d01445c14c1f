//! The shared mutable world that planners operate on.
//!
//! [`PlatformState`] owns the workers, their routes, and the uniform
//! grid index over worker positions (Algo. 5 line 1 "build grid index").
//! Planners read candidate workers from it and commit insertions /
//! rejections through it; the simulator advances worker positions
//! through it. Keeping all mutation behind these methods maintains the
//! two URPSM constraints by construction:
//!
//! * **feasibility** — [`PlatformState::commit`] only splices plans that
//!   came out of an insertion operator, and debug builds re-validate the
//!   route after every commit;
//! * **invariability** — there is no API to un-reject a request, and a
//!   committed stop disappears only by being completed, by an explicit
//!   rider cancellation ([`PlatformState::cancel_request`]), or by a
//!   worker-departure reassignment ([`PlatformState::strip_unpicked`])
//!   — and the latter two refuse to touch a rider who is already
//!   onboard: once picked up, delivery is irrevocable.
//!
//! The API is split into two planes (DESIGN.md §5): every *read* —
//! [`PlatformState::candidate_workers`], [`PlatformState::candidate`],
//! the decision phase — takes `&self` and is safe to run from many threads
//! at once ([`PlatformState`] is `Sync`); every *mutation* — commit,
//! reject, movement, lifecycle — takes `&mut self` and therefore has
//! the world to itself. A `&PlatformState` is the read plane as a type:
//! the borrow-checked snapshot a planner scans.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use road_network::congestion::TravelTimeProvider;
use road_network::fxhash::{FxHashMap, FxHashSet};
use road_network::geo::Point;
use road_network::graph::euclidean_cost;
use road_network::grid::{GridIndex, SweepHit};
use road_network::oracle::DistanceOracle;
use road_network::{cost_add, Cost, VertexId, INF};

use crate::decision::BoundWork;
use crate::lower_bound::{idle_bound_at, scan_lower_bound, RouteBox};
use crate::objective::UnifiedCost;
use crate::route::{InsertionPlan, Route};
use crate::shortlist::Shortlist;
use crate::types::{
    ClassId, ClassTable, Request, RequestId, Stop, StopKind, Time, Worker, WorkerId,
};

/// A worker together with its live route and accounting.
#[derive(Debug, Clone)]
pub struct WorkerAgent {
    /// The static worker description.
    pub worker: Worker,
    /// The current route (already-passed stops are popped).
    pub route: Route,
    /// Σ of committed insertion deltas minus distance freed by
    /// cancellations — equals the final `D(S_w)` once the route is
    /// fully driven, since every insertion grows the planned distance
    /// by exactly its `Δ` and every removal shrinks it by the freed
    /// amount.
    pub assigned_distance: Cost,
    /// Whether the worker still accepts new requests. Retired workers
    /// leave the grid indexes (never shortlisted again) but keep
    /// driving their committed stops.
    pub active: bool,
    /// The route's box and longest leg, what the candidate stream keys
    /// the worker by while it is busy (DESIGN.md §5). Kept by
    /// `PlatformState::reindex` with the route.
    pub(crate) route_box: RouteBox,
}

/// What happened to a cancellation, as reported by
/// [`PlatformState::cancel_request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The request's pending stops were removed from `worker`'s route;
    /// `freed` planned distance was returned to the pool.
    Cancelled {
        /// The worker that was going to serve the request.
        worker: WorkerId,
        /// Planned distance freed by the removal.
        freed: Cost,
    },
    /// Too late: the rider/parcel is already onboard `worker` and will
    /// be delivered (the invariability constraint — a picked-up request
    /// cannot be dropped).
    Onboard {
        /// The worker carrying the request.
        worker: WorkerId,
    },
    /// The request was already fully served.
    Completed,
    /// The request had been rejected earlier; its penalty stands.
    WasRejected,
    /// The platform has no record of this request (never arrived, or
    /// still buffered inside a batch planner).
    Unknown,
}

/// Everything the receiving side of a worker handoff needs: the
/// worker's exact position and capacity at the moment it was exported
/// from its source platform ([`PlatformState::export_worker`]).
///
/// A ticket deliberately carries no accounting — only *idle* workers
/// can be exported, so the source platform keeps the worker's full
/// driven/planned history (it all happened there) and the destination
/// starts the worker from zero. Splitting a mid-route worker would
/// force one leg's distance to be split across two ledgers; refusing
/// to export such workers keeps both sides' `driven == planned`
/// invariants exact by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoffTicket {
    /// Where the worker is parked (its next platform adds it here).
    pub position: VertexId,
    /// The worker's capacity `K_w`.
    pub capacity: u32,
    /// The worker's vehicle class — class identity survives the
    /// handoff, so borrow probes on the receiving platform apply the
    /// same eligibility filter the home platform would have.
    pub class: ClassId,
}

/// Per-request outcome reported by planners.
///
/// `Default` is [`Outcome::Rejected`] — never observed as a value, it
/// only exists so `(RequestId, Outcome)` pairs can live inline in the
/// planners' allocation-free reply vector
/// ([`crate::planner::PlannerReplies`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The request was inserted into `worker`'s route at cost `delta`.
    Assigned {
        /// The chosen worker.
        worker: WorkerId,
        /// The increased distance `Δ*`.
        delta: Cost,
    },
    /// The request was rejected (penalty `p_r` accrues).
    #[default]
    Rejected,
}

/// The platform: workers, routes, grid index and cost accounting.
pub struct PlatformState {
    now: Time,
    oracle: Arc<dyn DistanceOracle>,
    agents: Vec<WorkerAgent>,
    /// The grid index (Algo. 5 line 1): every active worker at its
    /// `l_0`, marked exactly when its head is idle, kept so by
    /// [`PlatformState::reindex`]. The marks split every cell idle-first,
    /// so the DP engine can stream idle workers nearest-first
    /// ([`CandidateStream`]) while still collecting busy ones whole.
    grid: GridIndex,
    rejected: Vec<(RequestId, Cost)>,
    /// Served requests, counted by the class of the worker holding
    /// each, indexed by `ClassId`; grown on a class's first commit.
    served: Vec<usize>,
    /// Live request → worker map (entries removed on delivery,
    /// cancellation, or reassignment strip).
    assignment: FxHashMap<RequestId, WorkerId>,
    /// Requests fully delivered.
    completed: FxHashSet<RequestId>,
    /// Requests successfully cancelled after assignment.
    cancelled: Vec<RequestId>,
    /// Departure-time-aware travel times, installed into every route
    /// (present and future); `None` = free flow.
    congestion: Option<Arc<dyn TravelTimeProvider>>,
    /// The fleet's vehicle classes. The default single-class table
    /// makes every class hook a no-op — the paper's homogeneous
    /// setting, byte-identical to the pre-class platform.
    classes: Arc<ClassTable>,
    /// The motion index (DESIGN.md §1): `due[w]` is the first time at
    /// which moving `w` forward changes anything — `min(arr[1],
    /// arr[0] + 1)` for a drivable route, [`Time::MAX`] for an empty or
    /// undrivable one. Kept exact by [`PlatformState::reindex`] at the
    /// end of every method that mutates a route.
    due: Vec<Time>,
    /// The block summary over `due` (DESIGN.md §1): `due_min[b]` is
    /// the minimum of `due` over workers `b·DUE_BLOCK ..
    /// (b+1)·DUE_BLOCK`, one entry per started block. Kept exact by the
    /// same `reindex`.
    due_min: Vec<Time>,
    /// The head plane (DESIGN.md §5): `heads[w]` is [`WorkerHead::of`]
    /// `w`'s agent, refreshed by the same `reindex`.
    heads: Vec<WorkerHead>,
}

/// What the shortlist and the bounds phase read of one worker, one
/// dense 24-byte entry per worker (the head plane, DESIGN.md §5): a
/// worker with no stops is bounded from this alone, without touching
/// its [`WorkerAgent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerHead {
    /// The stored `arr[0]` — see [`WorkerHead::departure`].
    pub start: Time,
    /// `l_0`, the worker's current location.
    pub vertex: VertexId,
    /// The worker's capacity `K_w`.
    pub capacity: u32,
    /// The worker's vehicle class.
    pub class: ClassId,
    /// Whether the route has no stops.
    pub idle: bool,
}

impl WorkerHead {
    /// The head of `agent` as it is stored.
    fn of(agent: &WorkerAgent) -> Self {
        let route = &agent.route;
        debug_assert!(
            !route.is_empty() || route.onboard() == 0,
            "an empty route carries nobody"
        );
        WorkerHead {
            start: route.start_time(),
            vertex: route.start_vertex(),
            capacity: agent.worker.capacity,
            class: agent.worker.class,
            idle: route.is_empty(),
        }
    }

    /// When the worker leaves `l_0` at platform time `now` — the lazy
    /// idle clock (DESIGN.md §1), and the one place its rule is
    /// written. An idle worker stands at `l_0` from its stored `arr[0]`
    /// on, so it departs at `max(arr[0], now)`; nothing stores `now`
    /// into idle routes until one is read or mutated. A busy worker's
    /// schedule is its own.
    #[inline]
    pub fn departure(&self, now: Time) -> Time {
        if self.idle {
            self.start.max(now)
        } else {
            self.start
        }
    }
}

/// Workers per entry of the block summary over the motion index
/// ([`PlatformState::due_block`]).
pub const DUE_BLOCK: usize = 64;

/// The first time at which advancing a worker on `route` is not a
/// no-op: it reaches `l_1` at `arr[1]`, and it can be snapped forward
/// along the leg as soon as the clock passes `arr[0]`. An empty route
/// has nothing to drive and a leg with `arr[1] ≥ INF` cannot be driven.
fn due_time(route: &Route) -> Time {
    if route.is_empty() || route.arr(1) >= INF {
        Time::MAX
    } else {
        route.arr(1).min(route.arr(0) + 1)
    }
}

/// Reusable storage for [`PlatformState::candidate_workers`], owned by
/// a planner and grown once to the fleet's high-water mark (the
/// allocation-free hot path of DESIGN.md §8). Its contents are only
/// readable through the [`EligibleCandidates`] view the shortlist call
/// returns — planner code cannot push workers into it.
#[derive(Debug, Default)]
pub struct CandidateBuf {
    ids: Vec<WorkerId>,
}

impl CandidateBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The workers eligible to serve one request: spatially reachable
/// before the pickup deadline **and** class-eligible. Only
/// [`PlatformState::candidate_workers`] can construct one (the fields
/// are private and there is no other constructor), which makes the
/// eligibility seam compile-visible: a planner consumes this view and
/// therefore *cannot* inject a worker the platform didn't clear —
/// the DP never learns classes exist (DESIGN.md §12).
#[derive(Debug, Clone, Copy)]
pub struct EligibleCandidates<'a> {
    ids: &'a [WorkerId],
}

impl<'a> EligibleCandidates<'a> {
    /// Number of eligible workers.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no worker is eligible.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates the eligible workers in ascending id order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = WorkerId> + 'a {
        self.ids.iter().copied()
    }

    /// Crate-private constructor for unit tests of the engines.
    #[cfg(test)]
    pub(crate) fn from_ids(ids: &'a [WorkerId]) -> Self {
        EligibleCandidates { ids }
    }
}

/// The DP engine's candidates for one request, as one stream keyed by
/// lower bounds (DESIGN.md §5, "The candidate stream"): every eligible
/// busy worker, keyed by its route box (`lower_bound::RouteBox`), and
/// every grid cell holding idle workers, keyed by its nearest point, in
/// one min-heap that `PlatformState::pull_candidate` pops on demand. Like
/// [`CandidateBuf`] it is owned by a planner and `clear()`-reused, and
/// only [`PlatformState::open_candidate_stream`] fills it: the class
/// filter and the radius test stay on the platform's side of the seam.
#[derive(Debug, Default)]
pub struct CandidateStream {
    /// The candidates not yet pulled as `(key, candidate)`, a min-heap:
    /// built in linear time, it pays a `log` only for the entries a
    /// request pulls. No candidate bounds below its key: a busy
    /// worker's key is its route box's bound, and no idle worker in a
    /// cell bounds below the cell's — `euclidean_cost` is monotone in
    /// the distance, and the cell's distance never exceeds any of its
    /// items'.
    heap: BinaryHeap<Reverse<(Cost, Candidate)>>,
    /// The request, and `L = dis(o_r, d_r)`, the stream was opened for.
    request: Option<(Request, Cost)>,
    origin: Point,
    radius_m: f64,
    /// Candidates bounded so far: the busy workers pulled, and the idle
    /// workers in visited cells within the radius and class-eligible.
    bounded: usize,
}

/// One entry of a [`CandidateStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Candidate {
    /// An eligible busy worker.
    Busy(WorkerId),
    /// A grid cell holding idle workers.
    Cell(u32),
}

impl CandidateStream {
    /// Forgets the request: no candidate is left, none is bounded.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        self.request = None;
        self.bounded = 0;
    }

    /// The least lower bound a candidate not yet pulled can have;
    /// `None` once every candidate has been pulled.
    pub(crate) fn next_bound(&self) -> Option<Cost> {
        self.heap.peek().map(|&Reverse((bound, _))| bound)
    }

    /// Candidates bounded so far.
    pub(crate) fn bounded(&self) -> usize {
        self.bounded
    }
}

impl PlatformState {
    /// Creates a platform at time `start_time` with every worker parked
    /// at its initial location. `grid_cell_m` is the grid size `g` of
    /// Table 5 (in meters here).
    pub fn new(
        oracle: Arc<dyn DistanceOracle>,
        workers: &[Worker],
        grid_cell_m: f64,
        start_time: Time,
    ) -> Self {
        let bbox = road_network::geo::BoundingBox::around(
            (0..oracle.num_vertices()).map(|i| oracle.point(VertexId(i as u32))),
        );
        // Every route starts empty: everyone is idle.
        let mut grid = GridIndex::new(bbox, grid_cell_m);
        let agents: Vec<WorkerAgent> = workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                assert_eq!(w.id.idx(), i, "workers must be densely indexed by id");
                grid.upsert(u64::from(w.id.0), oracle.point(w.origin));
                grid.set_marked(u64::from(w.id.0), true);
                let route = Route::new(w.origin, start_time);
                WorkerAgent {
                    worker: *w,
                    route_box: RouteBox::of(&route, &*oracle),
                    route,
                    assigned_distance: 0,
                    active: true,
                }
            })
            .collect();
        let heads = agents.iter().map(WorkerHead::of).collect();
        PlatformState {
            now: start_time,
            oracle,
            agents,
            grid,
            rejected: Vec::new(),
            served: Vec::new(),
            assignment: FxHashMap::default(),
            completed: FxHashSet::default(),
            cancelled: Vec::new(),
            congestion: None,
            classes: Arc::new(ClassTable::single()),
            // Every route starts empty: nothing due.
            due: vec![Time::MAX; workers.len()],
            due_min: vec![Time::MAX; workers.len().div_ceil(DUE_BLOCK)],
            heads,
        }
    }

    /// Installs the fleet's vehicle-class table: every worker's class
    /// profile (speed multiplier, range budget) is looked up and pushed
    /// into its route, and workers joining later inherit it — the exact
    /// mirror of [`PlatformState::set_congestion`]. With the default
    /// single-class table every profile is standard and schedules are
    /// untouched.
    ///
    /// # Panics
    /// If a worker's class id is not in the table.
    pub fn set_classes(&mut self, classes: Arc<ClassTable>) {
        for agent in &mut self.agents {
            let profile = classes.get(agent.worker.class);
            agent
                .route
                .set_class_profile(profile.speed_permille, profile.range);
        }
        self.classes = classes;
        self.reindex_all();
    }

    /// The installed vehicle-class table.
    #[inline]
    pub fn classes(&self) -> &Arc<ClassTable> {
        &self.classes
    }

    /// Installs (or removes) a congestion profile: every worker's
    /// schedule is rebuilt under the provider, and workers joining
    /// later inherit it. Legs, planned distances and the unified cost
    /// all stay in free-flow units — only arrival times stretch (see
    /// [`crate::route::Route`] and DESIGN.md §7). Installing `None` or
    /// a flat profile reproduces the free-flow schedules exactly.
    pub fn set_congestion(&mut self, provider: Option<Arc<dyn TravelTimeProvider>>) {
        for agent in &mut self.agents {
            agent.route.set_congestion(provider.clone());
        }
        self.congestion = provider;
        self.reindex_all();
    }

    /// The installed congestion profile, if any.
    #[inline]
    pub fn congestion(&self) -> Option<&Arc<dyn TravelTimeProvider>> {
        self.congestion.as_ref()
    }

    /// Current platform time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Advances the platform clock (monotone).
    pub fn advance_clock(&mut self, t: Time) {
        debug_assert!(t >= self.now, "clock must be monotone");
        self.now = t;
    }

    /// The first time at which moving `w` forward is not a no-op;
    /// [`Time::MAX`] while `w` has nothing it can drive. A driver that
    /// advances exactly the workers with `due(w) ≤ t` moves the fleet
    /// as a sweep over every worker would.
    #[inline]
    pub fn due(&self, w: WorkerId) -> Time {
        self.due[w.idx()]
    }

    /// The earliest [`PlatformState::due`] among workers `b·DUE_BLOCK ..
    /// (b+1)·DUE_BLOCK`: a block whose minimum is above `t` holds no
    /// worker due by `t`. There are `num_workers().div_ceil(DUE_BLOCK)`
    /// blocks.
    #[inline]
    pub fn due_block(&self, b: usize) -> Time {
        self.due_min[b]
    }

    /// `w`'s entry of the head plane. Pure read, no agent touched.
    #[inline]
    pub fn head(&self, w: WorkerId) -> WorkerHead {
        self.heads[w.idx()]
    }

    /// Recomputes the motion index, its block summary, the head plane
    /// and the route boxes from the agents and compares: every `due[w]`
    /// matches its formula, every `due_min[b]` its block, every
    /// `heads[w]` its agent and every agent's box its route. For tests
    /// and audits; `O(fleet)`.
    pub fn check_motion_index(&self) -> Result<(), String> {
        let n = self.agents.len();
        if self.due.len() != n
            || self.heads.len() != n
            || self.due_min.len() != n.div_ceil(DUE_BLOCK)
        {
            return Err(format!(
                "index sized {} / {} / {} blocks for {n} workers",
                self.due.len(),
                self.heads.len(),
                self.due_min.len()
            ));
        }
        for (w, agent) in self.agents.iter().enumerate() {
            let want = due_time(&agent.route);
            if self.due[w] != want {
                return Err(format!("due[{w}] = {}, route says {want}", self.due[w]));
            }
            let route_box = RouteBox::of(&agent.route, &*self.oracle);
            if agent.route_box != route_box {
                return Err(format!(
                    "w{w}'s box is {:?}, route says {route_box:?}",
                    agent.route_box
                ));
            }
            let want = WorkerHead::of(agent);
            if self.heads[w] != want {
                return Err(format!(
                    "heads[{w}] = {:?}, agent says {want:?}",
                    self.heads[w]
                ));
            }
            let id = w as u64;
            let indexed = (self.grid.position(id), self.grid.is_marked(id));
            let want = (
                agent.active.then(|| self.oracle.point(want.vertex)),
                agent.active.then_some(want.idle),
            );
            if indexed != want {
                return Err(format!(
                    "w{w} indexed at {indexed:?} (position, idle), head says {want:?}"
                ));
            }
        }
        for (b, block) in self.agents.chunks(DUE_BLOCK).enumerate() {
            let want = block.iter().map(|a| due_time(&a.route)).min();
            if Some(self.due_min[b]) != want {
                return Err(format!(
                    "due_min[{b}] = {}, block says {want:?}",
                    self.due_min[b]
                ));
            }
        }
        Ok(())
    }

    /// Refreshes `w`'s entries of the motion index and the head plane
    /// and its route box, and moves an active worker's grid entry when
    /// its `l_0` or its idle flag changed. Every method that mutates a
    /// route ends here; routes are reachable for writing through no
    /// other door (there is no `agent_mut`).
    fn reindex(&mut self, w: WorkerId) {
        let i = w.idx();
        let agent = &mut self.agents[i];
        agent.route_box = RouteBox::of(&agent.route, &*self.oracle);
        let agent = &self.agents[i];
        let (was, due) = (self.due[i], due_time(&agent.route));
        self.due[i] = due;
        let b = i / DUE_BLOCK;
        if due < self.due_min[b] {
            self.due_min[b] = due;
        } else if due > was && was == self.due_min[b] {
            // The minimum's holder rose: rescan its block.
            let block = self.due[b * DUE_BLOCK..].iter().take(DUE_BLOCK);
            self.due_min[b] = block.copied().min().expect("w is in its block");
        }
        let head = WorkerHead::of(agent);
        let was = std::mem::replace(&mut self.heads[i], head);
        if !agent.active {
            return;
        }
        let id = u64::from(w.0);
        if was.vertex != head.vertex {
            self.grid.upsert(id, self.oracle.point(head.vertex));
        }
        if was.idle != head.idle {
            self.grid.set_marked(id, head.idle);
        }
    }

    /// Stores the lazy idle clock into `w`'s route before a commit
    /// splices into it; a no-op for a busy worker or one not behind.
    fn retime(&mut self, w: WorkerId) {
        let t = self.heads[w.idx()].departure(self.now);
        let route = &mut self.agents[w.idx()].route;
        if route.start_time() != t {
            route.set_start_time(t);
        }
    }

    fn reindex_all(&mut self) {
        for i in 0..self.agents.len() {
            self.reindex(WorkerId(i as u32));
        }
    }

    /// The distance oracle.
    #[inline]
    pub fn oracle(&self) -> &dyn DistanceOracle {
        &*self.oracle
    }

    /// The shared oracle handle.
    pub fn oracle_arc(&self) -> Arc<dyn DistanceOracle> {
        Arc::clone(&self.oracle)
    }

    /// Number of workers.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.agents.len()
    }

    /// Read access to a worker agent.
    ///
    /// Debug builds refuse an idle worker behind the clock: its stored
    /// `arr[0]` is not its departure time ([`WorkerHead::departure`]),
    /// so a planner reading that route would plan from the past.
    /// Planners read candidates through [`PlatformState::candidate`].
    #[inline]
    pub fn agent(&self, w: WorkerId) -> &WorkerAgent {
        debug_assert!(
            self.heads[w.idx()].departure(self.now) == self.heads[w.idx()].start,
            "stale read of {w}: idle since {}, clock at {}; read it through `candidate`",
            self.heads[w.idx()].start,
            self.now
        );
        &self.agents[w.idx()]
    }

    /// All agents, as stored: an idle route's `arr[0]` may lag the
    /// clock (see [`WorkerHead::departure`]).
    pub fn agents(&self) -> &[WorkerAgent] {
        &self.agents
    }

    /// What every planner reads of candidate `w`: its route as of the
    /// clock, and its capacity `K_w`. That is the stored route, or, for
    /// an idle worker behind the clock, a copy re-timed to its
    /// departure in `spare` (`clone_from`-reused: no allocation in
    /// steady state). Pure read, like the rest of the query plane.
    #[inline]
    pub fn candidate<'a>(&'a self, w: WorkerId, spare: &'a mut Route) -> (&'a Route, u32) {
        let head = self.heads[w.idx()];
        let route = &self.agents[w.idx()].route;
        let t = head.departure(self.now);
        if t == head.start {
            return (route, head.capacity);
        }
        spare.clone_from(route);
        spare.set_start_time(t);
        (spare, head.capacity)
    }

    /// The grid index, read-only: every active worker at its `l_0`.
    /// T-Share walks it through its own sorted cell order, and Fig. 5's
    /// memory panel reads its [`GridIndex::mem_bytes`].
    #[inline]
    pub fn grid(&self) -> &GridIndex {
        &self.grid
    }

    /// Shortlists workers eligible to serve `r` (Algo. 5 line 3):
    /// straight-line reachability at the network's top speed — a *safe*
    /// filter, since no worker can beat a straight line at top speed
    /// (and no class travels faster than baseline, see
    /// [`crate::types::ClassTable::new`]) — joined with the
    /// vehicle-class filter of the request's
    /// [`crate::types::ClassConstraint`]. These are the only two
    /// eligibility decisions made anywhere outside
    /// [`Route::insertion_feasible`]; planners receive the result
    /// as an opaque [`EligibleCandidates`] view.
    ///
    /// `direct` is `L = dis(o_r, d_r)`. Results are sorted by worker id
    /// for determinism. Pure read: safe to call concurrently.
    pub fn candidate_workers<'b>(
        &self,
        r: &Request,
        direct: Cost,
        buf: &'b mut CandidateBuf,
    ) -> EligibleCandidates<'b> {
        self.shortlist_where(r, direct, buf, |class| r.class.allows(class))
    }

    /// [`PlatformState::candidate_workers`] for a *group* of requests
    /// that will share one vehicle (epoch/batch planners): the spatial
    /// shortlist of the group's lead request, filtered to workers whose
    /// class every member's constraint allows. With only unconstrained
    /// requests this is exactly the lead's shortlist.
    ///
    /// # Panics
    /// If `group` is empty.
    pub fn group_candidate_workers<'b>(
        &self,
        group: &[Request],
        direct: Cost,
        buf: &'b mut CandidateBuf,
    ) -> EligibleCandidates<'b> {
        let lead = &group[0];
        self.shortlist_where(lead, direct, buf, |class| {
            group.iter().all(|m| m.class.allows(class))
        })
    }

    /// Whether two requests could ride the same vehicle as far as class
    /// constraints go — the grouping half of the eligibility seam for
    /// shareability planners. Pure read.
    #[inline]
    pub fn classes_compatible(&self, a: &Request, b: &Request) -> bool {
        a.class.compatible(b.class)
    }

    /// Shared body of the shortlist calls: grid reachability within the
    /// pickup budget, plus a class predicate.
    fn shortlist_where<'b>(
        &self,
        r: &Request,
        direct: Cost,
        buf: &'b mut CandidateBuf,
        class_ok: impl Fn(ClassId) -> bool,
    ) -> EligibleCandidates<'b> {
        buf.ids.clear();
        let (origin, radius_m) = self.reach(r, direct);
        self.grid.for_each_within(origin, radius_m, |id| {
            let w = WorkerId(id as u32);
            if class_ok(self.heads[w.idx()].class) {
                buf.ids.push(w);
            }
        });
        buf.ids.sort_unstable();
        EligibleCandidates { ids: &buf.ids }
    }

    /// The nearest worker [`PlatformState::candidate_workers`] would
    /// shortlist for `r` — an idle one if `idle_only` — among those at
    /// most `cap_m` metres from the pickup, with its straight-line
    /// distance: the lexicographic minimum of `(distance from l_0 to
    /// o_r, worker id)`. The same reach radius, the same radius test on
    /// the same distance and the same class filter as the shortlist;
    /// the grid reads the cells nearest the pickup first and stops at
    /// the first ring that cannot hold a nearer worker
    /// ([`GridIndex::nearest_where`]), so nothing is collected. `direct`
    /// is `L = dis(o_r, d_r)`. Pure read.
    pub fn nearest_candidate(
        &self,
        r: &Request,
        direct: Cost,
        idle_only: bool,
        cap_m: f64,
    ) -> Option<(f64, WorkerId)> {
        let (origin, radius_m) = self.reach(r, direct);
        self.grid
            .nearest_where(origin, radius_m.min(cap_m), idle_only, |id| {
                r.class.allows(self.heads[id as usize].class)
            })
            .map(|(d, id)| (d, WorkerId(id as u32)))
    }

    /// Where a worker must stand to reach `r`'s pickup in time: the
    /// pickup point, and the radius its straight line at top speed
    /// covers before the pickup deadline `e_r − L`.
    fn reach(&self, r: &Request, direct: Cost) -> (Point, f64) {
        let pickup_ddl = r.pickup_deadline(direct);
        let budget_cs = pickup_ddl.saturating_sub(self.now);
        // centiseconds → meters at top speed.
        let radius_m = (budget_cs as f64 / 100.0) * self.oracle.top_speed_mps();
        (self.oracle.point(r.origin), radius_m)
    }

    /// Opens the DP engine's [`CandidateStream`] for `r`: exactly the
    /// workers [`PlatformState::candidate_workers`] would shortlist,
    /// the busy ones keyed by their route boxes, the idle ones left in
    /// their cells, for `PlatformState::pull_candidate`. `direct` is
    /// `L = dis(o_r, d_r)`. Pure read.
    pub fn open_candidate_stream(&self, r: &Request, direct: Cost, stream: &mut CandidateStream) {
        let (origin, radius_m) = self.reach(r, direct);
        let destination = self.oracle.point(r.destination);
        let speed = self.oracle.top_speed_mps();
        // Heapify in place: the buffer moves out and back, never freed.
        let mut heap = std::mem::take(&mut stream.heap).into_vec();
        heap.clear();
        self.grid.sweep_split(origin, radius_m, |hit| match hit {
            SweepHit::Unmarked(id) => {
                let w = WorkerId(id as u32);
                if r.class.allows(self.heads[w.idx()].class) {
                    let key =
                        self.agents[w.idx()]
                            .route_box
                            .bound(origin, destination, direct, speed);
                    heap.push(Reverse((key, Candidate::Busy(w))));
                }
            }
            SweepHit::MarkedCell { cell, bound_m } => {
                let key = cost_add(euclidean_cost(bound_m, speed), direct);
                heap.push(Reverse((key, Candidate::Cell(cell as u32))));
            }
        });
        stream.heap = BinaryHeap::from(heap);
        stream.request = Some((*r, direct));
        stream.origin = origin;
        stream.radius_m = radius_m;
        stream.bounded = 0;
    }

    /// Pulls the candidate of `stream` with the least key (a no-op once
    /// none is left) and pushes what survives its bound to `out`. A busy
    /// worker is bounded by [`crate::lower_bound::insertion_lower_bound`]
    /// over its route, counted in `work`. A cell yields every idle
    /// worker in it that passes [`PlatformState::candidate_workers`]'
    /// radius test — the same comparison on the same distance — and
    /// class filter, bounded by `lower_bound::idle_lower_bound`'s rule
    /// with its `euc(l_0, o_r)` taken from that distance.
    pub(crate) fn pull_candidate(
        &self,
        stream: &mut CandidateStream,
        out: &mut Shortlist,
        work: &mut BoundWork,
    ) {
        let Some(Reverse((key, candidate))) = stream.heap.pop() else {
            return;
        };
        let (r, direct) = stream
            .request
            .as_ref()
            .map(|(r, direct)| (r, *direct))
            .expect("stream not opened");
        let cell = match candidate {
            Candidate::Busy(w) => {
                let agent = self.agent(w);
                let (lb, positions) = scan_lower_bound(
                    &agent.route,
                    agent.worker.capacity,
                    r,
                    direct,
                    self.oracle(),
                );
                stream.bounded += 1;
                work.exact += 1;
                work.positions += positions as u64;
                if let Some(lb) = lb {
                    debug_assert!(key <= lb, "{w}: box key {key} above its bound {lb}");
                    out.push_bound(lb, w);
                }
                return;
            }
            Candidate::Cell(cell) => cell,
        };
        let speed = self.oracle.top_speed_mps();
        let mut bounded = 0;
        for &(id, q) in self.grid.marked_items(cell as usize) {
            let d = q.euclidean_m(&stream.origin);
            if d <= stream.radius_m {
                let w = WorkerId(id as u32);
                let head = self.heads[w.idx()];
                if r.class.allows(head.class) {
                    bounded += 1;
                    let e_or = euclidean_cost(d, speed);
                    debug_assert_eq!(e_or, self.oracle.euc(head.vertex, r.origin), "{w}");
                    if let Some(lb) = idle_bound_at(&head, self.now, r, direct, e_or) {
                        debug_assert!(key <= lb, "{w}: cell key {key} above its bound {lb}");
                        out.push_bound(lb, w);
                    }
                }
            }
        }
        stream.bounded += bounded;
    }

    /// The class half of the eligibility seam, for planners that build
    /// their own *spatial* shortlist (T-Share's sorted-cell rings over
    /// [`PlatformState::grid`]): drops every worker the request's class
    /// constraint excludes, preserving order. Grid item ids (`u64`)
    /// because that is what the grid's cells yield. A no-op for
    /// unconstrained requests, so the homogeneous fleet is untouched
    /// byte for byte.
    pub fn retain_class_eligible(&self, r: &Request, ids: &mut Vec<u64>) {
        ids.retain(|&id| r.class.allows(self.heads[id as usize].class));
    }

    /// Commits an insertion plan: splices the stops into the worker's
    /// route — an idle one first re-timed to its departure, the route
    /// the plan was made on ([`PlatformState::candidate`]) — and
    /// updates the cost accounting.
    pub fn commit(&mut self, w: WorkerId, r: &Request, plan: &InsertionPlan) {
        self.retime(w);
        let agent = &mut self.agents[w.idx()];
        #[cfg(debug_assertions)]
        let old_remaining = agent.route.remaining_distance();
        agent.route.apply_insertion(plan, r);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            agent.route.remaining_distance(),
            old_remaining + plan.delta,
            "insertion delta must match the planned-distance growth"
        );
        debug_assert_eq!(
            agent.route.validate(agent.worker.capacity),
            Ok(()),
            "commit must preserve feasibility"
        );
        agent.assigned_distance += plan.delta;
        self.assignment.insert(r.id, w);
        *self.served_slot(w) += 1;
        self.reindex(w);
    }

    /// Commits a *re-ordered* route for `w` that additionally serves
    /// `r` — the kinetic-tree baseline may permute pending stops, which
    /// plain insertion cannot express. `stops`/`legs` are the new tail
    /// (see [`Route::replace_tail`]); `delta` is the growth of the
    /// planned distance. An idle route is re-timed first, as in
    /// [`PlatformState::commit`].
    ///
    /// Debug builds verify the invariability constraint: every request
    /// previously on the route must still be on it.
    pub fn commit_reordered(
        &mut self,
        w: WorkerId,
        r: &Request,
        stops: &[Stop],
        legs: &[Cost],
        delta: Cost,
    ) {
        self.retime(w);
        let agent = &mut self.agents[w.idx()];
        #[cfg(debug_assertions)]
        let before: std::collections::BTreeSet<(RequestId, crate::types::StopKind)> =
            agent.route.stops().map(|s| (s.request, s.kind)).collect();
        #[cfg(debug_assertions)]
        let old_remaining = agent.route.remaining_distance();
        agent.route.replace_tail(stops, legs);
        #[cfg(debug_assertions)]
        {
            let after: std::collections::BTreeSet<(RequestId, crate::types::StopKind)> =
                agent.route.stops().map(|s| (s.request, s.kind)).collect();
            for key in &before {
                assert!(
                    after.contains(key),
                    "reorder dropped committed stop {key:?}"
                );
            }
            assert!(
                after.contains(&(r.id, crate::types::StopKind::Delivery)),
                "reorder must serve the new request"
            );
            assert_eq!(
                agent.route.remaining_distance(),
                old_remaining + delta,
                "delta must match the planned-distance growth"
            );
            assert_eq!(agent.route.validate(agent.worker.capacity), Ok(()));
        }
        agent.assigned_distance += delta;
        self.assignment.insert(r.id, w);
        *self.served_slot(w) += 1;
        self.reindex(w);
    }

    /// Records a rejection (irrevocable; the penalty accrues).
    pub fn reject(&mut self, r: &Request) {
        self.rejected.push((r.id, r.penalty));
    }

    /// Pre-reserves every container that grows when requests are
    /// decided or completed (assignment map, completion set, rejection
    /// and cancellation logs) for `n` further requests.
    /// Decision-making itself is allocation-free in steady state; this
    /// moves the *bookkeeping* growth up front too, which is what lets
    /// the zero-allocation gate (`tests/alloc_gate.rs`) pin a planned
    /// insertion at zero allocations end to end.
    pub fn reserve_request_capacity(&mut self, n: usize) {
        self.assignment.reserve(n);
        self.completed.reserve(n);
        self.rejected.reserve(n);
        self.cancelled.reserve(n);
    }

    /// The served count of `w`'s class: a commit adds one, a
    /// cancellation or a strip that takes a request back removes one.
    fn served_slot(&mut self, w: WorkerId) -> &mut usize {
        let c = self.agents[w.idx()].worker.class.idx();
        if c >= self.served.len() {
            self.served.resize(c + 1, 0);
        }
        &mut self.served[c]
    }

    /// Number of served (assigned) requests so far.
    pub fn served_count(&self) -> usize {
        self.served.iter().sum()
    }

    /// [`PlatformState::served_count`] split by the class of the worker
    /// holding each request, indexed by `ClassId`. A class whose
    /// workers never committed a request may be missing from the end.
    pub fn served_by_class(&self) -> &[usize] {
        &self.served
    }

    /// Number of rejected requests so far.
    #[inline]
    pub fn rejected_count(&self) -> usize {
        self.rejected.len()
    }

    /// Ids and penalties of rejected requests.
    pub fn rejected(&self) -> &[(RequestId, Cost)] {
        &self.rejected
    }

    /// Σ over workers of committed insertion deltas.
    pub fn total_assigned_distance(&self) -> Cost {
        self.agents.iter().map(|a| a.assigned_distance).sum()
    }

    /// The unified cost (Eq. 1) at weight `alpha`.
    pub fn unified_cost(&self, alpha: u64) -> UnifiedCost {
        UnifiedCost {
            alpha,
            total_distance: self.total_assigned_distance(),
            total_penalty: self.rejected.iter().map(|(_, p)| *p).sum(),
        }
    }

    // ── Movement API (driven by the simulator) ───────────────────────

    /// Moves a worker to vertex `v`, arriving at `time`;
    /// `first_leg` must be `dis(v, l_1)` when the route is non-empty.
    pub fn set_worker_position(
        &mut self,
        w: WorkerId,
        v: VertexId,
        time: Time,
        first_leg: Option<Cost>,
    ) {
        let agent = &mut self.agents[w.idx()];
        agent.route.set_start(v, time, first_leg);
        self.reindex(w);
    }

    /// Snaps a mid-leg worker onto vertex `v` of its current first leg,
    /// reached at `time`, with `remaining_base` free-flow cost left to
    /// `l_1` ([`crate::route::Route::snap_on_leg`]: the head arrival is
    /// frozen so a snap never moves the schedule). The grid position
    /// follows, exactly as in [`PlatformState::set_worker_position`].
    pub fn snap_worker_on_leg(
        &mut self,
        w: WorkerId,
        v: VertexId,
        time: Time,
        remaining_base: Cost,
    ) {
        let agent = &mut self.agents[w.idx()];
        agent.route.snap_on_leg(v, time, remaining_base);
        self.reindex(w);
    }

    /// Pops the first stop of `w`'s route (the worker reached it); the
    /// grid position follows. Returns the stop and its arrival time.
    pub fn pop_worker_stop(&mut self, w: WorkerId) -> (Stop, Time) {
        let agent = &mut self.agents[w.idx()];
        let (stop, at) = agent.route.pop_front_stop();
        if stop.kind == StopKind::Delivery && self.assignment.remove(&stop.request).is_some() {
            self.completed.insert(stop.request);
        }
        self.reindex(w);
        (stop, at)
    }

    // ── Lifecycle API (cancellations and fleet churn) ────────────────

    /// Attempts to cancel a previously submitted request.
    ///
    /// * Pickup still pending → both its stops are removed from the
    ///   assigned worker's route (the bridge legs are re-queried from
    ///   the oracle), the freed planned distance is deducted from the
    ///   worker's accounting, and the served count rolls back.
    /// * Already picked up → [`CancelOutcome::Onboard`]: the delivery
    ///   stays committed (invariability).
    /// * Delivered / rejected / unseen → reported as such, no mutation.
    pub fn cancel_request(&mut self, rid: RequestId) -> CancelOutcome {
        let Some(&w) = self.assignment.get(&rid) else {
            if self.completed.contains(&rid) {
                return CancelOutcome::Completed;
            }
            if self.rejected.iter().any(|(r, _)| *r == rid) {
                return CancelOutcome::WasRejected;
            }
            return CancelOutcome::Unknown;
        };
        let oracle = Arc::clone(&self.oracle);
        let agent = &mut self.agents[w.idx()];
        match agent.route.remove_request(rid, |a, b| oracle.dis(a, b)) {
            Some(freed) => {
                agent.assigned_distance = agent.assigned_distance.saturating_sub(freed);
                debug_assert_eq!(agent.route.validate(agent.worker.capacity), Ok(()));
                self.assignment.remove(&rid);
                self.cancelled.push(rid);
                *self.served_slot(w) -= 1;
                self.reindex(w);
                CancelOutcome::Cancelled { worker: w, freed }
            }
            // Still assigned but no pending pickup: the request is in
            // the vehicle (delivery pending) — completion is handled by
            // `pop_worker_stop`, which clears the assignment entry.
            None => CancelOutcome::Onboard { worker: w },
        }
    }

    /// Adds a worker to the fleet at the current time. Ids must stay
    /// dense: `w.id` must equal the current fleet size.
    ///
    /// # Panics
    /// If `w.id` is not the next dense id.
    pub fn add_worker(&mut self, w: Worker) {
        assert_eq!(
            w.id.idx(),
            self.agents.len(),
            "joining workers must take the next dense id"
        );
        self.grid
            .upsert(u64::from(w.id.0), self.oracle.point(w.origin));
        self.grid.set_marked(u64::from(w.id.0), true);
        let mut route = Route::new(w.origin, self.now);
        if self.congestion.is_some() {
            route.set_congestion(self.congestion.clone());
        }
        let profile = self.classes.get(w.class);
        if !profile.is_standard_profile() {
            route.set_class_profile(profile.speed_permille, profile.range);
        }
        self.agents.push(WorkerAgent {
            worker: w,
            route_box: RouteBox::of(&route, &*self.oracle),
            route,
            assigned_distance: 0,
            active: true,
        });
        self.due.push(Time::MAX);
        if self.due.len() > self.due_min.len() * DUE_BLOCK {
            self.due_min.push(Time::MAX);
        }
        self.heads
            .push(WorkerHead::of(self.agents.last().expect("just pushed")));
    }

    /// Retires a worker: it leaves the grid index (so it is never
    /// shortlisted again) but keeps its committed stops — the driver
    /// keeps moving it until its route drains. Idempotent.
    pub fn retire_worker(&mut self, w: WorkerId) {
        let agent = &mut self.agents[w.idx()];
        if !agent.active {
            return;
        }
        agent.active = false;
        self.grid.remove(u64::from(w.0));
    }

    /// Exports an **idle** worker for a cross-platform handoff: retires
    /// it here (grid removal, no new work) and returns the
    /// [`HandoffTicket`] the receiving platform turns back into a
    /// worker via [`PlatformState::add_worker`] (under that platform's
    /// own dense id).
    ///
    /// Returns `None` — and mutates nothing — unless the worker is
    /// active with an empty route: a worker with committed stops must
    /// finish them where they were promised (the invariability
    /// constraint), and splitting its ledger would break the exact
    /// driven/planned accounting on both sides.
    pub fn export_worker(&mut self, w: WorkerId) -> Option<HandoffTicket> {
        let agent = &self.agents[w.idx()];
        if !agent.active || !agent.route.is_empty() {
            return None;
        }
        let ticket = HandoffTicket {
            position: agent.route.start_vertex(),
            capacity: agent.worker.capacity,
            class: agent.worker.class,
        };
        self.retire_worker(w);
        Some(ticket)
    }

    /// Strips every not-yet-picked-up request from `w`'s route (the
    /// `Reassign` departure policy), rolling back their accounting as
    /// in [`PlatformState::cancel_request`] — but *without* marking
    /// them cancelled: the caller re-offers them through the planner.
    /// Onboard riders stay (they must still be delivered).
    ///
    /// Returns the stripped request ids in route order, each with the
    /// planned free-flow distance the strip freed — the same quantity
    /// [`CancelOutcome::Cancelled`] reports, so the audit can replay
    /// the ledger `planned = Σ deltas − Σ freed` exactly, congested or
    /// not. Bridge legs are re-queried at free-flow cost and the
    /// schedule is rebuilt under the installed congestion profile, so
    /// departure-time-aware arrivals stay correct after the surgery.
    pub fn strip_unpicked(&mut self, w: WorkerId) -> Vec<(RequestId, Cost)> {
        let mut stripped: Vec<(RequestId, Cost)> = Vec::new();
        for s in self.agents[w.idx()].route.stops() {
            if s.kind == StopKind::Pickup && !stripped.iter().any(|&(r, _)| r == s.request) {
                stripped.push((s.request, 0));
            }
        }
        let oracle = Arc::clone(&self.oracle);
        for (rid, freed_out) in &mut stripped {
            let agent = &mut self.agents[w.idx()];
            let freed = agent
                .route
                .remove_request(*rid, |a, b| oracle.dis(a, b))
                .expect("pickup pending by construction");
            agent.assigned_distance = agent.assigned_distance.saturating_sub(freed);
            self.assignment.remove(rid);
            *self.served_slot(w) -= 1;
            *freed_out = freed;
        }
        debug_assert_eq!(
            self.agents[w.idx()]
                .route
                .validate(self.agents[w.idx()].worker.capacity),
            Ok(())
        );
        self.reindex(w);
        stripped
    }

    /// Records a cancellation that was absorbed *outside* the platform
    /// — a batch planner dropping a still-buffered request from its
    /// epoch. No route ever saw the request, so there is nothing to
    /// undo; this only keeps [`PlatformState::cancelled`] the complete
    /// list of withdrawn requests.
    pub fn note_cancelled(&mut self, rid: RequestId) {
        debug_assert!(
            !self.assignment.contains_key(&rid),
            "assigned requests must go through cancel_request"
        );
        self.cancelled.push(rid);
    }

    /// Number of successfully cancelled requests so far.
    #[inline]
    pub fn cancelled_count(&self) -> usize {
        self.cancelled.len()
    }

    /// Ids of successfully cancelled requests, in cancellation order.
    pub fn cancelled(&self) -> &[RequestId] {
        &self.cancelled
    }

    /// Number of requests fully delivered so far.
    #[inline]
    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }
}

// The whole point of the query plane: reads are shareable across
// threads. Compile-time proof that nothing with interior mutability
// sneaks back into `PlatformState`.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<PlatformState>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::linear_dp_insertion;
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;

    fn line_oracle(n: usize) -> Arc<dyn DistanceOracle> {
        let rows: Vec<Vec<Cost>> = (0..n)
            .map(|u| (0..n).map(|v| (u.abs_diff(v) as Cost) * 100).collect())
            .collect();
        // 1 m apart, top speed 1 m/s ⇒ euc(u,v) = |u−v|·100 = dis.
        let points = (0..n).map(|k| Point::new(k as f64, 0.0)).collect();
        Arc::new(MatrixOracle::from_matrix(&rows, points, 1.0))
    }

    fn workers(n: u32, origin: u32, cap: u32) -> Vec<Worker> {
        (0..n)
            .map(|i| Worker {
                class: Default::default(),
                id: WorkerId(i),
                origin: VertexId(origin + i),
                capacity: cap,
            })
            .collect()
    }

    fn request(id: u32, o: u32, d: u32, deadline: Time) -> Request {
        Request {
            class: Default::default(),
            id: RequestId(id),
            origin: VertexId(o),
            destination: VertexId(d),
            release: 0,
            deadline,
            penalty: 100,
            capacity: 1,
        }
    }

    #[test]
    fn candidate_filter_respects_pickup_reachability() {
        let oracle = line_oracle(100);
        let ws = workers(3, 0, 4); // workers at vertices 0, 1, 2
        let state = PlatformState::new(oracle, &ws, 10.0, 0);
        // Pickup at vertex 50, deadline leaves 10s of pickup budget at
        // 1 m/s ⇒ 10 m radius: no worker is within 10 m of x=50.
        let r = request(1, 50, 52, 1_200); // L = 200 cs; pickup ddl = 1000 cs = 10 s
        let mut buf = CandidateBuf::new();
        assert!(state.candidate_workers(&r, 200, &mut buf).is_empty());
        // Generous deadline: everyone is a candidate, sorted by id.
        let r = request(2, 50, 52, 100_000);
        let out: Vec<WorkerId> = state.candidate_workers(&r, 200, &mut buf).iter().collect();
        assert_eq!(out, vec![WorkerId(0), WorkerId(1), WorkerId(2)]);
    }

    #[test]
    fn commit_updates_accounting_and_route() {
        let oracle = line_oracle(30);
        let ws = workers(1, 0, 4);
        let mut state = PlatformState::new(oracle, &ws, 10.0, 0);
        let r = request(1, 5, 10, 100_000);
        let plan =
            linear_dp_insertion(&state.agent(WorkerId(0)).route, 4, &r, state.oracle()).unwrap();
        state.commit(WorkerId(0), &r, &plan);
        assert_eq!(state.served_count(), 1);
        assert_eq!(state.total_assigned_distance(), 1_000); // 0→5→10
        assert_eq!(state.agent(WorkerId(0)).route.len(), 2);
        assert_eq!(state.served_by_class(), [1]);

        state.reject(&request(2, 1, 2, 10));
        let uc = state.unified_cost(1);
        assert_eq!(uc.total_distance, 1_000);
        assert_eq!(uc.total_penalty, 100);
        assert_eq!(uc.value(), 1_100);
    }

    #[test]
    fn movement_updates_grid_candidates() {
        let oracle = line_oracle(100);
        let ws = workers(1, 0, 4);
        let mut state = PlatformState::new(oracle, &ws, 5.0, 0);
        let mut buf = CandidateBuf::new();
        // Tight budget near vertex 90: worker at 0 not a candidate.
        let r = request(1, 90, 92, state.now() + 200 + 500); // 5 s pickup budget
        assert!(state.candidate_workers(&r, 200, &mut buf).is_empty());
        // Teleport the worker to vertex 89 (simulating movement).
        state.set_worker_position(WorkerId(0), VertexId(89), 100, None);
        let out: Vec<WorkerId> = state.candidate_workers(&r, 200, &mut buf).iter().collect();
        assert_eq!(out, vec![WorkerId(0)]);
    }

    #[test]
    fn pop_stop_moves_worker_and_load() {
        let oracle = line_oracle(30);
        let ws = workers(1, 0, 4);
        let mut state = PlatformState::new(oracle, &ws, 10.0, 0);
        let r = request(1, 5, 10, 100_000);
        let plan =
            linear_dp_insertion(&state.agent(WorkerId(0)).route, 4, &r, state.oracle()).unwrap();
        state.commit(WorkerId(0), &r, &plan);
        let (stop, at) = state.pop_worker_stop(WorkerId(0));
        assert_eq!(stop.vertex, VertexId(5));
        assert_eq!(at, 500);
        assert_eq!(state.agent(WorkerId(0)).route.onboard(), 1);
        assert_eq!(state.agent(WorkerId(0)).route.start_vertex(), VertexId(5));
    }

    #[test]
    fn cancel_rolls_back_route_and_accounting() {
        let oracle = line_oracle(30);
        let ws = workers(1, 0, 4);
        let mut state = PlatformState::new(oracle, &ws, 10.0, 0);
        let r1 = request(1, 5, 10, 100_000);
        let r2 = request(2, 12, 20, 100_000);
        for r in [&r1, &r2] {
            let plan =
                linear_dp_insertion(&state.agent(WorkerId(0)).route, 4, r, state.oracle()).unwrap();
            state.commit(WorkerId(0), r, &plan);
        }
        assert_eq!(state.served_count(), 2);
        let holds_r2 = |state: &PlatformState| {
            state
                .agent(WorkerId(0))
                .route
                .stops()
                .any(|s| s.request == RequestId(2))
        };
        assert!(holds_r2(&state));
        let before = state.total_assigned_distance();

        let out = state.cancel_request(RequestId(2));
        let CancelOutcome::Cancelled { worker, freed } = out else {
            panic!("expected cancellation, got {out:?}");
        };
        assert_eq!(worker, WorkerId(0));
        assert_eq!(state.served_count(), 1);
        assert_eq!(state.cancelled_count(), 1);
        assert_eq!(state.cancelled(), &[RequestId(2)]);
        assert_eq!(state.total_assigned_distance(), before - freed);
        assert_eq!(state.agent(WorkerId(0)).route.len(), 2);
        assert!(!holds_r2(&state));
        // Second cancel: no assignment is left to cancel.
        assert_eq!(state.cancel_request(RequestId(2)), CancelOutcome::Unknown);
    }

    #[test]
    fn cancel_respects_onboard_completed_and_rejected() {
        let oracle = line_oracle(30);
        let ws = workers(1, 0, 4);
        let mut state = PlatformState::new(oracle, &ws, 10.0, 0);
        let r = request(1, 5, 10, 100_000);
        let plan =
            linear_dp_insertion(&state.agent(WorkerId(0)).route, 4, &r, state.oracle()).unwrap();
        state.commit(WorkerId(0), &r, &plan);

        // Picked up: too late, the delivery is irrevocable.
        state.pop_worker_stop(WorkerId(0));
        assert_eq!(
            state.cancel_request(RequestId(1)),
            CancelOutcome::Onboard {
                worker: WorkerId(0)
            }
        );
        // Delivered: completed.
        state.pop_worker_stop(WorkerId(0));
        assert_eq!(state.cancel_request(RequestId(1)), CancelOutcome::Completed);
        assert_eq!(state.completed_count(), 1);

        state.reject(&request(2, 1, 2, 10));
        assert_eq!(
            state.cancel_request(RequestId(2)),
            CancelOutcome::WasRejected
        );
        assert_eq!(state.cancel_request(RequestId(9)), CancelOutcome::Unknown);
    }

    #[test]
    fn retire_removes_from_candidates_and_strip_reassigns() {
        let oracle = line_oracle(100);
        let ws = workers(2, 0, 4); // workers at 0 and 1
        let mut state = PlatformState::new(oracle, &ws, 10.0, 0);
        let r1 = request(1, 5, 10, 1_000_000);
        let plan =
            linear_dp_insertion(&state.agent(WorkerId(0)).route, 4, &r1, state.oracle()).unwrap();
        state.commit(WorkerId(0), &r1, &plan);

        let mut buf = CandidateBuf::new();
        let probe = request(9, 2, 4, 1_000_000);
        let out: Vec<WorkerId> = state
            .candidate_workers(&probe, 200, &mut buf)
            .iter()
            .collect();
        assert_eq!(out, vec![WorkerId(0), WorkerId(1)]);

        state.retire_worker(WorkerId(0));
        state.retire_worker(WorkerId(0)); // idempotent
        let out: Vec<WorkerId> = state
            .candidate_workers(&probe, 200, &mut buf)
            .iter()
            .collect();
        assert_eq!(out, vec![WorkerId(1)]);
        assert!(!state.agent(WorkerId(0)).active);

        // Stripping hands the un-picked request back, reporting the
        // freed planned distance (the full 0→5→10 plan here).
        let stripped = state.strip_unpicked(WorkerId(0));
        assert_eq!(stripped, vec![(RequestId(1), 1_000)]);
        assert!(state.agent(WorkerId(0)).route.is_empty());
        assert_eq!(state.served_count(), 0);
        assert_eq!(state.total_assigned_distance(), 0);
        // Not marked cancelled — the caller re-offers it.
        assert_eq!(state.cancelled_count(), 0);
    }

    #[test]
    fn export_worker_only_hands_off_idle_workers() {
        let oracle = line_oracle(100);
        let ws = workers(2, 0, 4); // workers at 0 and 1
        let mut state = PlatformState::new(oracle.clone(), &ws, 10.0, 0);
        let r = request(1, 5, 10, 1_000_000);
        let plan =
            linear_dp_insertion(&state.agent(WorkerId(0)).route, 4, &r, state.oracle()).unwrap();
        state.commit(WorkerId(0), &r, &plan);

        // Busy worker: refused, nothing changes.
        assert_eq!(state.export_worker(WorkerId(0)), None);
        assert!(state.agent(WorkerId(0)).active);

        // Idle worker: exported with its exact position, then retired.
        state.set_worker_position(WorkerId(1), VertexId(42), 100, None);
        let ticket = state.export_worker(WorkerId(1)).expect("idle worker");
        assert_eq!(
            ticket,
            HandoffTicket {
                class: Default::default(),
                position: VertexId(42),
                capacity: 4
            }
        );
        assert!(!state.agent(WorkerId(1)).active);
        let mut buf = CandidateBuf::new();
        let probe = request(9, 42, 44, 1_000_000);
        assert!(
            !state
                .candidate_workers(&probe, 200, &mut buf)
                .iter()
                .any(|w| w == WorkerId(1)),
            "exported worker left the grid"
        );
        // Re-export: already retired, refused.
        assert_eq!(state.export_worker(WorkerId(1)), None);

        // The receiving platform re-creates the worker from the ticket.
        let mut dest = PlatformState::new(oracle, &[], 10.0, 100);
        dest.add_worker(Worker {
            class: Default::default(),
            id: WorkerId(0),
            origin: ticket.position,
            capacity: ticket.capacity,
        });
        assert_eq!(dest.num_workers(), 1);
        assert_eq!(dest.agent(WorkerId(0)).route.start_vertex(), VertexId(42));
    }

    #[test]
    fn add_worker_joins_grid_and_fleet() {
        let oracle = line_oracle(100);
        let ws = workers(1, 0, 4);
        let mut state = PlatformState::new(oracle, &ws, 10.0, 0);
        state.advance_clock(500);
        state.add_worker(Worker {
            class: Default::default(),
            id: WorkerId(1),
            origin: VertexId(50),
            capacity: 2,
        });
        assert_eq!(state.num_workers(), 2);
        assert_eq!(state.agent(WorkerId(1)).route.start_time(), 500);
        let mut buf = CandidateBuf::new();
        let probe = request(9, 50, 52, 1_000_000);
        assert!(state
            .candidate_workers(&probe, 200, &mut buf)
            .iter()
            .any(|w| w == WorkerId(1)));
    }

    #[test]
    #[should_panic(expected = "next dense id")]
    fn add_worker_enforces_dense_ids() {
        let oracle = line_oracle(10);
        let ws = workers(1, 0, 4);
        let mut state = PlatformState::new(oracle, &ws, 10.0, 0);
        state.add_worker(Worker {
            class: Default::default(),
            id: WorkerId(7),
            origin: VertexId(0),
            capacity: 2,
        });
    }

    #[test]
    fn concurrent_candidate_queries_match_sequential() {
        let oracle = line_oracle(100);
        let ws = workers(3, 0, 4);
        let state = PlatformState::new(oracle, &ws, 10.0, 0);
        let r = request(2, 50, 52, 100_000);
        let mut buf = CandidateBuf::new();
        let expect: Vec<WorkerId> = state.candidate_workers(&r, 200, &mut buf).iter().collect();
        assert_eq!(expect, vec![WorkerId(0), WorkerId(1), WorkerId(2)]);

        // The same query through a shared `&state`, from four threads
        // at once — `&self` reads need no coordination.
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut buf = CandidateBuf::new();
                        let mut out = Vec::new();
                        for _ in 0..50 {
                            out = state.candidate_workers(&r, 200, &mut buf).iter().collect();
                        }
                        out
                    })
                })
                .collect();
            for reader in readers {
                assert_eq!(reader.join().expect("reader panicked"), expect);
            }
        });
        assert_eq!(state.num_workers(), 3);
        assert_eq!(state.agent(WorkerId(1)).worker.id, WorkerId(1));
    }

    #[test]
    fn congestion_installs_into_present_and_future_routes() {
        use road_network::congestion::CongestionProfile;
        let oracle = line_oracle(30);
        let ws = workers(1, 0, 4);
        let mut state = PlatformState::new(oracle, &ws, 10.0, 0);
        let r = request(1, 5, 10, 100_000);
        let plan =
            linear_dp_insertion(&state.agent(WorkerId(0)).route, 4, &r, state.oracle()).unwrap();
        state.commit(WorkerId(0), &r, &plan);
        assert_eq!(state.agent(WorkerId(0)).route.arr(2), 1_000);

        let profile: Arc<dyn road_network::congestion::TravelTimeProvider> =
            Arc::new(CongestionProfile::constant("x2", 2.0).unwrap());
        state.set_congestion(Some(profile));
        // Existing schedule re-stretched; economics unchanged.
        assert_eq!(state.agent(WorkerId(0)).route.arr(2), 2_000);
        assert_eq!(state.total_assigned_distance(), 1_000);
        assert!(state.agent(WorkerId(0)).route.time_dependent());
        // Joiners inherit the profile.
        state.add_worker(Worker {
            class: Default::default(),
            id: WorkerId(1),
            origin: VertexId(20),
            capacity: 2,
        });
        assert!(state.agent(WorkerId(1)).route.congestion().is_some());

        // A mid-leg snap keeps the schedule and moves the grid entry.
        state.snap_worker_on_leg(WorkerId(0), VertexId(2), 400, 300);
        assert_eq!(state.agent(WorkerId(0)).route.arr(1), 1_000);
        assert_eq!(state.agent(WorkerId(0)).route.leg(1), 300);
        let mut buf = CandidateBuf::new();
        let probe = request(9, 2, 4, 1_000_000);
        assert!(state
            .candidate_workers(&probe, 200, &mut buf)
            .iter()
            .any(|w| w == WorkerId(0)));
    }

    /// A road closure: legs whose (class-stretched) base exceeds the
    /// threshold cannot be driven.
    struct ClosedAbove(Cost);

    impl TravelTimeProvider for ClosedAbove {
        fn leg_time(&self, _from: VertexId, base: Cost, _depart: u64) -> Cost {
            if base > self.0 {
                INF
            } else {
                base
            }
        }
        fn is_flat(&self) -> bool {
            false
        }
        fn name(&self) -> &str {
            "closed-above"
        }
    }

    /// Walks one platform through every route-mutating method and
    /// checks the motion index after each — including the ones a
    /// running service never reaches after construction
    /// (`set_congestion` / `set_classes` over busy routes,
    /// `set_worker_position`) and `export_worker`, which retires a
    /// worker without touching its route.
    #[test]
    fn motion_index_tracks_every_route_mutation() {
        use crate::types::VehicleClass;
        let (w0, w1, w2) = (WorkerId(0), WorkerId(1), WorkerId(2));
        let oracle = line_oracle(100);
        let mut state = PlatformState::new(oracle, &workers(3, 0, 4), 10.0, 0);
        let plan_for = |state: &PlatformState, w: WorkerId, r: &Request| {
            let mut spare = Route::default();
            let (route, capacity) = state.candidate(w, &mut spare);
            linear_dp_insertion(route, capacity, r, state.oracle()).unwrap()
        };
        let check = |state: &PlatformState| assert_eq!(state.check_motion_index(), Ok(()));
        check(&state);
        assert_eq!(state.due(w0), Time::MAX, "nothing to drive yet");
        assert!(state.head(w0).idle);

        // commit: 0 → 5 → 10, pickup at 500. Movable as soon as the
        // clock passes arr[0] = 0.
        let r1 = request(1, 5, 10, 1_000_000);
        let plan = plan_for(&state, w0, &r1);
        state.commit(w0, &r1, &plan);
        check(&state);
        assert_eq!(state.due(w0), 1);
        assert!(!state.head(w0).idle);
        // A pickup at the worker's own vertex is due at once: arr[1]
        // = arr[0] wins the min.
        let r2 = request(2, 1, 3, 1_000_000);
        let plan = plan_for(&state, w1, &r2);
        state.commit(w1, &r2, &plan);
        check(&state);
        assert_eq!(state.due(w1), 0);

        state.snap_worker_on_leg(w0, VertexId(2), 200, 300);
        check(&state);
        assert_eq!(state.due(w0), 201);
        state.set_worker_position(w0, VertexId(4), 450, Some(100));
        check(&state);
        assert_eq!(state.due(w0), 451);
        assert_eq!(
            (state.head(w0).vertex, state.head(w0).start),
            (VertexId(4), 450)
        );

        // Re-stretching busy schedules can only reach the index by
        // making a head leg undrivable or drivable again: a provider
        // that closes every leg longer than its threshold. Worker 0's
        // head leg is 100 long; a 1.3× class stretches it to 130.
        let slow = ClassTable::new(vec![VehicleClass {
            speed_permille: 1_300,
            ..VehicleClass::standard()
        }]);
        state.set_congestion(Some(Arc::new(ClosedAbove(50))));
        check(&state);
        assert_eq!(state.due(w0), Time::MAX, "closed road: nothing to drive");
        state.set_congestion(Some(Arc::new(ClosedAbove(100))));
        check(&state);
        assert_eq!(state.due(w0), 451);
        state.set_classes(Arc::new(slow));
        check(&state);
        assert_eq!(state.due(w0), Time::MAX);
        state.set_classes(Arc::new(ClassTable::single()));
        check(&state);
        assert_eq!(state.due(w0), 451);
        state.set_congestion(None);
        check(&state);

        // pop: the route shrinks, then empties — idle again.
        assert_eq!(state.pop_worker_stop(w1).1, 0);
        check(&state);
        assert_eq!(state.due(w1), 1, "delivery at 200, start at 0");
        state.pop_worker_stop(w1);
        check(&state);
        assert_eq!(state.due(w1), Time::MAX);
        assert!(state.head(w1).idle);

        // commit_reordered over the emptied route, then a cancellation
        // that empties it again.
        let r3 = request(3, 6, 9, 1_000_000);
        let stops: Vec<Stop> = [(StopKind::Pickup, 6u32), (StopKind::Delivery, 9)]
            .iter()
            .map(|&(kind, v)| Stop {
                request: r3.id,
                vertex: VertexId(v),
                kind,
                load: 1,
                ddl: 1_000_000,
            })
            .collect();
        state.commit_reordered(w1, &r3, &stops, &[300, 300], 600);
        check(&state);
        assert_eq!(state.due(w1), 201);
        assert!(matches!(
            state.cancel_request(r3.id),
            CancelOutcome::Cancelled { .. }
        ));
        check(&state);
        assert_eq!(state.due(w1), Time::MAX);

        // strip_unpicked empties worker 0 (nothing is onboard yet).
        state.retire_worker(w0);
        assert_eq!(state.strip_unpicked(w0).len(), 1);
        check(&state);

        // add_worker joins idle; export_worker leaves the route alone.
        state.advance_clock(900);
        state.add_worker(Worker {
            class: ClassId(0),
            id: WorkerId(3),
            origin: VertexId(50),
            capacity: 2,
        });
        check(&state);
        let joiner = WorkerHead {
            start: 900,
            vertex: VertexId(50),
            capacity: 2,
            class: ClassId(0),
            idle: true,
        };
        assert_eq!(state.head(WorkerId(3)), joiner);
        assert!(state.export_worker(w2).is_some());
        check(&state);

        // The lazy idle clock: moving the clock stored nothing — worker
        // 1 has stood at vertex 3 since 200 and departs at 900 — until a
        // commit splices into its route, re-timed first.
        let head = state.head(w1);
        assert_eq!((head.start, head.departure(900)), (200, 900));
        let r4 = request(4, 2, 3, 1_000_000);
        let plan = plan_for(&state, w1, &r4);
        state.commit(w1, &r4, &plan);
        check(&state);
        assert_eq!(state.head(w1).start, 900);
        assert_eq!(state.due(w1), 901);
    }

    /// Commits `r` to `w` as the DP plans it from `w`'s departure.
    fn commit_planned(state: &mut PlatformState, w: WorkerId, r: &Request) {
        let mut spare = Route::default();
        let (route, capacity) = state.candidate(w, &mut spare);
        let plan = linear_dp_insertion(route, capacity, r, state.oracle()).unwrap();
        state.commit(w, r, &plan);
    }

    #[test]
    fn the_65th_worker_opens_a_due_block() {
        let mut state = PlatformState::new(line_oracle(100), &workers(64, 0, 4), 10.0, 0);
        assert_eq!((state.due_min.len(), state.due_block(0)), (1, Time::MAX));
        let join = |state: &mut PlatformState, id: u32| {
            state.add_worker(Worker {
                class: ClassId(0),
                id: WorkerId(id),
                origin: VertexId(80),
                capacity: 4,
            });
            assert_eq!(state.check_motion_index(), Ok(()));
        };
        join(&mut state, 64);
        assert_eq!(state.due_min, vec![Time::MAX; 2], "a new block, idle");
        // The joiner's first commit lowers its own block only.
        commit_planned(&mut state, WorkerId(64), &request(1, 81, 83, 1_000_000));
        assert_eq!(state.check_motion_index(), Ok(()));
        assert_eq!(
            (state.due_block(0), state.due_block(1)),
            (Time::MAX, state.due(WorkerId(64)))
        );
        assert_eq!(state.due_block(1), 1);
        // The 128th worker still fits the second block.
        for id in 65..128 {
            join(&mut state, id);
        }
        assert_eq!(state.due_min.len(), 2);
        join(&mut state, 128);
        assert_eq!(state.due_min.len(), 3);
    }

    #[test]
    fn a_rising_minimum_rescans_its_block() {
        let (w0, w1) = (WorkerId(0), WorkerId(1));
        let mut state = PlatformState::new(line_oracle(100), &workers(3, 0, 4), 10.0, 0);
        let check = |state: &PlatformState| assert_eq!(state.check_motion_index(), Ok(()));
        // w1 picks up at its own vertex (due 0), w0 drives to 5 (due 1).
        commit_planned(&mut state, w1, &request(1, 1, 3, 1_000_000));
        commit_planned(&mut state, w0, &request(2, 5, 10, 1_000_000));
        check(&state);
        assert_eq!(
            (state.due(w1), state.due(w0), state.due_block(0)),
            (0, 1, 0)
        );
        // w0 rises past the minimum w1 holds: no rescan needed.
        state.snap_worker_on_leg(w0, VertexId(2), 200, 300);
        check(&state);
        assert_eq!((state.due(w0), state.due_block(0)), (201, 0));
        // The holder rises: the rescan finds its own new due time.
        state.pop_worker_stop(w1);
        check(&state);
        assert_eq!((state.due(w1), state.due_block(0)), (1, 1));
        // The holder empties: the rescan finds w0.
        state.pop_worker_stop(w1);
        check(&state);
        assert_eq!((state.due(w1), state.due_block(0)), (Time::MAX, 201));
    }

    /// Retiring a busy worker leaves its block due (the driver keeps
    /// moving it); its last stop raises the block to [`Time::MAX`], and
    /// an export, which only takes idle workers, keeps it there.
    #[test]
    fn a_drained_block_rises_to_max() {
        let w = WorkerId(66);
        let mut state = PlatformState::new(line_oracle(100), &workers(70, 0, 4), 10.0, 0);
        let check = |state: &PlatformState| assert_eq!(state.check_motion_index(), Ok(()));
        commit_planned(&mut state, w, &request(1, 67, 69, 1_000_000));
        check(&state);
        assert_eq!((state.due_block(0), state.due_block(1)), (Time::MAX, 1));
        state.retire_worker(w);
        check(&state);
        assert_eq!(state.due_block(1), 1, "a retired worker still drives");
        state.pop_worker_stop(w);
        check(&state);
        assert_eq!(state.due_block(1), state.due(w));
        state.pop_worker_stop(w);
        check(&state);
        assert_eq!(state.due_block(1), Time::MAX);
        assert!(state.export_worker(w).is_none(), "already retired");
        assert!(state.export_worker(WorkerId(65)).is_some());
        check(&state);
        assert_eq!(state.due_min, vec![Time::MAX; 2]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale read of w0")]
    fn agent_refuses_a_stale_idle_read() {
        let mut state = PlatformState::new(line_oracle(10), &workers(1, 0, 4), 10.0, 0);
        state.advance_clock(5);
        let _ = state.agent(WorkerId(0));
    }

    #[test]
    fn candidate_reads_an_idle_route_at_its_departure() {
        let mut state = PlatformState::new(line_oracle(10), &workers(2, 0, 4), 10.0, 0);
        let r = request(1, 5, 8, 100_000);
        let plan =
            linear_dp_insertion(&state.agent(WorkerId(1)).route, 4, &r, state.oracle()).unwrap();
        state.commit(WorkerId(1), &r, &plan);
        state.advance_clock(300);
        let mut spare = Route::default();
        // Idle and behind: a re-timed copy; the stored route is untouched.
        let (route, capacity) = state.candidate(WorkerId(0), &mut spare);
        assert_eq!(
            (route.start_time(), route.start_vertex(), capacity),
            (300, VertexId(0), 4)
        );
        assert_eq!(state.agents()[0].route.start_time(), 0);
        // Busy: the stored route itself.
        let (route, _) = state.candidate(WorkerId(1), &mut spare);
        assert!(std::ptr::eq(route, &state.agent(WorkerId(1)).route));
    }

    #[test]
    fn check_motion_index_reports_each_kind_of_drift() {
        let oracle = line_oracle(30);
        let mut state = PlatformState::new(oracle, &workers(3, 0, 4), 10.0, 0);
        let r = request(1, 5, 10, 1_000_000);
        let plan =
            linear_dp_insertion(&state.agent(WorkerId(0)).route, 4, &r, state.oracle()).unwrap();
        state.commit(WorkerId(0), &r, &plan);
        assert_eq!(state.check_motion_index(), Ok(()));

        // A stale due time.
        state.due[0] = 77;
        assert!(state.check_motion_index().unwrap_err().contains("due[0]"));
        state.due[0] = 1;
        // A stale block minimum, and a summary sized for another fleet.
        state.due_min[0] = 0;
        assert!(state
            .check_motion_index()
            .unwrap_err()
            .contains("due_min[0]"));
        state.due_min[0] = 1;
        state.due_min.push(Time::MAX);
        assert!(state.check_motion_index().unwrap_err().contains("sized"));
        state.due_min.pop();
        // A stale head-plane entry, one field at a time: a busy worker
        // listed idle, a moved or re-timed worker, another capacity or
        // class.
        let stale: [fn(&mut WorkerHead); 5] = [
            |h| h.idle = !h.idle,
            |h| h.vertex = VertexId(h.vertex.0 + 1),
            |h| h.start += 1,
            |h| h.capacity += 1,
            |h| h.class = ClassId(h.class.0 + 1),
        ];
        for (w, corrupt) in [0, 1].into_iter().flat_map(|w| stale.map(|c| (w, c))) {
            let kept = state.heads[w];
            corrupt(&mut state.heads[w]);
            let err = state.check_motion_index().unwrap_err();
            assert!(err.contains(&format!("heads[{w}]")), "{err}");
            state.heads[w] = kept;
        }
        // Sized for another fleet.
        state.heads.pop();
        assert!(state.check_motion_index().unwrap_err().contains("sized"));
        state.heads.push(WorkerHead::of(&state.agents[2]));
        assert_eq!(state.check_motion_index(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "densely indexed")]
    fn worker_ids_must_be_dense() {
        let oracle = line_oracle(10);
        let ws = vec![Worker {
            class: Default::default(),
            id: WorkerId(5),
            origin: VertexId(0),
            capacity: 4,
        }];
        let _ = PlatformState::new(oracle, &ws, 10.0, 0);
    }
}
