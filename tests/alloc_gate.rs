//! The zero-allocation gate for the planning hot path (DESIGN.md §8).
//!
//! This test binary installs a counting global allocator of its own
//! and measures the exact number of heap allocations inside
//! `planner.on_request` in steady state: warmed scratch arenas,
//! reserved bookkeeping containers, routes held at the ≤ 8-stop inline
//! regime by draining stops *between* (never inside) measured regions,
//! and the clock moved past the drained arrivals, so every idle
//! candidate is probed through its re-timed copy (the lazy idle clock).
//! The allocator counts per thread, so the tests of this binary can run
//! in parallel without seeing each other's allocations.
//!
//! The gate: a steady-state planned insertion under `GreedyDP` and
//! `pruneGreedyDP` performs **zero** allocations — free flow *and*
//! under the chengdu-2peak congestion profile (whose stretched
//! feasibility re-check runs on the scratch probe route), on a drained
//! fleet and on an idle-heavy one (one worker in sixteen holds a
//! standing trip through every request, the rest are idle), so the DP
//! engine's shortlist both collects busy candidates and streams idle
//! ones cell by cell. `PruneGreedyDp::with_threads` (whose width is a
//! no-op) is gated too, and so are warm TD-A\* searches, TD-cache
//! hits and TD path queries into a buffer the caller keeps.
//!
//! Four more rows count what one event costs end to end: the
//! allocations per event over the second half of a stream, through
//! `MobilityService::submit` free flow and with the time-dependent
//! oracle on, through `ShardedService::submit` (K = 4), and inside
//! `IngestServer::tick` over that K = 4 backend with the WAL on. They
//! are not zero: what is left are high-water marks (a route, a leg or a
//! grid cell growing past its largest size so far) and run-long logs
//! doubling. Each row is held to the exact count it reads. One more
//! row grows a single route far past its inline capacity and holds it
//! to one allocation per growth of its location array.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

use urpsm::core::event::PlatformEvent;
use urpsm::core::insertion::linear_dp_insertion;
use urpsm::core::planner::{GreedyDp, Planner, PruneGreedyDp};
use urpsm::core::platform::{Outcome, PlatformState};
use urpsm::core::route::{InsertionPlan, PlanShape, Route, ROUTE_INLINE_STOPS};
use urpsm::core::types::{ClassConstraint, ClassId, Request, RequestId, Time, Worker, WorkerId};
use urpsm::dispatch::service::{ShardConfig, ShardedService};
use urpsm::network::congestion::{CongestionProfile, HOUR_CS};
use urpsm::network::matrix::MatrixOracle;
use urpsm::network::{Cost, VertexId, INF};
use urpsm::server::server::{Backend, IngestServer, ServerConfig, WalConfig};
use urpsm::simulator::engine::SimConfig;
use urpsm::simulator::service::MobilityService;
use urpsm::simulator::SimEvent;
use urpsm::workloads::scenario::{chengdu_like, metropolis, Scenario};
use urpsm::workloads::MINUTE_CS;
use urpsm_bench::fixtures::core_jam_profile;

thread_local! {
    /// Allocations (allocs + reallocs) made by this thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A pass-through to [`System`] that bumps the calling thread's count.
struct CountingAllocator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn count_one() {
    // `try_with`: a thread being torn down still frees and allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with its arguments intact,
// so the obligations are exactly those of `System`'s own methods; the
// count is a const-initialised thread-local `Cell`, whose access
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growing a buffer mid-request is exactly what the gate exists
        // to catch.
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` and returns its result and the allocations it made on this
/// thread.
fn measure<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Streets on a line, 150 cs of travel per metre-spaced vertex.
const VERTICES: usize = 512;
/// Grid cell size: 26 cells along the line.
const CELL_M: f64 = 20.0;
/// Unmeasured requests that grow every arena to its steady size.
const WARMUP: usize = 256;
/// Measured steady-state requests per (planner, profile, fleet) row.
const MEASURED: usize = 512;
/// Allocations over the measured 1 500 events of the plain `submit`
/// row (0.031 per event), debug and release builds alike.
const PLAIN_SUBMIT_BOUND: u64 = 47;
/// Allocations over the measured 835 events of the K = 4 `submit` row
/// (0.296 per event), debug and release builds alike.
const SHARDED_SUBMIT_BOUND: u64 = 247;
/// Allocations over the measured 1 500 events of the TD `submit` row
/// (0.019 per event in a release build). A debug build reads more:
/// `Route::insertion_feasible` cross-checks its splice walk against a
/// clone of the route, and a clone of a spilled route allocates.
const TD_SUBMIT_BOUND: u64 = if cfg!(debug_assertions) { 58 } else { 29 };
/// Allocations inside `tick` over the measured 835 events of the K = 4
/// stream, WAL on (0.298 per event), debug and release builds alike.
const INGEST_TICK_BOUND: u64 = 249;
/// The congested rows straddle the 08:00 peak, like
/// `tests/congestion_equivalence.rs`.
const RUSH_SHIFT: Time = 7 * HOUR_CS + HOUR_CS / 2;

/// The fleet a row plans against, between two requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fleet {
    /// 64 workers, every route drained.
    Drained,
    /// 256 workers; every 16th holds a standing trip, the rest are
    /// drained — 93.75 % idle.
    IdleHeavy,
}

impl Fleet {
    fn workers(self) -> u32 {
        match self {
            Fleet::Drained => 64,
            Fleet::IdleHeavy => 256,
        }
    }

    /// Whether `w` keeps a trip through every measured request.
    fn busy(self, w: WorkerId) -> bool {
        self == Fleet::IdleHeavy && w.0.is_multiple_of(16)
    }
}

/// One measured row: `requests` measured calls, `served` of which were
/// planned insertions (or assignments), `total` allocations among
/// them, `max` in one call.
struct Row {
    name: String,
    requests: usize,
    served: usize,
    total: u64,
    max: u64,
}

/// Fails with every row that allocated or left a request unserved: the
/// gate is only meaningful if the measured regions really were planned
/// insertions, not rejections.
fn assert_zero(rows: &[Row]) {
    let failures: Vec<String> = rows
        .iter()
        .filter(|r| r.total != 0 || r.served != r.requests)
        .map(|r| {
            format!(
                "{}: {} allocations over {} calls (max {}), served {}/{}",
                r.name, r.total, r.requests, r.max, r.served, r.requests
            )
        })
        .collect();
    assert!(failures.is_empty(), "zero-allocation gate: {failures:#?}");
}

/// The line city, built once for every row: `MatrixOracle::from_matrix`
/// audits the triangle inequality in O(V³), seconds in a debug build.
fn line_oracle() -> Arc<MatrixOracle> {
    static ORACLE: OnceLock<Arc<MatrixOracle>> = OnceLock::new();
    ORACLE
        .get_or_init(|| {
            let rows: Vec<Vec<Cost>> = (0..VERTICES)
                .map(|u| {
                    (0..VERTICES)
                        .map(|v| (u.abs_diff(v) as Cost) * 150)
                        .collect()
                })
                .collect();
            let points = (0..VERTICES)
                .map(|k| urpsm::network::geo::Point::new(k as f64, 0.0))
                .collect();
            Arc::new(MatrixOracle::from_matrix(&rows, points, 1.0))
        })
        .clone()
}

fn workers(fleet: Fleet) -> Vec<Worker> {
    let spacing = VERTICES as u32 / fleet.workers();
    (0..fleet.workers())
        .map(|i| Worker {
            id: WorkerId(i),
            origin: VertexId(i * spacing),
            capacity: 4,
            class: ClassId::STANDARD,
        })
        .collect()
}

/// The `i`-th steady-state request, released at `now`: a short hop
/// near one of the first 64 workers' spots, roomy deadline, penalty
/// high enough that the economic gate always admits it — every request
/// is a *planned insertion*, which is what the gate is about.
fn request(i: usize, now: Time) -> Request {
    const SPOTS: u32 = 64;
    let spacing = VERTICES as u32 / SPOTS;
    let base = (i as u32 % SPOTS) * spacing;
    let origin = base + 1 + (i as u32 / SPOTS) % 3;
    Request {
        id: RequestId(i as u32),
        origin: VertexId(origin),
        destination: VertexId(origin + 4),
        release: now,
        deadline: now + 2_000_000,
        penalty: u64::MAX / 4,
        capacity: 1,
        class: ClassConstraint::Any,
    }
}

/// Returns every worker's route to empty/idle, then moves the clock
/// past the last arrival it drained — every idle worker is then behind
/// the clock, so the next request's probes meet the lazy idle clock
/// ([`PlatformState::candidate`]'s re-timed copy). Runs *between*
/// measured regions, so its allocations (grid upserts, the
/// completed-request set) never count — exactly like the motion plane
/// draining stops between two request arrivals.
///
/// Then every worker `fleet` keeps busy takes a standing trip from
/// where it stands to the far end of the line.
fn drain_routes(state: &mut PlatformState, fleet: Fleet, next_id: &mut u32) {
    let mut last = state.now();
    for i in 0..fleet.workers() {
        let w = WorkerId(i);
        while !state.head(w).idle {
            last = last.max(state.pop_worker_stop(w).1);
        }
    }
    state.advance_clock(last + 1);
    let mut spare = Route::default();
    for i in 0..fleet.workers() {
        let w = WorkerId(i);
        if !fleet.busy(w) {
            continue;
        }
        let (route, capacity) = state.candidate(w, &mut spare);
        let from = route.start_vertex();
        let to = VertexId(if from.idx() < VERTICES / 2 {
            VERTICES as u32 - 1
        } else {
            0
        });
        let mut trip = request(0, state.now());
        (trip.id, trip.origin, trip.destination) = (RequestId(*next_id), from, to);
        *next_id += 1;
        let plan = linear_dp_insertion(route, capacity, &trip, state.oracle())
            .expect("a standing trip fits an idle worker");
        state.commit(w, &trip, &plan);
    }
}

/// The row of the planner `make` builds, on `fleet`, free flow or
/// under the chengdu-2peak profile.
fn planner_row(name: &str, make: fn() -> Box<dyn Planner>, congested: bool, fleet: Fleet) -> Row {
    let mut planner = make();
    let shift = if congested { RUSH_SHIFT } else { 0 };
    let mut state = PlatformState::new(line_oracle(), &workers(fleet), CELL_M, shift);
    if congested {
        state.set_congestion(Some(Arc::new(CongestionProfile::chengdu_two_peak())));
    }
    state.reserve_request_capacity(WARMUP + MEASURED);

    // Standing trips take request ids above every measured one.
    let mut next_id = (WARMUP + MEASURED) as u32;
    drain_routes(&mut state, fleet, &mut next_id);

    // Warmup: grow every scratch arena, candidate buffer, hash-map
    // table and shortlist column to its steady-state size.
    for i in 0..WARMUP {
        let r = request(i, state.now());
        planner.on_request(&mut state, &r);
        drain_routes(&mut state, fleet, &mut next_id);
    }

    let (mut served, mut total, mut max) = (0, 0, 0);
    for i in 0..MEASURED {
        let r = request(WARMUP + i, state.now());
        let (outs, allocs) = measure(|| planner.on_request(&mut state, &r));
        total += allocs;
        max = max.max(allocs);
        served += outs
            .iter()
            .filter(|(_, o)| matches!(o, Outcome::Assigned { .. }))
            .count();
        drain_routes(&mut state, fleet, &mut next_id);
    }
    let profile = if congested {
        "chengdu-2peak"
    } else {
        "free-flow"
    };
    Row {
        name: format!("{name} ({profile}, {fleet:?})"),
        requests: MEASURED,
        served,
        total,
        max,
    }
}

/// Every (profile, fleet) row of the planner `make` builds.
fn planner_rows(name: &str, make: fn() -> Box<dyn Planner>, fleets: &[Fleet]) -> Vec<Row> {
    let mut rows = Vec::new();
    for congested in [false, true] {
        for &fleet in fleets {
            rows.push(planner_row(name, make, congested, fleet));
        }
    }
    rows
}

#[test]
fn greedy_dp_plans_without_allocating() {
    assert_zero(&planner_rows(
        "GreedyDP",
        || Box::new(GreedyDp::new()),
        &[Fleet::Drained, Fleet::IdleHeavy],
    ));
}

#[test]
fn prune_greedy_dp_plans_without_allocating() {
    assert_zero(&planner_rows(
        "pruneGreedyDP",
        || Box::new(PruneGreedyDp::new()),
        &[Fleet::Drained, Fleet::IdleHeavy],
    ));
    // The no-op width knob builds the same allocation-free planner.
    assert_zero(&planner_rows(
        "with_threads(4)",
        || Box::new(PruneGreedyDp::with_threads(4)),
        &[Fleet::Drained],
    ));
}

/// A route grown one appended request at a time far past its inline
/// capacity allocates once per growth of its one location array: once
/// when it spills (to twice the inline capacity), then once per
/// doubling. Arrays kept in step would each grow on their own.
#[test]
fn a_growing_route_allocates_once_per_growth() {
    const REQUESTS: u32 = 32;
    let mut route = Route::new(VertexId(0), 0);
    let (mut total, mut max) = (0, 0);
    for i in 0..REQUESTS {
        let n = route.len();
        let mut r = request(0, 0);
        (r.id, r.origin, r.destination) = (RequestId(i), VertexId(2 * i + 1), VertexId(2 * i + 2));
        let plan = InsertionPlan {
            pickup_after: n,
            delivery_after: n,
            delta: 300,
            direct: 150,
            shape: PlanShape::Append {
                dis_tail_pickup: 150,
            },
        };
        let ((), allocs) = measure(|| route.apply_insertion(&plan, &r));
        total += allocs;
        max = max.max(allocs);
    }
    assert_eq!(route.len(), 2 * REQUESTS as usize);
    assert!(route.validate(1).is_ok());
    let locations = route.len() + 1;
    let (mut capacity, mut growths) = (2 * (ROUTE_INLINE_STOPS + 1), 1);
    while capacity < locations {
        capacity *= 2;
        growths += 1;
    }
    assert_eq!(
        (total, max),
        (growths, 1),
        "{locations} locations: {total} allocations (max {max} in one insertion), {growths} growths"
    );
}

/// Warm goal-directed `TdDijkstra` searches (generation-stamped arenas,
/// a reusable heap), warm `TdCachedOracle` hits (in-bucket lookups) and
/// warm path queries (the path written into a buffer the caller keeps)
/// allocate nothing per query. Queries keep `depart + duration` inside
/// one profile bucket, so every second-pass lookup is an exact hit.
#[test]
fn warm_td_queries_allocate_nothing() {
    use urpsm::network::builder::NetworkBuilder;
    use urpsm::network::geo::Point;
    use urpsm::network::hub_labels::HubLabels;
    use urpsm::network::td::{TdCachedOracle, TdDijkstra, TimeDependentOracle, TD_DIS_CACHE};

    let mut b = NetworkBuilder::new();
    for k in 0..VERTICES {
        b.add_vertex(Point::new(k as f64, 0.0));
    }
    for k in 1..VERTICES as u32 {
        b.add_edge_with_cost(VertexId(k - 1), VertexId(k), 150)
            .expect("line edge");
    }
    b.set_top_speed_mps(1.0);
    let g = Arc::new(b.finish().expect("line network"));
    let labels = Arc::new(HubLabels::build(&g));
    let profile = Arc::new(CongestionProfile::chengdu_two_peak());
    let engine = TdDijkstra::goal_directed(g.clone(), profile.clone(), labels.clone());
    let cached = TdCachedOracle::new(
        TdDijkstra::goal_directed(g, profile.clone(), labels),
        &profile,
        TD_DIS_CACHE,
    );

    // Short hops inside the 07–08h bucket: durations (≤ 31 edges,
    // ≤ 1.3× stretched) never spill past the bucket end, so the cache's
    // exactness rule admits every entry.
    let queries: Vec<(VertexId, VertexId, Time)> = (0..MEASURED)
        .map(|i| {
            let u = (i * 7) % VERTICES;
            let v = (u + 1 + (i % 31)).min(VERTICES - 1);
            let depart = RUSH_SHIFT + (i as Time % 997) * 100;
            (VertexId(u as u32), VertexId(v as u32), depart)
        })
        .filter(|(u, v, _)| u != v)
        .collect();

    // Warmup: size every arena and the path buffer, and fill the cache.
    let mut path = Vec::new();
    for &(u, v, t) in &queries {
        engine.dis_at(u, v, t);
        cached.dis_at(u, v, t);
        cached.path_and_duration_at(u, v, t, &mut path);
    }

    let oracles: [(&str, &dyn TimeDependentOracle); 2] =
        [("td-astar (search)", &engine), ("td-cache (hit)", &cached)];
    let mut rows: Vec<Row> = oracles
        .into_iter()
        .map(|(name, oracle)| td_row(name, &queries, |u, v, t| oracle.dis_at(u, v, t)))
        .collect();
    rows.push(td_row("td-cache (path)", &queries, |u, v, t| {
        cached
            .path_and_duration_at(u, v, t, &mut path)
            .unwrap_or(INF)
    }));
    assert_zero(&rows);
}

/// The row of one TD query kind over `queries`; `served` counts the
/// reachable answers.
fn td_row(
    name: &str,
    queries: &[(VertexId, VertexId, Time)],
    mut query: impl FnMut(VertexId, VertexId, Time) -> Cost,
) -> Row {
    let (mut served, mut total, mut max) = (0, 0, 0);
    for &(u, v, t) in queries {
        let (d, allocs) = measure(|| query(u, v, t));
        total += allocs;
        max = max.max(allocs);
        served += usize::from(d < INF);
    }
    Row {
        name: name.to_string(),
        requests: queries.len(),
        served,
        total,
        max,
    }
}

/// The allocations of `submit` over the second half of `scenario`'s
/// event stream (the first half warms every buffer). A "request" is
/// one submitted event, and "served" counts the `Assigned` replies.
fn submit_row(
    name: &str,
    scenario: &Scenario,
    mut submit: impl FnMut(PlatformEvent) -> usize,
) -> Row {
    let stream = scenario.event_stream();
    let (warmup, measured) = stream.split_at(stream.len() / 2);
    for &event in warmup {
        submit(event);
    }
    let (mut served, mut total, mut max) = (0, 0, 0);
    for &event in measured {
        let (assigned, allocs) = measure(|| submit(event));
        total += allocs;
        max = max.max(allocs);
        served += assigned;
    }
    Row {
        name: name.to_string(),
        requests: measured.len(),
        served,
        total,
        max,
    }
}

fn assigned(replies: &[SimEvent]) -> usize {
    replies
        .iter()
        .filter(|e| matches!(e, SimEvent::Assigned { .. }))
        .count()
}

fn sim(sc: &Scenario) -> SimConfig {
    SimConfig {
        grid_cell_m: sc.grid_cell_m,
        alpha: sc.alpha,
        ..SimConfig::default()
    }
}

/// Fails unless `row` allocated at most `bound` times in total.
fn assert_at_most(row: &Row, bound: u64) {
    assert!(
        row.total <= bound,
        "{}: {} allocations over {} events ({:.4} per event, max {}), bound {bound}",
        row.name,
        row.total,
        row.requests,
        row.total as f64 / row.requests as f64,
        row.max
    );
}

/// `MobilityService::submit` on a `chengdu_like` stream.
#[test]
fn plain_submit_stays_within_its_allocation_bound() {
    let sc = chengdu_like(7).build();
    let mut service = MobilityService::new(
        sc.oracle.clone(),
        sc.workers.clone(),
        Box::new(PruneGreedyDp::new()),
        sim(&sc),
        sc.start_time(),
    );
    let row = submit_row("submit (plain)", &sc, |e| assigned(service.submit(e)));
    assert_at_most(&row, PLAIN_SUBMIT_BOUND);
}

/// The plain row's stream moved across the 08:00 peak of the core-jam
/// profile (a 3 × 3 lattice whose centre cell runs a two-peak day),
/// with the time-dependent oracle on: every leg is re-timed, and every
/// expanded leg re-routed, through TD-A\*.
#[test]
fn td_submit_stays_within_its_allocation_bound() {
    let mut sc = chengdu_like(7).build();
    for r in &mut sc.requests {
        r.release += RUSH_SHIFT;
        r.deadline += RUSH_SHIFT;
    }
    let mut service = MobilityService::new(
        sc.oracle.clone(),
        sc.workers.clone(),
        Box::new(PruneGreedyDp::new()),
        SimConfig {
            congestion: Some(Arc::new(core_jam_profile(&sc.network))),
            td_oracle: true,
            ..sim(&sc)
        },
        sc.start_time(),
    );
    let row = submit_row("submit (TD)", &sc, |e| assigned(service.submit(e)));
    assert_at_most(&row, TD_SUBMIT_BOUND);
}

/// The reduced `metropolis` stream of `tests/sharded_digests.rs`.
fn sharded_scenario() -> Scenario {
    metropolis(7)
        .requests(1_500)
        .workers(150)
        .cancel_rate(0.1)
        .fleet_churn(15, 15)
        .build()
}

fn sharded(sc: &Scenario) -> ShardedService<'static> {
    ShardedService::new(
        sc.oracle.clone(),
        sc.workers.clone(),
        |_| Box::new(PruneGreedyDp::new()),
        ShardConfig {
            shards: 4,
            sim: sim(sc),
        },
        sc.start_time(),
    )
}

/// `ShardedService::submit` at K = 4.
#[test]
fn sharded_submit_stays_within_its_allocation_bound() {
    let sc = sharded_scenario();
    let mut service = sharded(&sc);
    let row = submit_row("submit (K=4)", &sc, |e| assigned(service.submit(e)));
    assert_at_most(&row, SHARDED_SUBMIT_BOUND);
}

/// `IngestServer::tick` over the K = 4 row's backend with the WAL on,
/// fed as a live clock would: each one-minute window's events are sent,
/// then ticked. Only the allocations inside `tick` count; the producer's
/// `send` allocates the channel's own blocks, which is not server code.
#[test]
fn ingest_tick_stays_within_its_allocation_bound() {
    let sc = sharded_scenario();
    let dir = std::env::temp_dir().join(format!("urpsm-alloc-gate-{}", std::process::id()));
    let config = ServerConfig {
        tick: MINUTE_CS,
        wal: Some(WalConfig::new(&dir)),
        ..ServerConfig::default()
    };
    let mut server =
        IngestServer::new(Backend::Sharded(sharded(&sc)), config).expect("the WAL opens");
    let producer = server.handle();
    let stream = sc.event_stream();
    let (warmup, measured) = stream.split_at(stream.len() / 2);
    // Feeds `events` window by window; returns the admitted events, and
    // the allocations inside `tick`: in total and in the largest tick.
    let mut feed = |events: &[PlatformEvent]| {
        let (mut next, mut admitted, mut total, mut max) = (0, 0, 0, 0);
        while next < events.len() {
            let until = (events[next].time() / MINUTE_CS + 1) * MINUTE_CS;
            while next < events.len() && events[next].time() <= until {
                producer
                    .send(events[next])
                    .expect("the server owns the receiver");
                next += 1;
            }
            let (report, allocs) = measure(|| server.tick(until).expect("the WAL appends"));
            admitted += report.admitted;
            total += allocs;
            max = max.max(allocs);
        }
        (admitted, total, max)
    };
    feed(warmup);
    let (admitted, total, max) = feed(measured);
    drop(server);
    std::fs::remove_dir_all(&dir).expect("the WAL directory is removed");
    let row = Row {
        name: "tick (K=4, WAL)".to_string(),
        requests: measured.len(),
        served: admitted,
        total,
        max,
    };
    assert_at_most(&row, INGEST_TICK_BOUND);
}
