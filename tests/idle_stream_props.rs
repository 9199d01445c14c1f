//! The DP engine's streamed shortlist is the full sort's prefix.
//!
//! `StreamedShortlist` bounds busy candidates whole and pulls idle ones
//! a grid cell at a time, nearest cell first, stopping as soon as the
//! ranks asked for are settled. Whatever the sequence of
//! `order_through` calls, its ordered prefix and its `min_lb` must be
//! those of `decision_phase` over `candidate_workers` — the collect,
//! bound and sort-everything path — and this suite checks that on
//!
//! * idle-heavy, busy-heavy and mixed fleets, with idle workers whose
//!   stored clock lags the platform's and some whose clock runs ahead,
//!   mixed vehicle classes (one of them slow) and random capacities;
//! * requests with random capacities and class constraints, and
//!   deadlines that put the pickup radius exactly on, just inside and
//!   just outside some worker — including the case
//!   `floor(d/s·100) ≤ budget < d/s·100`, which the radius test
//!   excludes;
//! * a lattice city whose cells are smaller than its blocks are wide,
//!   so workers in different cells tie on their bound and only the
//!   worker id orders them, and some workers stand on cell edges.

use std::sync::Arc;

use proptest::prelude::*;
use urpsm::core::decision::{decision_phase, StreamedShortlist};
use urpsm::core::insertion::linear_dp_insertion;
use urpsm::core::planner::{Planner, PruneGreedyDp};
use urpsm::core::platform::{CandidateBuf, PlatformState};
use urpsm::core::route::Route;
use urpsm::core::types::{
    ClassConstraint, ClassId, ClassTable, Request, RequestId, Time, VehicleClass, Worker, WorkerId,
};
use urpsm::network::geo::Point;
use urpsm::network::matrix::MatrixOracle;
use urpsm::network::oracle::DistanceOracle;
use urpsm::network::{Cost, VertexId};

/// Lattice columns and rows, 10 m apart; cells are 25 m.
const COLS: u32 = 10;
const ROWS: u32 = 8;
const BLOCK_M: f64 = 10.0;
const CELL_M: f64 = 25.0;

/// SplitMix64: the fixture's draws, seeded by proptest.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn vertex(&mut self) -> VertexId {
        VertexId(self.below(u64::from(COLS * ROWS)) as u32)
    }
}

/// The lattice at top speed 1 m/s: `euc` is the straight line in
/// centiseconds, `dis` the Manhattan walk (a metric, never below `euc`).
fn lattice() -> Arc<dyn DistanceOracle> {
    let n = (COLS * ROWS) as usize;
    let at = |v: usize| ((v as u32 % COLS) as i64, (v as u32 / COLS) as i64);
    let rows: Vec<Vec<Cost>> = (0..n)
        .map(|u| {
            (0..n)
                .map(|v| {
                    let ((ux, uy), (vx, vy)) = (at(u), at(v));
                    ((ux - vx).unsigned_abs() + (uy - vy).unsigned_abs()) * 1_000
                })
                .collect()
        })
        .collect();
    let points = (0..n)
        .map(|v| {
            let (x, y) = at(v);
            Point::new(x as f64 * BLOCK_M, y as f64 * BLOCK_M)
        })
        .collect();
    Arc::new(MatrixOracle::from_matrix(&rows, points, 1.0))
}

fn classes() -> Arc<ClassTable> {
    Arc::new(ClassTable::new(vec![
        VehicleClass::standard(),
        VehicleClass {
            name: "van",
            ..VehicleClass::standard()
        },
        VehicleClass {
            name: "slow",
            speed_permille: 1_300,
            ..VehicleClass::standard()
        },
    ]))
}

fn request(id: u32, o: VertexId, d: VertexId, deadline: Time, capacity: u32) -> Request {
    Request {
        class: ClassConstraint::Any,
        id: RequestId(id),
        origin: o,
        destination: d,
        release: 0,
        deadline,
        penalty: u64::MAX / 4,
        capacity,
    }
}

/// Commits a trip from `w`'s position, if the worker can take one.
fn make_busy(state: &mut PlatformState, w: WorkerId, id: u32, draw: &mut Draw) {
    let mut spare = Route::default();
    let (route, capacity) = state.candidate(w, &mut spare);
    let r = request(id, route.start_vertex(), draw.vertex(), Time::MAX / 4, 1);
    if let Some(plan) = linear_dp_insertion(route, capacity, &r, state.oracle()) {
        state.commit(w, &r, &plan);
    }
}

/// A fleet of `workers`, about `busy_per_mille` of them busy, at a
/// clock that has moved on since.
fn platform(draw: &mut Draw, workers: u32, busy_per_mille: u64) -> PlatformState {
    let fleet: Vec<Worker> = (0..workers)
        .map(|i| Worker {
            id: WorkerId(i),
            origin: draw.vertex(),
            capacity: 1 + draw.below(4) as u32,
            class: ClassId(draw.below(3) as u16),
        })
        .collect();
    let mut state = PlatformState::new(lattice(), &fleet, CELL_M, 0);
    state.set_classes(classes());
    let mut next_id = 1_000_000;
    for i in 0..workers {
        if draw.below(1_000) < busy_per_mille {
            make_busy(&mut state, WorkerId(i), next_id, draw);
            next_id += 1;
        }
    }
    state.advance_clock(5_000);
    for i in 0..workers {
        let w = WorkerId(i);
        match draw.below(8) {
            // Reach the first stop: some busy workers go idle again,
            // stored behind the clock or ahead of it.
            0 | 1 if !state.head(w).idle => {
                state.pop_worker_stop(w);
            }
            // An idle worker parked with a clock ahead of the platform's.
            2 if state.head(w).idle => {
                let v = state.head(w).vertex;
                state.set_worker_position(w, v, 5_000 + draw.below(4_000), None);
            }
            _ => {}
        }
    }
    state.advance_clock(6_000);
    state
}

/// A request whose deadline puts the pickup radius on, inside or
/// outside some worker, or anywhere.
fn query(state: &PlatformState, draw: &mut Draw, id: u32) -> Request {
    let oracle = state.oracle();
    let (o, d) = (draw.vertex(), draw.vertex());
    let direct = oracle.dis(o, d);
    let now = state.now();
    let budget = match draw.below(4) {
        0 => 10_000_000,
        3 => draw.below(60_000),
        edge => {
            let w = WorkerId(draw.below(state.num_workers() as u64) as u32);
            let meters = oracle
                .point(state.head(w).vertex)
                .euclidean_m(&oracle.point(o));
            let cs = meters * 100.0;
            if edge == 1 {
                cs.floor() as u64
            } else {
                cs.ceil() as u64
            }
        }
    };
    let mut r = request(id, o, d, now + direct + budget, 1 + draw.below(3) as u32);
    if draw.below(3) == 0 {
        r.class = ClassConstraint::Only(ClassId(draw.below(3) as u16));
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `order_through` sequence yields the full sort's prefix,
    /// and `min_lb` is the full sort's minimum.
    #[test]
    fn the_streamed_prefix_is_the_full_sort_prefix(
        seed in any::<u64>(),
        workers in 1u32..70,
        busy_per_mille in prop_oneof![Just(100u64), Just(500), Just(900)],
        chunks in collection::vec(1usize..40, 1..6),
    ) {
        let mut draw = Draw(seed);
        let mut state = platform(&mut draw, workers, busy_per_mille);
        let mut planner = PruneGreedyDp::new();
        let mut streamed = StreamedShortlist::new();
        let mut buf = CandidateBuf::new();
        for id in 0..16 {
            let r = query(&state, &mut draw, id);
            let direct = state.oracle().dis(r.origin, r.destination);
            let eligible = state.candidate_workers(&r, direct, &mut buf);
            let eligible_len = eligible.len();
            let full = decision_phase(1, &state, eligible, &r, direct);

            streamed.open(&state, &r, direct);
            let mut end = 0usize;
            for (k, chunk) in chunks.iter().chain(&[usize::MAX]).enumerate() {
                end = end.saturating_add(*chunk);
                streamed.order_through(&state, end);
                let ordered = streamed.ordered();
                prop_assert_eq!(ordered, end.min(full.lower_bounds.len()));
                let prefix: Vec<(Cost, WorkerId)> = (0..ordered).map(|k| streamed.get(k)).collect();
                prop_assert_eq!(&prefix[..], &full.lower_bounds[..ordered], "request {:?}", r);
                if k == 0 {
                    prop_assert_eq!(streamed.min_lb(), full.min_lower_bound());
                }
                prop_assert!(streamed.bounded() <= eligible_len);
            }
            prop_assert!(streamed.is_exhausted());
            prop_assert_eq!(streamed.bounded(), eligible_len, "drained: everyone bounded");

            // Let the fleet move on: plan the request, sometimes advance
            // the clock and deliver a stop.
            planner.on_request(&mut state, &r);
            if draw.below(3) == 0 {
                let w = WorkerId(draw.below(u64::from(workers)) as u32);
                if !state.head(w).idle {
                    state.pop_worker_stop(w);
                }
                let now = state.now();
                state.advance_clock(now + draw.below(3_000));
            }
            prop_assert_eq!(state.check_motion_index(), Ok(()));
        }
    }
}

/// The boundary the radius test draws, on a worker whose distance is
/// not a whole number of centiseconds: a budget of `floor(d/s·100)`
/// leaves it out of both paths, one more centisecond brings it in.
#[test]
fn a_worker_just_outside_the_radius_stays_out() {
    // Worker 0 one block right and one up of the pickup: 14.142… m.
    let fleet = [Worker {
        id: WorkerId(0),
        origin: VertexId(COLS + 1),
        capacity: 4,
        class: ClassId(0),
    }];
    let state = PlatformState::new(lattice(), &fleet, CELL_M, 0);
    let (o, d) = (VertexId(0), VertexId(5));
    let direct = state.oracle().dis(o, d);
    let cs = 100.0 * 2f64.sqrt() * BLOCK_M;
    let mut streamed = StreamedShortlist::new();
    let mut buf = CandidateBuf::new();
    for (budget, inside) in [(cs.floor() as u64, false), (cs.ceil() as u64, true)] {
        let r = request(0, o, d, direct + budget, 1);
        let eligible = state.candidate_workers(&r, direct, &mut buf).len();
        streamed.open(&state, &r, direct);
        streamed.order_through(&state, 1);
        assert_eq!(eligible == 1, inside, "budget {budget}");
        assert_eq!(streamed.bounded() == 1, inside, "budget {budget}");
        assert_eq!(streamed.ordered(), usize::from(inside), "budget {budget}");
    }
}

/// Two workers on opposite sides of the pickup, in different cells, tie
/// on their bound, and the farther cell's bound ties with them too. The
/// stream visits the nearer cell first and finds worker 1. It must not
/// settle rank 0 against a next-cell bound equal to worker 1's key:
/// worker 0 waits in that cell with the same bound and the smaller id.
/// The stop test is strict, so the full sort's order holds.
#[test]
fn ties_across_cells_keep_the_id_order() {
    // One row of 25 m cells from x = 0. The pickup sits at x = 40.005 in
    // cell 1. Worker 0 stands at 24.999 in cell 0 and worker 1 at 55.01
    // in cell 2. Both are ≈ 15.005 m away, so both bound to 1 500 cs.
    // Cell 2's edge is 9.994 m off (999 cs). Cell 0's edge, widened by
    // its millimetre, is 15.004 m off (1 500 cs).
    let xs: [f64; 4] = [0.0, 40.005, 24.999, 55.01];
    let rows: Vec<Vec<Cost>> = xs
        .iter()
        .map(|a| {
            xs.iter()
                .map(|b| ((a - b).abs() * 100.0).ceil() as Cost)
                .collect()
        })
        .collect();
    let points = xs.iter().map(|&x| Point::new(x, 0.0)).collect();
    let oracle: Arc<dyn DistanceOracle> = Arc::new(MatrixOracle::from_matrix(&rows, points, 1.0));
    let fleet: Vec<Worker> = [VertexId(2), VertexId(3)]
        .into_iter()
        .enumerate()
        .map(|(i, origin)| Worker {
            id: WorkerId(i as u32),
            origin,
            capacity: 4,
            class: ClassId(0),
        })
        .collect();
    let state = PlatformState::new(oracle, &fleet, CELL_M, 0);
    let r = request(0, VertexId(1), VertexId(0), 1_000_000, 1);
    let direct = state.oracle().dis(r.origin, r.destination);
    let mut streamed = StreamedShortlist::new();
    streamed.open(&state, &r, direct);
    streamed.order_through(&state, 1);
    assert_eq!(streamed.get(0), (1_500 + direct, WorkerId(0)));
    assert_eq!(streamed.bounded(), 2, "rank 0 needed both cells");
    streamed.order_through(&state, 2);
    assert_eq!(streamed.get(1), (1_500 + direct, WorkerId(1)));
    assert!(streamed.is_exhausted());
}
