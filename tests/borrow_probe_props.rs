//! The Borrow probe's streamed selection is the collect it replaced.
//!
//! `borrow_probe` asks the home platform for its nearest eligible
//! worker, busy or idle, and each foreign platform, in probe order, for
//! its nearest eligible idle worker within the best distance so far —
//! one grid read each, nearest cell first, nothing collected. Whatever
//! the fleets, its home minimum and its foreign winner (or no winner)
//! must be those of the collect it replaced: `candidate_workers` on
//! every platform, the minimum pickup distance over the home shortlist,
//! and the first strictly nearest idle worker over the foreign
//! shortlists in order, kept only if strictly nearer than the home
//! minimum. This suite checks that on
//!
//! * random fleets on K = 2–4 platforms, idle-heavy, busy-heavy and
//!   mixed, in two vehicle classes, with a random home and probe order;
//! * idle workers stacked on one vertex, within one platform and across
//!   platforms, so the local id and then the probe order break ties;
//! * busy workers nearer to the pickup than every idle one;
//! * requests constrained to one class;
//! * a worker exactly at the pickup radius, and at the home minimum;
//! * radii one ulp inside and outside a worker, set through the top
//!   speed: a budget of 100 cs reaches exactly `speed` metres.

use std::sync::Arc;

use proptest::prelude::*;
use urpsm::core::insertion::linear_dp_insertion;
use urpsm::core::platform::{CandidateBuf, PlatformState};
use urpsm::core::route::Route;
use urpsm::core::types::{
    ClassConstraint, ClassId, ClassTable, Request, RequestId, Time, VehicleClass, Worker, WorkerId,
};
use urpsm::dispatch::service::{borrow_probe, BorrowPick};
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

/// The lattice vertex at column `x`, row `y`.
fn node(x: u32, y: u32) -> VertexId {
    VertexId(y * COLS + x)
}

/// The lattice at top speed `speed` m/s: `dis` is the Manhattan walk at
/// 1 m/s, never below `euc` for any speed of at least 1 m/s.
fn lattice(speed: f64) -> Arc<dyn DistanceOracle> {
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
    Arc::new(MatrixOracle::from_matrix(&rows, points, speed))
}

fn classes() -> Arc<ClassTable> {
    Arc::new(ClassTable::new(vec![
        VehicleClass::standard(),
        VehicleClass {
            name: "van",
            ..VehicleClass::standard()
        },
    ]))
}

/// A request from `o` whose pickup budget is `budget` cs at clock `now`.
fn request(
    id: u32,
    o: VertexId,
    d: VertexId,
    now: Time,
    budget: Time,
    oracle: &dyn DistanceOracle,
) -> Request {
    Request {
        class: ClassConstraint::Any,
        id: RequestId(id),
        origin: o,
        destination: d,
        release: 0,
        deadline: now + oracle.dis(o, d) + budget,
        penalty: u64::MAX / 4,
        capacity: 1,
    }
}

/// A platform over `oracle` with one worker per entry of `fleet`, as
/// `(position, class)`, local ids in order.
fn platform(oracle: &Arc<dyn DistanceOracle>, fleet: &[(VertexId, u16)]) -> PlatformState {
    let workers: Vec<Worker> = fleet
        .iter()
        .enumerate()
        .map(|(i, &(origin, class))| Worker {
            id: WorkerId(i as u32),
            origin,
            capacity: 4,
            class: ClassId(class),
        })
        .collect();
    let mut state = PlatformState::new(Arc::clone(oracle), &workers, CELL_M, 0);
    state.set_classes(classes());
    state
}

/// Commits a trip from `w`'s position to `to`: the worker turns busy
/// where it stands.
fn make_busy(state: &mut PlatformState, w: WorkerId, id: u32, to: VertexId) {
    let mut spare = Route::default();
    let (route, capacity) = state.candidate(w, &mut spare);
    let mut r = request(id, route.start_vertex(), to, 0, 0, state.oracle());
    r.deadline = Time::MAX / 4;
    if let Some(plan) = linear_dp_insertion(route, capacity, &r, state.oracle()) {
        state.commit(w, &r, &plan);
    }
}

/// The selection as the probe made it before it streamed: every
/// platform's whole shortlist, minima kept by hand.
fn collect_reference(
    home: &PlatformState,
    foreign: &[(usize, &PlatformState)],
    r: &Request,
    direct: Cost,
) -> BorrowPick {
    let mut buf = CandidateBuf::new();
    let pickup = |state: &PlatformState, w: WorkerId| {
        let oracle = state.oracle();
        oracle
            .point(state.head(w).vertex)
            .euclidean_m(&oracle.point(r.origin))
    };
    let local_best = home
        .candidate_workers(r, direct, &mut buf)
        .iter()
        .map(|w| pickup(home, w))
        .fold(f64::INFINITY, f64::min);
    let mut best: Option<(f64, usize, WorkerId)> = None;
    for &(s, state) in foreign {
        for w in state.candidate_workers(r, direct, &mut buf).iter() {
            if !state.head(w).idle {
                continue;
            }
            let d = pickup(state, w);
            if best.is_none_or(|(bd, _, _)| d < bd) {
                best = Some((d, s, w));
            }
        }
    }
    BorrowPick {
        local_best,
        winner: best.filter(|&(d, _, _)| d < local_best),
    }
}

/// The streamed probe, checked against the collect, for `r` with home
/// `home` and the other platforms probed in `order`.
fn probe(states: &[PlatformState], home: usize, order: &[usize], r: &Request) -> BorrowPick {
    let direct = states[home].oracle().dis(r.origin, r.destination);
    let foreign: Vec<(usize, &PlatformState)> = order.iter().map(|&s| (s, &states[s])).collect();
    let streamed = borrow_probe(&states[home], foreign.iter().copied(), r, direct);
    let reference = collect_reference(&states[home], &foreign, r, direct);
    assert_eq!(
        streamed, reference,
        "request {r:?}, home {home}, order {order:?}"
    );
    streamed
}

/// One ulp up (`ulps > 0`) or down from `v`.
fn nudge(v: f64, ulps: i64) -> f64 {
    f64::from_bits((v.to_bits() as i64 + ulps) as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random fleets at K = 2–4: the streamed home minimum and winner
    /// are the collect's, request after request, as workers turn busy
    /// and reach their stops.
    #[test]
    fn the_streamed_probe_is_the_collect(
        seed in any::<u64>(),
        k in 2usize..5,
        workers in 0u64..24,
        busy_per_mille in prop_oneof![Just(100u64), Just(500), Just(900)],
        stacked in any::<bool>(),
        (off_x, off_y, ulps) in (0u32..4, 1u32..4, -1i64..2),
    ) {
        // The radius of a 100 cs budget is `speed` metres: the length
        // of a lattice offset, or one ulp either side of it.
        let ring_m = (f64::from(off_x) * BLOCK_M).hypot(f64::from(off_y) * BLOCK_M);
        let speed = nudge(ring_m, ulps);
        let oracle = lattice(speed);
        let mut draw = Draw(seed);
        // Stacked fleets put half their workers on one vertex, shared
        // by every platform.
        let stack = draw.vertex();
        let mut states: Vec<PlatformState> = (0..k)
            .map(|_| {
                let n = draw.below(workers + 1);
                let fleet: Vec<(VertexId, u16)> = (0..n)
                    .map(|_| {
                        let v = if stacked && draw.below(2) == 0 { stack } else { draw.vertex() };
                        (v, draw.below(2) as u16)
                    })
                    .collect();
                platform(&oracle, &fleet)
            })
            .collect();
        let mut trip = 1_000_000;
        for state in &mut states {
            for i in 0..state.num_workers() {
                if draw.below(1_000) < busy_per_mille {
                    make_busy(state, WorkerId(i as u32), trip, draw.vertex());
                    trip += 1;
                }
            }
            state.advance_clock(3_000);
        }
        for id in 0..24 {
            let home = draw.below(k as u64) as usize;
            let mut order: Vec<usize> = (0..k).filter(|&s| s != home).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, draw.below(i as u64 + 1) as usize);
            }
            let now = states[0].now();
            let (o, d) = (
                if stacked && draw.below(3) == 0 { stack } else { draw.vertex() },
                draw.vertex(),
            );
            let budget = match draw.below(4) {
                0 => 10_000_000,
                1 => draw.below(8_000),
                // On some worker's distance, or an ulp beside it.
                2 => 100,
                _ => {
                    let s = draw.below(k as u64) as usize;
                    match states[s].num_workers() as u64 {
                        0 => 0,
                        n => {
                            let w = WorkerId(draw.below(n) as u32);
                            let meters = oracle
                                .point(states[s].head(w).vertex)
                                .euclidean_m(&oracle.point(o));
                            let cs = meters / speed * 100.0;
                            if draw.below(2) == 0 { cs.floor() as u64 } else { cs.ceil() as u64 }
                        }
                    }
                }
            };
            let mut r = request(id, o, d, now, budget, &*oracle);
            if budget == 100 {
                // A pickup `(off_x, off_y)` blocks from a worker: that
                // worker stands on the radius or an ulp beside it.
                let s = draw.below(k as u64) as usize;
                if states[s].num_workers() > 0 {
                    let w = WorkerId(draw.below(states[s].num_workers() as u64) as u32);
                    let v = states[s].head(w).vertex;
                    let (x, y) = (v.0 % COLS, v.0 / COLS);
                    if x >= off_x && y >= off_y {
                        r = request(id, node(x - off_x, y - off_y), d, now, 100, &*oracle);
                    }
                }
            }
            if draw.below(3) == 0 {
                r.class = ClassConstraint::Only(ClassId(draw.below(2) as u16));
            }
            probe(&states, home, &order, &r);

            // Let the fleets move on: a worker turns busy, another
            // reaches its next stop, the clock advances.
            let s = draw.below(k as u64) as usize;
            let n = states[s].num_workers() as u64;
            if n > 0 {
                let w = WorkerId(draw.below(n) as u32);
                if states[s].head(w).idle {
                    make_busy(&mut states[s], w, trip, draw.vertex());
                    trip += 1;
                } else {
                    states[s].pop_worker_stop(w);
                }
            }
            let step = draw.below(2_000);
            for state in &mut states {
                state.advance_clock(now + step);
            }
        }
    }
}

/// Idle workers stacked on one vertex tie: within a platform the lower
/// local id wins, across platforms the one probed first.
#[test]
fn stacked_idle_workers_tie_to_the_lower_id_then_the_earlier_shard() {
    let oracle = lattice(1.0);
    let pickup = node(4, 4);
    let states = [
        // Home: one idle worker two blocks east.
        platform(&oracle, &[(node(6, 4), 0)]),
        // Three blocks east, then two stacked one block east.
        platform(
            &oracle,
            &[(node(7, 4), 0), (node(5, 4), 0), (node(5, 4), 0)],
        ),
        // Two stacked one block north: as near as platform 1's pair.
        platform(&oracle, &[(node(4, 5), 0), (node(4, 5), 0)]),
    ];
    let r = request(0, pickup, node(0, 0), 0, 10_000_000, &*oracle);
    let pick = probe(&states, 0, &[1, 2], &r);
    assert_eq!(pick.local_best, 20.0);
    assert_eq!(pick.winner, Some((10.0, 1, WorkerId(1))));
    let pick = probe(&states, 0, &[2, 1], &r);
    assert_eq!(pick.winner, Some((10.0, 2, WorkerId(0))));
    // Only the pair of platform 1 probed: still the lower id.
    assert_eq!(
        probe(&states, 0, &[1], &r).winner,
        Some((10.0, 1, WorkerId(1)))
    );
}

/// A busy worker never crosses the seam, however near; a busy home
/// worker still counts for the home minimum.
#[test]
fn busy_workers_nearer_than_every_idle_one() {
    let oracle = lattice(1.0);
    let pickup = node(4, 4);
    let mut states = [
        platform(&oracle, &[(node(4, 6), 0)]),
        // Busy on the pickup itself; idle one block west.
        platform(&oracle, &[(pickup, 0), (node(3, 4), 0)]),
    ];
    make_busy(&mut states[1], WorkerId(0), 99, node(9, 7));
    assert!(!states[1].head(WorkerId(0)).idle);
    let r = request(0, pickup, node(0, 0), 0, 10_000_000, &*oracle);
    let pick = probe(&states, 0, &[1], &r);
    assert_eq!(pick.local_best, 20.0);
    assert_eq!(pick.winner, Some((10.0, 1, WorkerId(1))));

    // Seen from platform 1's side, its busy worker is the home minimum.
    let pick = probe(&states, 1, &[0], &r);
    assert_eq!(
        pick,
        BorrowPick {
            local_best: 0.0,
            winner: None
        }
    );
}

/// A class-constrained request skips the nearer workers of the other
/// class on both sides of the seam.
#[test]
fn class_constrained_requests_skip_ineligible_workers() {
    let oracle = lattice(1.0);
    let pickup = node(4, 4);
    let states = [
        platform(&oracle, &[(pickup, 0), (node(7, 4), 1)]),
        platform(&oracle, &[(node(5, 4), 0), (node(4, 6), 1)]),
    ];
    let mut r = request(0, pickup, node(0, 0), 0, 10_000_000, &*oracle);
    r.class = ClassConstraint::Only(ClassId(1));
    let pick = probe(&states, 0, &[1], &r);
    assert_eq!(
        pick,
        BorrowPick {
            local_best: 30.0,
            winner: Some((20.0, 1, WorkerId(1)))
        }
    );
    // Unconstrained, the home worker on the pickup keeps everyone home.
    r.class = ClassConstraint::Any;
    assert_eq!(probe(&states, 0, &[1], &r).winner, None);
}

/// The pickup radius admits a worker exactly on it and not one an ulp
/// beyond it; a foreign worker exactly at the home minimum, or at an
/// earlier shard's distance, stays where it is.
#[test]
fn the_radius_and_the_home_minimum_are_boundaries() {
    // Three blocks east and four north: 50 m, exactly.
    let pickup = node(1, 1);
    let on_ring = node(4, 5);
    for (ulps, inside) in [(-1, false), (0, true), (1, true)] {
        let oracle = lattice(nudge(50.0, ulps));
        let states = [platform(&oracle, &[]), platform(&oracle, &[(on_ring, 0)])];
        // A budget of 100 cs reaches exactly `speed` metres.
        let r = request(0, pickup, node(0, 0), 0, 100, &*oracle);
        let pick = probe(&states, 0, &[1], &r);
        assert_eq!(pick.local_best, f64::INFINITY);
        assert_eq!(
            pick.winner,
            inside.then_some((50.0, 1, WorkerId(0))),
            "{ulps} ulps"
        );
        let pick = probe(&states, 1, &[0], &r);
        assert_eq!(
            pick.local_best,
            if inside { 50.0 } else { f64::INFINITY },
            "{ulps} ulps"
        );
    }

    let oracle = lattice(1.0);
    let r = request(0, pickup, node(0, 0), 0, 10_000_000, &*oracle);
    // Home five blocks north, 50 m; platform 1 on the 50 m ring too.
    let states = [
        platform(&oracle, &[(node(1, 6), 0)]),
        platform(&oracle, &[(on_ring, 0)]),
        platform(&oracle, &[(node(6, 1), 0)]),
    ];
    assert_eq!(
        probe(&states, 0, &[1, 2], &r),
        BorrowPick {
            local_best: 50.0,
            winner: None
        }
    );
    // Home six blocks east, 60 m: the first 50 m platform wins.
    let states = [
        platform(&oracle, &[(node(7, 1), 0)]),
        platform(&oracle, &[(on_ring, 0)]),
        platform(&oracle, &[(node(6, 1), 0)]),
    ];
    assert_eq!(
        probe(&states, 0, &[1, 2], &r).winner,
        Some((50.0, 1, WorkerId(0)))
    );
    assert_eq!(
        probe(&states, 0, &[2, 1], &r).winner,
        Some((50.0, 2, WorkerId(0)))
    );
}
