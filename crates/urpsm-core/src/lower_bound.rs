//! The Euclidean lower bound `LBΔ*` of §5.1 (Lemma 7, Eq. 15–17).
//!
//! The decision phase needs a cheap underestimate of each worker's
//! minimal increased distance `Δ*`. Three substitutions make the linear
//! DP scan free of road-network queries:
//!
//! * every detour term uses the Euclidean travel-time bound
//!   `euc(·,·) ≤ dis(·,·)` (coordinate arithmetic only),
//! * distances between *adjacent route stops* come from the stored leg
//!   array (`leg[k] = arr[k] − arr[k−1]`, Lemma 7's auxiliary array),
//! * the only real query is `L = dis(o_r, d_r)`, shared across all
//!   candidate workers of the request (Algo. 4 line 1).
//!
//! The scan visits route positions left to right and reads each
//! `euc(l_k, o_r)` / `euc(l_k, d_r)` pair twice — as position `k` and as
//! the successor of `k − 1` — so the pair is computed once, one slot
//! ahead, and rolled forward: two `euc` calls per visited position,
//! pinned by a `CountingOracle` test.
//!
//! Every feasibility check is *relaxed* (an `euc` underestimate can only
//! widen the candidate set) and every candidate value underestimates the
//! true `Δ_{i,j}`, so the returned value is a valid lower bound of `Δ*`;
//! the property test `lb_never_exceeds_true_delta` pins this invariant.
//!
//! **Under a congestion profile** nothing here changes, and the bound
//! stays admissible (DESIGN.md §7): `Δ*` and every detour term are
//! free-flow *distances*, the unit the unified objective is measured
//! in, so `euc ≤ dis` still underestimates them. The deadline checks
//! mix stretched arrivals (`route.arr`, already time-dependent) with
//! free-flow detours — with every multiplier `≥ 1` that only
//! *underestimates* true stretched arrivals, i.e. it relaxes the
//! filter further and can never drop a feasible candidate. The exact
//! stretched-schedule test happens once per probed plan that could
//! win, at the planner's gate (`Route::insertion_feasible`).

use road_network::geo::{BoundingBox, Point};
use road_network::graph::euclidean_cost;
use road_network::oracle::DistanceOracle;
use road_network::{cost_add, cost_add3, Cost, INF};

use crate::platform::WorkerHead;
use crate::route::Route;
use crate::types::{Request, Time};

/// Computes `LBΔ*` for inserting `r` into `route` (Eq. 17).
///
/// `direct` must be `L = dis(o_r, d_r)` — the caller queries it once
/// per request and shares it across workers. Returns `None` when even
/// the relaxed checks admit no placement (then no feasible insertion
/// exists at all, so the worker can be skipped outright).
pub fn insertion_lower_bound(
    route: &Route,
    worker_capacity: u32,
    r: &Request,
    direct: Cost,
    oracle: &dyn DistanceOracle,
) -> Option<Cost> {
    scan_lower_bound(route, worker_capacity, r, direct, oracle).0
}

/// [`insertion_lower_bound`], with the number of route positions whose
/// `euc` pair its scan computed (the stopping position's lookahead
/// included): the DP engine counts both ([`crate::decision::BoundWork`]).
pub(crate) fn scan_lower_bound(
    route: &Route,
    worker_capacity: u32,
    r: &Request,
    direct: Cost,
    oracle: &dyn DistanceOracle,
) -> (Option<Cost>, usize) {
    if r.capacity > worker_capacity || direct >= INF {
        return (None, 0);
    }
    let n = route.len();
    let mut visited = n + 1;
    let free = worker_capacity - r.capacity;

    // Euclidean bounds against every route location — no dis() queries.
    let mut best: Option<Cost> = None;
    let mut dio: Cost = INF; // Dioeuc (Eq. 16)

    // euc(l_k, o_r) / euc(l_k, d_r): each pair is read as position k
    // and as the successor of k−1, so it is computed once, one slot
    // ahead, and rolled forward — two `euc` calls per visited position.
    let euc_pair = |k: usize| {
        let v = route.vertex(k);
        (oracle.euc(v, r.origin), oracle.euc(v, r.destination))
    };
    let (mut e_or_j, mut e_dr_j) = euc_pair(0);

    for j in 0..=n {
        // Read only under `j < n`.
        let (e_or_next, e_dr_next) = if j < n { euc_pair(j + 1) } else { (0, 0) };

        // i = j special cases (Eq. 15 rows 1–2, relaxed).
        if route.picked(j) <= free && cost_add3(route.arr(j), e_or_j, direct) <= r.deadline {
            let lb = if j == n {
                cost_add(e_or_j, direct)
            } else {
                cost_add3(e_or_j, direct, e_dr_next).saturating_sub(route.leg(j + 1))
            };
            if lb <= route.slack(j) && best.is_none_or(|b| lb < b) {
                best = Some(lb);
            }
        }

        // i < j through Dioeuc (Eq. 17 row 3, relaxed Corollary 1).
        if j > 0
            && dio < INF
            && route.picked(j) <= free
            && cost_add3(route.arr(j), dio, e_dr_j) <= r.deadline
        {
            let ldet_j = if j == n {
                e_dr_j
            } else {
                cost_add(e_dr_j, e_dr_next).saturating_sub(route.leg(j + 1))
            };
            let lb = cost_add(dio, ldet_j);
            if lb <= route.slack(j) && best.is_none_or(|b| lb < b) {
                best = Some(lb);
            }
        }

        // Relaxed safe prune (mirrors Algo. 3 line 8 with euc ≤ dis, so
        // it fires no earlier than the exact prune would).
        if cost_add(route.arr(j), e_dr_j) > r.deadline {
            visited = (j + 2).min(n + 1);
            break;
        }

        // Roll Dioeuc forward (Eq. 16).
        if j < n {
            if route.picked(j) > free {
                dio = INF;
            } else {
                let ldet = cost_add(e_or_j, e_or_next).saturating_sub(route.leg(j + 1));
                if ldet <= route.slack(j) && ldet <= dio {
                    dio = ldet;
                }
            }
        }
        (e_or_j, e_dr_j) = (e_or_next, e_dr_next);
    }
    (best, visited)
}

/// A route summed up for the candidate stream (DESIGN.md §5, "The
/// candidate stream"): the bounding box of the coordinates of its
/// locations `l_0 … l_n` and its longest leg `M`. Kept beside every
/// route by `PlatformState::reindex`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RouteBox {
    area: BoundingBox,
    longest_leg: Cost,
}

impl RouteBox {
    /// The summary of `route`, its locations placed by `oracle`.
    pub(crate) fn of(route: &Route, oracle: &dyn DistanceOracle) -> Self {
        let n = route.len();
        RouteBox {
            area: BoundingBox::around((0..=n).map(|k| oracle.point(route.vertex(k)))),
            longest_leg: (1..=n).map(|k| route.leg(k)).max().unwrap_or(0),
        }
    }

    /// A key no [`insertion_lower_bound`] of the summed-up route can
    /// undercut, for a request from `origin` to `destination` with
    /// `L = direct`, at the top speed `speed` of the oracle's `euc`:
    ///
    /// `B = min(g_o + L, (g_o + L + g_d) ⊖ M, (2g_o ⊖ M) + min(g_d, 2g_d ⊖ M))`
    ///
    /// where `g_o`, `g_d` are the Euclidean bounds from `o_r` and `d_r`
    /// to the box and `⊖` saturates at 0. Every `euc(l_k, o_r) ≥ g_o`
    /// and every `euc(l_k, d_r) ≥ g_d` (the box distance never exceeds
    /// a contained point's, and `euclidean_cost` is monotone), and
    /// every leg is at most `M`; so each of the scan's three candidate
    /// values — `e_or_n + L` at the route's end, `(e_or_j + L +
    /// e_dr_{j+1}) ⊖ leg_{j+1}` for both stops in one leg, and
    /// `Dio + ldet_j` for a split pair with `ldet_j = e_dr_n` or
    /// `(e_dr_j + e_dr_{j+1}) ⊖ leg_{j+1}` — is at least the matching
    /// term, term by term. Saturating addition and subtraction are
    /// monotone, so the same order holds in `Cost` arithmetic.
    pub(crate) fn bound(
        &self,
        origin: Point,
        destination: Point,
        direct: Cost,
        speed: f64,
    ) -> Cost {
        let g_o = euclidean_cost(self.area.distance_m(origin), speed);
        let g_d = euclidean_cost(self.area.distance_m(destination), speed);
        let m = self.longest_leg;
        let at_end = cost_add(g_o, direct);
        let one_leg = cost_add3(g_o, direct, g_d).saturating_sub(m);
        let ldet = g_d.min(cost_add(g_d, g_d).saturating_sub(m));
        let split = cost_add(cost_add(g_o, g_o).saturating_sub(m), ldet);
        at_end.min(one_leg).min(split)
    }
}

/// [`insertion_lower_bound`] of an idle worker, from its head-plane
/// entry alone (DESIGN.md §5). On a route with no stops the scan is
/// one position, `j = n = 0`, with `picked[0] = 0` and `slack[0] = ∞`,
/// so what is left is the capacity test, the relaxed pickup-deadline
/// test from the worker's departure at `now`
/// ([`WorkerHead::departure`]) and the bound `euc(l_0, o_r) + L` — the
/// same `euc` call, so the same bits (pinned by a property test
/// against [`insertion_lower_bound`] on the re-timed route).
pub fn idle_lower_bound(
    head: &WorkerHead,
    now: Time,
    r: &Request,
    direct: Cost,
    oracle: &dyn DistanceOracle,
) -> Option<Cost> {
    idle_bound_at(head, now, r, direct, oracle.euc(head.vertex, r.origin))
}

/// [`idle_lower_bound`] with `e_or = euc(l_0, o_r)` already in hand —
/// the platform's candidate stream computes it from the distance its
/// radius test measured (DESIGN.md §5, "The candidate stream"). The
/// one place the idle rule is written.
pub(crate) fn idle_bound_at(
    head: &WorkerHead,
    now: Time,
    r: &Request,
    direct: Cost,
    e_or: Cost,
) -> Option<Cost> {
    debug_assert!(head.idle, "only an empty route reduces to its head");
    if r.capacity > head.capacity || direct >= INF {
        return None;
    }
    (cost_add3(head.departure(now), e_or, direct) <= r.deadline).then(|| cost_add(e_or, direct))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::linear_dp_insertion;
    use crate::route::Route;
    use crate::types::{RequestId, Time};
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;
    use road_network::oracle::DistanceOracle;
    use road_network::VertexId;

    /// Metric where road distances are 3× the Euclidean bound (grid-ish
    /// detours), so the LB is strictly below Δ* and the machinery has
    /// something real to underestimate.
    fn detour_oracle(n: usize) -> MatrixOracle {
        let rows: Vec<Vec<Cost>> = (0..n)
            .map(|u| (0..n).map(|v| (u.abs_diff(v) as Cost) * 300).collect())
            .collect();
        // Points 1 m apart at top speed 1 m/s ⇒ euc = 100 cs per hop
        // (`euclidean_cost` floors meters / speed · 100).
        let points = (0..n).map(|k| Point::new(k as f64, 0.0)).collect();
        MatrixOracle::from_matrix(&rows, points, 1.0)
    }

    fn request(id: u32, o: u32, d: u32, deadline: Time) -> Request {
        Request {
            class: Default::default(),
            id: RequestId(id),
            origin: VertexId(o),
            destination: VertexId(d),
            release: 0,
            deadline,
            penalty: 1,
            capacity: 1,
        }
    }

    #[test]
    fn lb_never_exceeds_true_delta_scripted() {
        let oracle = detour_oracle(30);
        let mut route = Route::new(VertexId(0), 0);
        for (id, o, d, ddl) in [
            (1u32, 5u32, 15u32, 100_000u64),
            (2, 6, 14, 100_000),
            (3, 20, 25, 100_000),
            (4, 1, 28, 100_000),
        ] {
            let r = request(id, o, d, ddl);
            let direct = oracle.dis(r.origin, r.destination);
            let lb = insertion_lower_bound(&route, 6, &r, direct, &oracle);
            let plan = linear_dp_insertion(&route, 6, &r, &oracle);
            if let Some(p) = &plan {
                let lb = lb.expect("feasible insertion must have a lower bound");
                assert!(lb <= p.delta, "LB {lb} > Δ* {} at r{id}", p.delta);
                route.apply_insertion(p, &r);
            }
        }
    }

    #[test]
    fn lb_zero_for_on_the_way_rides() {
        let oracle = detour_oracle(30);
        let mut route = Route::new(VertexId(0), 0);
        let r1 = request(1, 0, 20, 100_000);
        let direct = oracle.dis(r1.origin, r1.destination);
        let p = linear_dp_insertion(&route, 4, &r1, &oracle).unwrap();
        route.apply_insertion(&p, &r1);
        // Perfectly nested ride: true Δ* is 0, so LB must be 0 too.
        let r2 = request(2, 5, 15, 100_000);
        let direct2 = oracle.dis(r2.origin, r2.destination);
        let lb = insertion_lower_bound(&route, 4, &r2, direct2, &oracle).unwrap();
        assert_eq!(lb, 0);
        let _ = direct;
    }

    #[test]
    fn infeasible_by_deadline_returns_none() {
        let oracle = detour_oracle(10);
        let route = Route::new(VertexId(0), 1_000);
        // Even the euclidean relaxation can't deliver by t=1000.
        let r = request(1, 5, 9, 1_010);
        let direct = oracle.dis(r.origin, r.destination);
        assert!(insertion_lower_bound(&route, 4, &r, direct, &oracle).is_none());
    }

    #[test]
    fn oversized_request_returns_none() {
        let oracle = detour_oracle(10);
        let route = Route::new(VertexId(0), 0);
        let mut r = request(1, 1, 2, 100_000);
        r.capacity = 9;
        let direct = oracle.dis(r.origin, r.destination);
        assert!(insertion_lower_bound(&route, 4, &r, direct, &oracle).is_none());
    }

    #[test]
    fn lb_uses_single_shared_direct_query() {
        // The function signature takes `direct` by value — this test
        // documents that no additional dis() query is made: we hand it
        // a CountingOracle and expect zero dis traffic, and exactly one
        // `euc` pair for the one position of an idle route.
        use road_network::oracle::CountingOracle;
        let oracle = CountingOracle::new(detour_oracle(20));
        let route = Route::new(VertexId(0), 0);
        let r = request(1, 5, 9, 100_000);
        let _ = insertion_lower_bound(&route, 4, &r, 1_200, &oracle).unwrap();
        assert_eq!(oracle.stats().dis, 0, "LB must not issue dis() queries");
        assert_eq!(oracle.stats().euc, 2);
    }

    /// HEAD's `insertion_lower_bound` before the rolled-forward `euc`
    /// pair, kept verbatim as the differential reference: its closures
    /// re-evaluate `euc` wherever a value is read.
    fn reference_lower_bound(
        route: &Route,
        worker_capacity: u32,
        r: &Request,
        direct: Cost,
        oracle: &dyn DistanceOracle,
    ) -> Option<Cost> {
        if r.capacity > worker_capacity || direct >= INF {
            return None;
        }
        let n = route.len();
        let free = worker_capacity - r.capacity;
        let mut best: Option<Cost> = None;
        let mut dio: Cost = INF;
        let euc_or = |k: usize| oracle.euc(route.vertex(k), r.origin);
        let euc_dr = |k: usize| oracle.euc(route.vertex(k), r.destination);
        for j in 0..=n {
            let e_or_j = euc_or(j);
            let e_dr_j = euc_dr(j);
            if route.picked(j) <= free && cost_add3(route.arr(j), e_or_j, direct) <= r.deadline {
                let lb = if j == n {
                    cost_add(e_or_j, direct)
                } else {
                    cost_add3(e_or_j, direct, euc_dr(j + 1)).saturating_sub(route.leg(j + 1))
                };
                if lb <= route.slack(j) && best.is_none_or(|b| lb < b) {
                    best = Some(lb);
                }
            }
            if j > 0
                && dio < INF
                && route.picked(j) <= free
                && cost_add3(route.arr(j), dio, e_dr_j) <= r.deadline
            {
                let ldet_j = if j == n {
                    e_dr_j
                } else {
                    cost_add(e_dr_j, euc_dr(j + 1)).saturating_sub(route.leg(j + 1))
                };
                let lb = cost_add(dio, ldet_j);
                if lb <= route.slack(j) && best.is_none_or(|b| lb < b) {
                    best = Some(lb);
                }
            }
            if cost_add(route.arr(j), e_dr_j) > r.deadline {
                break;
            }
            if j < n {
                if route.picked(j) > free {
                    dio = INF;
                } else {
                    let ldet = cost_add(e_or_j, euc_or(j + 1)).saturating_sub(route.leg(j + 1));
                    if ldet <= route.slack(j) && ldet <= dio {
                        dio = ldet;
                    }
                }
            }
        }
        best
    }

    mod props {
        use super::*;
        use crate::platform::PlatformState;
        use crate::types::{Worker, WorkerId};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use road_network::congestion::CongestionProfile;
        use road_network::oracle::CountingOracle;
        use std::sync::Arc;

        const VERTICES: u32 = 40;

        /// A route of exactly `stops` stops: riders inserted by the
        /// exact operator until it is long enough, then driven forward
        /// (stop counts of either parity, riders on board at `l_0`).
        fn random_route(
            rng: &mut StdRng,
            oracle: &dyn DistanceOracle,
            stops: usize,
            congested: bool,
        ) -> Route {
            let mut route = Route::new(VertexId(rng.gen_range(0..VERTICES)), 0);
            if congested {
                let profile = CongestionProfile::constant("x1.5", 1.5).unwrap();
                route.set_congestion(Some(Arc::new(profile)));
            }
            let mut id = 100;
            while route.len() < stops {
                let o = rng.gen_range(0..VERTICES);
                let d = (o + rng.gen_range(1..VERTICES)) % VERTICES;
                let rider = request(id, o, d, 10_000_000);
                id += 1;
                let plan = linear_dp_insertion(&route, u32::MAX, &rider, oracle)
                    .expect("an unconstrained rider always fits");
                route.apply_insertion(&plan, &rider);
            }
            while route.len() > stops {
                route.pop_front_stop();
            }
            route
        }

        /// A request against `route`: deadlines from hopeless to loose,
        /// and a vehicle anywhere from full to empty.
        fn random_query(rng: &mut StdRng, route: &Route) -> (Request, u32) {
            let o = rng.gen_range(0..VERTICES);
            let d = (o + rng.gen_range(1..VERTICES)) % VERTICES;
            let horizon = route.arr(route.len()) + 20_000;
            let deadline = match rng.gen_range(0..3) {
                0 => rng.gen_range(0..=horizon),
                1 => route.arr(rng.gen_range(0..=route.len())) + rng.gen_range(0..3_000),
                _ => 10_000_000,
            };
            let peak = (0..=route.len()).map(|k| route.picked(k)).max().unwrap();
            let capacity = (peak + rng.gen_range(0..3)).max(1);
            (request(1, o, d, deadline), capacity)
        }

        /// A plane city for the route box: a jittered 8 × 5 lattice,
        /// 10 m/s top speed, road times 1.4× the straight line rounded
        /// up. Vertices 0 and 1 stand on one spot, so a leg between them
        /// has length 0.
        fn plane_oracle() -> MatrixOracle {
            let n = VERTICES as usize;
            let points: Vec<Point> = (0..n)
                .map(|k| {
                    let k = k.max(1);
                    let jitter = |m: usize, p: usize| ((k * m) % p) as f64;
                    Point::new(
                        (k % 8) as f64 * 130.0 + jitter(37, 23),
                        (k / 8) as f64 * 110.0 + jitter(53, 17),
                    )
                })
                .collect();
            let rows: Vec<Vec<Cost>> = points
                .iter()
                .map(|u| {
                    points
                        .iter()
                        .map(|v| (u.euclidean_m(v) * 14.0).ceil() as Cost)
                        .collect()
                })
                .collect();
            MatrixOracle::from_matrix(&rows, points, 10.0)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The route box's key is never above the scan's bound: `B ≤
            /// insertion_lower_bound` whenever the latter is `Some`, on
            /// plane routes with zero-length legs, stretched arrivals, a
            /// head snapped onto its first leg and full positions.
            #[test]
            fn the_route_box_key_never_exceeds_the_bound(
                seed in 0u64..1_000_000,
                stops in 0usize..13,
                congested in any::<bool>(),
                snapped in any::<bool>(),
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let oracle = plane_oracle();
                let mut route = random_route(&mut rng, &oracle, stops, congested);
                if snapped && stops > 0 {
                    // Motion's snap: `l_0` becomes a vertex of the
                    // driven path, part of the first leg still ahead.
                    let v = VertexId(rng.gen_range(0..VERTICES));
                    let time = rng.gen_range(route.arr(0)..=route.arr(1));
                    route.snap_on_leg(v, time, rng.gen_range(0..=route.leg(1)));
                }
                let summary = RouteBox::of(&route, &oracle);
                let speed = oracle.top_speed_mps();
                for _ in 0..32 {
                    let (r, capacity) = random_query(&mut rng, &route);
                    let direct = oracle.dis(r.origin, r.destination);
                    let (o, d) = (oracle.point(r.origin), oracle.point(r.destination));
                    let key = summary.bound(o, d, direct, speed);
                    if let Some(lb) = insertion_lower_bound(&route, capacity, &r, direct, &oracle) {
                        prop_assert!(key <= lb, "key {} > bound {} for {:?} on {:?}", key, lb, r, route);
                    }
                }
            }

            /// Rolling the `euc` pair forward changes no answer: equal
            /// `Option<Cost>` to the closure-per-read reference on
            /// routes across the 8-stop inline boundary.
            #[test]
            fn rolled_forward_lb_equals_the_reference(
                seed in 0u64..1_000_000,
                stops in 0usize..13,
                congested in any::<bool>(),
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let oracle = detour_oracle(VERTICES as usize);
                let route = random_route(&mut rng, &oracle, stops, congested);
                prop_assert_eq!(route.len(), stops);
                for _ in 0..16 {
                    let (r, capacity) = random_query(&mut rng, &route);
                    let direct = oracle.dis(r.origin, r.destination);
                    prop_assert_eq!(
                        insertion_lower_bound(&route, capacity, &r, direct, &oracle),
                        reference_lower_bound(&route, capacity, &r, direct, &oracle),
                        "capacity {} request {:?}", capacity, r
                    );
                }
            }

            /// The head-plane bound is [`insertion_lower_bound`] on the
            /// zero-stop route re-timed to `now`: equal `Option<Cost>`
            /// for a stored clock behind, at and ahead of the
            /// platform's, request capacities below, at and above the
            /// worker's, an unreachable trip, and deadlines on, just
            /// inside and just outside the relaxed pickup boundary.
            #[test]
            fn idle_bound_equals_the_scan_of_the_retimed_route(
                seed in 0u64..1_000_000,
                clock in 0usize..3,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let oracle: Arc<dyn DistanceOracle> = Arc::new(detour_oracle(VERTICES as usize));
                let v = VertexId(rng.gen_range(0..VERTICES));
                let worker = Worker { id: WorkerId(0), origin: v, capacity: 2, class: Default::default() };
                let mut state = PlatformState::new(Arc::clone(&oracle), &[worker], 10.0, 0);
                let now = rng.gen_range(1_000..50_000);
                let stored = match clock {
                    0 => now - rng.gen_range(1..1_000),
                    1 => now,
                    _ => now + rng.gen_range(1..1_000),
                };
                state.advance_clock(now);
                state.set_worker_position(WorkerId(0), v, stored, None);
                let head = state.head(WorkerId(0));
                let mut spare = Route::default();
                let (route, capacity) = state.candidate(WorkerId(0), &mut spare);
                prop_assert_eq!(route.start_time(), stored.max(now));
                for _ in 0..16 {
                    let o = rng.gen_range(0..VERTICES);
                    let d = (o + rng.gen_range(1..VERTICES)) % VERTICES;
                    let mut r = request(1, o, d, 0);
                    r.capacity = rng.gen_range(1..=3);
                    let direct = if rng.gen_range(0..8) == 0 {
                        INF
                    } else {
                        oracle.dis(r.origin, r.destination)
                    };
                    let edge = cost_add3(route.start_time(), oracle.euc(v, r.origin), direct);
                    r.deadline = match rng.gen_range(0..4) {
                        0 => edge,
                        1 => edge - 1,
                        2 => edge + 1,
                        _ => rng.gen_range(0..100_000),
                    };
                    let lb = idle_lower_bound(&head, state.now(), &r, direct, &*oracle);
                    prop_assert_eq!(
                        lb,
                        insertion_lower_bound(route, capacity, &r, direct, &*oracle),
                        "request {:?} direct {}", r, direct
                    );
                    if r.deadline == edge && r.capacity <= capacity && direct < INF {
                        prop_assert!(lb.is_some(), "the boundary itself is feasible");
                    }
                }
            }

            /// Two `euc` calls per visited position — the positions up
            /// to the one whose relaxed prune stops the scan, plus its
            /// one-slot lookahead — and never a `dis` call; the visited
            /// count is the one [`scan_lower_bound`] reports.
            #[test]
            fn lb_costs_two_euc_per_visited_position(
                seed in 0u64..1_000_000,
                stops in 0usize..13,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let oracle = CountingOracle::new(detour_oracle(VERTICES as usize));
                let route = random_route(&mut rng, &oracle, stops, false);
                for _ in 0..16 {
                    let (r, capacity) = random_query(&mut rng, &route);
                    let direct = oracle.dis(r.origin, r.destination);
                    let stopped_at = (0..=stops).find(|&j| {
                        let e_dr = oracle.inner().euc(route.vertex(j), r.destination);
                        cost_add(route.arr(j), e_dr) > r.deadline
                    });
                    let visited = stopped_at.map_or(stops + 1, |j| (j + 2).min(stops + 1));
                    oracle.reset();
                    let (_, counted) = scan_lower_bound(&route, capacity, &r, direct, &oracle);
                    let stats = oracle.stats();
                    prop_assert_eq!(stats.dis, 0);
                    prop_assert_eq!(stats.euc, 2 * visited as u64);
                    prop_assert_eq!(counted, visited);
                }
            }
        }
    }
}
