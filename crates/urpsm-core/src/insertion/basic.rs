//! Basic insertion (Algo. 1): enumerate every `(i, j)`, re-simulate the
//! candidate route in `O(n)` per pair.
//!
//! This is the operator of Jaw et al. (refs 27/28) used by `tshare` (30)
//! and `kinetic` (25); the paper's complaint is precisely its `O(n³)`
//! time (`O(n³ q)` with `q`-cost distance queries). We keep it honest:
//! every *new* leg in the candidate sequence is re-queried from the
//! oracle. Hops between stops that stay adjacent use the route's stored
//! leg, for the same reason the linear DP subtracts `route.leg(j+1)`:
//! a stored leg is the planned-distance ledger's ground truth, and it
//! can legitimately differ from `dis` of its endpoints — a mid-leg snap
//! onto a time-dependent detour re-bases the head leg to the driven
//! remainder (`Route::snap_on_leg`), and a cancellation bridge is
//! capped at the coverage it replaces. Recomputing those hops from the
//! oracle would leak the difference into `delta` and desynchronize
//! `assigned_distance` from the driven ledger.

use road_network::oracle::DistanceOracle;
use road_network::{cost_add, Cost, INF};

use crate::route::{InsertionPlan, Route};
use crate::types::{Request, StopKind, Time};

use super::{plan_from_positions, plan_key, PlanKey};

/// Finds the minimal-increase feasible insertion of `r` into `route`
/// by exhaustive enumeration. Returns `None` when no feasible placement
/// exists.
pub fn basic_insertion(
    route: &Route,
    worker_capacity: u32,
    r: &Request,
    oracle: &dyn DistanceOracle,
) -> Option<InsertionPlan> {
    if r.capacity > worker_capacity {
        return None;
    }
    let direct = oracle.dis(r.origin, r.destination);
    if direct >= INF {
        return None;
    }
    let n = route.len();
    let old_distance = route.remaining_distance();

    let mut best: Option<(PlanKey, usize, usize, Cost)> = None;
    for i in 0..=n {
        for j in i..=n {
            if let Some(new_distance) =
                simulate_candidate(route, worker_capacity, r, direct, i, j, oracle)
            {
                // A candidate replacing a snapped head leg can come out
                // *shorter* than the stored plan; the unsigned ledger
                // cannot express a negative delta, so skip it.
                let Some(delta) = new_distance.checked_sub(old_distance) else {
                    continue;
                };
                let key = plan_key(delta, i, j, n);
                if best.as_ref().is_none_or(|(bk, ..)| key < *bk) {
                    best = Some((key, i, j, delta));
                }
            }
        }
    }
    best.map(|(_, i, j, delta)| plan_from_positions(route, r, i, j, delta, direct, oracle))
}

/// Walks the hypothetical route with `o_r` after position `i` and `d_r`
/// after position `j`, checking every deadline and the capacity after
/// every stop. Returns the new total remaining distance if feasible.
fn simulate_candidate(
    route: &Route,
    worker_capacity: u32,
    r: &Request,
    direct: Cost,
    i: usize,
    j: usize,
    oracle: &dyn DistanceOracle,
) -> Option<Cost> {
    let n = route.len();
    let pickup_ddl: Time = r.pickup_deadline(direct);

    if route.picked(0) > worker_capacity {
        return None;
    }
    let mut time = route.arr(0);
    let mut load = route.picked(0);
    let mut prev = route.vertex(0);
    let mut total: Cost = 0;

    // One visit: drive `d` to `vertex`, check its deadline, apply the
    // load change, check capacity. Returns false on any violation.
    let mut visit = |prev: &mut road_network::VertexId,
                     vertex: road_network::VertexId,
                     d: Cost,
                     ddl: Time,
                     pickup: bool,
                     amount: u32|
     -> bool {
        total = cost_add(total, d);
        time = cost_add(time, d);
        if time > ddl {
            return false;
        }
        load = if pickup {
            load + amount
        } else {
            load.saturating_sub(amount)
        };
        *prev = vertex;
        load <= worker_capacity
    };

    let mut stops = route.stops();
    for k in 0..=n {
        if k > 0 {
            let s = stops.next().expect("one stop per location k ≥ 1");
            // Stops that stay adjacent keep their stored leg (the
            // ledger's ground truth — see module docs); a hop following
            // an inserted stop is a new leg and is queried fresh.
            let d = if i == k - 1 || j == k - 1 {
                oracle.dis(prev, s.vertex)
            } else {
                route.leg(k)
            };
            if !visit(
                &mut prev,
                s.vertex,
                d,
                s.ddl,
                s.kind == StopKind::Pickup,
                s.load,
            ) {
                return None;
            }
        }
        if k == i {
            let d = oracle.dis(prev, r.origin);
            if !visit(&mut prev, r.origin, d, pickup_ddl, true, r.capacity) {
                return None;
            }
        }
        if k == j {
            let d = oracle.dis(prev, r.destination);
            if !visit(&mut prev, r.destination, d, r.deadline, false, r.capacity) {
                return None;
            }
        }
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::PlanShape;
    use crate::types::{RequestId, StopKind};
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;
    use road_network::VertexId;

    /// A 1-D line metric: vertices at x = 0, 100, 200, ... meters,
    /// cost = 1 per meter of separation (top speed high enough that
    /// euclidean bounds stay below).
    fn line_oracle(n: usize) -> MatrixOracle {
        let rows: Vec<Vec<Cost>> = (0..n)
            .map(|u| (0..n).map(|v| (u.abs_diff(v) as Cost) * 100).collect())
            .collect();
        let points = (0..n).map(|k| Point::new(k as f64 * 100.0, 0.0)).collect();
        MatrixOracle::from_matrix(&rows, points, 1_000.0)
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
    fn empty_route_appends() {
        let oracle = line_oracle(10);
        let route = Route::new(VertexId(0), 0);
        let r = request(1, 2, 5, 100_000);
        let plan = basic_insertion(&route, 4, &r, &oracle).unwrap();
        assert_eq!(plan.pickup_after, 0);
        assert_eq!(plan.delivery_after, 0);
        // Drive 0→2 (200) then 2→5 (300).
        assert_eq!(plan.delta, 500);
        assert_eq!(plan.direct, 300);
        assert!(matches!(
            plan.shape,
            PlanShape::Append {
                dis_tail_pickup: 200
            }
        ));
    }

    #[test]
    fn on_the_way_insertion_is_free() {
        let oracle = line_oracle(10);
        let mut route = Route::new(VertexId(0), 0);
        let r1 = request(1, 1, 8, 100_000);
        let p1 = basic_insertion(&route, 4, &r1, &oracle).unwrap();
        route.apply_insertion(&p1, &r1);
        // r2 rides 3 → 5, exactly on the way 1 → 8: zero extra distance.
        let r2 = request(2, 3, 5, 100_000);
        let p2 = basic_insertion(&route, 4, &r2, &oracle).unwrap();
        assert_eq!(p2.delta, 0);
        assert_eq!(p2.pickup_after, 1); // after picking r1 at v1
        assert_eq!(p2.delivery_after, 1); // both between v1 and v8
        route.apply_insertion(&p2, &r2);
        assert!(route.validate(4).is_ok());
        let seq: Vec<u32> = (0..=route.len()).map(|k| route.vertex(k).0).collect();
        assert_eq!(seq, vec![0, 1, 3, 5, 8]);
    }

    #[test]
    fn deadline_makes_insertion_infeasible() {
        let oracle = line_oracle(10);
        let route = Route::new(VertexId(0), 0);
        // 0→9 takes 900; deadline 800 can't be met.
        let r = request(1, 0, 9, 800);
        assert!(basic_insertion(&route, 4, &r, &oracle).is_none());
        // But deadline 900 is exactly feasible.
        let r = request(2, 0, 9, 900);
        assert!(basic_insertion(&route, 4, &r, &oracle).is_some());
    }

    #[test]
    fn capacity_blocks_overlapping_riders() {
        let oracle = line_oracle(12);
        let mut route = Route::new(VertexId(0), 0);
        // Two riders already sharing the 2..8 span, capacity 2.
        for (id, o, d) in [(1u32, 2u32, 8u32), (2, 2, 8)] {
            let r = request(id, o, d, 100_000);
            let p = basic_insertion(&route, 2, &r, &oracle).unwrap();
            route.apply_insertion(&p, &r);
        }
        // A third overlapping rider cannot fit inside 2..8 …
        let r3 = request(3, 3, 7, 100_000);
        let plan = basic_insertion(&route, 2, &r3, &oracle);
        // … so the only feasible plans put it entirely after the drops.
        let plan = plan.expect("can still serve after the others");
        assert!(
            plan.pickup_after >= 3,
            "must start after deliveries: {plan:?}"
        );
        // And with capacity 3 it fits inside at zero detour.
        let plan3 = basic_insertion(&route, 3, &r3, &oracle).unwrap();
        assert_eq!(plan3.delta, 0);
    }

    /// After a mid-leg snap onto a time-dependent detour the head leg
    /// stores a driven remainder that differs from `dis(l_0, l_1)`;
    /// deltas must be costed against the stored leg or the planned /
    /// driven ledger drifts (the PR-8 tshare audit failure).
    #[test]
    fn snapped_head_leg_costed_from_stored_remainder() {
        let oracle = line_oracle(30);
        let mut route = Route::new(VertexId(0), 0);
        let r1 = request(1, 5, 10, 100_000);
        let p1 = basic_insertion(&route, 4, &r1, &oracle).unwrap();
        route.apply_insertion(&p1, &r1);
        // Snap to vertex 2 with 345 base units left to l_1 = 5 (a TD
        // detour remainder; dis(2, 5) = 300).
        route.snap_on_leg(VertexId(2), 200, 345);

        // Head insertion (i = 0) replaces the stored remainder:
        // delta = dis(2,1) + direct + dis(2,5) − 345 = 155, not the
        // dis-recomputed 200.
        let r2 = request(2, 1, 2, 100_000);
        let p2 = basic_insertion(&route, 4, &r2, &oracle).unwrap();
        assert_eq!((p2.pickup_after, p2.delivery_after), (0, 0));
        assert_eq!(p2.delta, 155);

        // Insertion past the head (i ≥ 1) keeps the stored remainder:
        // the delta is pure tail detour, independent of the snap.
        let r3 = request(3, 20, 25, 100_000);
        let p3 = basic_insertion(&route, 4, &r3, &oracle).unwrap();
        assert_eq!((p3.pickup_after, p3.delivery_after), (2, 2));
        assert_eq!(p3.delta, 1_000 + 500); // 10→20 out, 20→25 direct

        // Both stay ledger-exact: committing the plan grows
        // `remaining_distance` by exactly the reported delta.
        for (r, p) in [(r2, p2), (r3, p3)] {
            let mut probe = route.clone();
            let old = probe.remaining_distance();
            probe.apply_insertion(&p, &r);
            assert_eq!(probe.remaining_distance(), old + p.delta, "r{}", r.id.0);
        }
    }

    #[test]
    fn request_larger_than_vehicle_rejected() {
        let oracle = line_oracle(5);
        let route = Route::new(VertexId(0), 0);
        let mut r = request(1, 1, 2, 100_000);
        r.capacity = 5;
        assert!(basic_insertion(&route, 4, &r, &oracle).is_none());
    }

    #[test]
    fn existing_deadlines_limit_detours() {
        let oracle = line_oracle(20);
        let mut route = Route::new(VertexId(0), 0);
        // Tight rider: 0→10, deadline exactly 1000 (no slack at all).
        let r1 = request(1, 0, 10, 1_000);
        let p1 = basic_insertion(&route, 4, &r1, &oracle).unwrap();
        route.apply_insertion(&p1, &r1);
        // Any detour to 12 before r1's drop would violate r1's deadline,
        // so r2 must be served strictly after.
        let r2 = request(2, 12, 15, 100_000);
        let p2 = basic_insertion(&route, 4, &r2, &oracle).unwrap();
        assert_eq!(p2.pickup_after, route.len());
        assert_eq!(p2.delivery_after, route.len());
        let mut committed = route.clone();
        committed.apply_insertion(&p2, &r2);
        assert!(committed.validate(4).is_ok());
    }

    #[test]
    fn picks_global_minimum_among_feasible() {
        let oracle = line_oracle(20);
        let mut route = Route::new(VertexId(0), 0);
        let r1 = request(1, 5, 15, 100_000);
        let p1 = basic_insertion(&route, 4, &r1, &oracle).unwrap();
        route.apply_insertion(&p1, &r1);
        // r2: 6 → 14 nested inside; best is the zero-detour adjacent
        // insert between r1's pickup and delivery.
        let r2 = request(2, 6, 14, 100_000);
        let p2 = basic_insertion(&route, 4, &r2, &oracle).unwrap();
        assert_eq!(p2.delta, 0);
        assert!(matches!(p2.shape, PlanShape::Adjacent { .. }));
        route.apply_insertion(&p2, &r2);
        assert!(route.validate(4).is_ok());
        // Pickups in order 5, 6; deliveries 14, 15.
        let kinds: Vec<(u32, StopKind)> = route.stops().map(|s| (s.vertex.0, s.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (5, StopKind::Pickup),
                (6, StopKind::Pickup),
                (14, StopKind::Delivery),
                (14 + 1, StopKind::Delivery),
            ]
        );
    }
}
