//! Naive DP insertion (Algo. 2): `O(n²)` pairs, `O(1)` per-pair checks.
//!
//! The schedule arrays maintained by [`Route`] let each candidate pair
//! `(i, j)` be validated with Lemma 4 (deadlines) and Lemma 5
//! (capacity) and costed with Eq. 5 in constant time, instead of the
//! `O(n)` re-simulation of the basic operator.
//!
//! Two pruning details deviate from the paper's listing, both noted in
//! DESIGN.md:
//!
//! * Algo. 2 line 4 breaks on a condition that is not monotone in `i`
//!   (`arr[i] + dis(l_i, o_r) > e_r` can recover for later `i`). We
//!   break on `arr[i] + L > e_r`, which *is* monotone and safe: any
//!   pickup at position ≥ `i` delivers no earlier than `arr[i] + L`.
//!   The original condition is kept as a per-`i` `continue` (tightened
//!   to the pickup deadline `e_r − L`, which condition (3) implies).
//! * Conditions (3)/(4) are `continue`s, not `break`s — neither is
//!   monotone in `j`, and breaking there could miss the optimum,
//!   which would make this operator disagree with basic insertion.

use road_network::oracle::DistanceOracle;
use road_network::{cost_add, cost_add3, Cost, INF};

use crate::route::{InsertionPlan, Route};
use crate::types::Request;

use super::{plan_from_positions, plan_key, PlanKey};

/// Finds the minimal-increase feasible insertion of `r` into `route`
/// using the `O(n²)` dynamic-programming checks of Algo. 2.
pub fn naive_dp_insertion(
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
    let free = worker_capacity - r.capacity; // K_w − K_r
    let pickup_ddl = r.pickup_deadline(direct);

    let mut best: Option<(PlanKey, usize, usize, Cost)> = None;
    let consider =
        |i: usize, j: usize, delta: Cost, best: &mut Option<(PlanKey, usize, usize, Cost)>| {
            let key = plan_key(delta, i, j, n);
            if best.as_ref().is_none_or(|(bk, ..)| key < *bk) {
                *best = Some((key, i, j, delta));
            }
        };

    for i in 0..=n {
        // Safe monotone replacement for Algo. 2 line 4: once even an
        // instantaneous pickup at l_i cannot deliver by e_r, no later
        // position can either.
        if cost_add(route.arr(i), direct) > r.deadline {
            break;
        }
        // Lemma 5 (1).
        if route.picked(i) > free {
            continue;
        }
        let dis_i_or = oracle.dis(route.vertex(i), r.origin);
        // Lemma 4 (1), tightened to the pickup deadline.
        if cost_add(route.arr(i), dis_i_or) > pickup_ddl {
            continue;
        }
        // Detour of inserting o_r between l_i and l_{i+1} (for i < j).
        // `checked_sub`: against a snapped time-dependent head leg the
        // detour can be negative, which the unsigned ledger cannot
        // express — such a position is skipped, not clamped to zero.
        let det_i = if i < n {
            let dis_or_next = oracle.dis(r.origin, route.vertex(i + 1));
            cost_add(dis_i_or, dis_or_next).checked_sub(route.leg(i + 1))
        } else {
            None
        };

        for j in i..=n {
            // Lemma 5 (2): the rider is on board across (i, j]; the
            // first violation kills all later `j` for this `i`.
            if j > i && route.picked(j) > free {
                break;
            }
            if i == j {
                // Fig. 2a (append) or Fig. 2b (adjacent): Eq. 5 rows 1–2.
                // `checked_sub` as for `det_i` above.
                let delta = if j == n {
                    Some(cost_add(dis_i_or, direct))
                } else {
                    let dis_dr_next = oracle.dis(r.destination, route.vertex(j + 1));
                    cost_add3(dis_i_or, direct, dis_dr_next).checked_sub(route.leg(j + 1))
                };
                let Some(delta) = delta else { continue };
                // Lemma 4 (3): the new rider's own delivery deadline.
                if cost_add3(route.arr(i), dis_i_or, direct) > r.deadline {
                    continue;
                }
                // Lemma 4 (4): everyone after l_j tolerates the detour.
                if delta > route.slack(j) {
                    continue;
                }
                consider(i, j, delta, &mut best);
            } else {
                // Fig. 2c: Eq. 5 row 3.
                let Some(det_i) = det_i else { break };
                // Lemma 4 (2): stops between i and j tolerate det_i.
                if det_i > route.slack(i) {
                    break; // same det_i for every j; none can pass
                }
                let dis_j_dr = oracle.dis(route.vertex(j), r.destination);
                let det_j = if j == n {
                    dis_j_dr
                } else {
                    let dis_dr_next = oracle.dis(r.destination, route.vertex(j + 1));
                    cost_add(dis_j_dr, dis_dr_next).saturating_sub(route.leg(j + 1))
                };
                let delta = cost_add(det_i, det_j);
                // Lemma 4 (3) for i < j.
                if cost_add3(route.arr(j), det_i, dis_j_dr) > r.deadline {
                    continue;
                }
                // Lemma 4 (4).
                if delta > route.slack(j) {
                    continue;
                }
                consider(i, j, delta, &mut best);
            }
        }
    }
    best.map(|(_, i, j, delta)| plan_from_positions(route, r, i, j, delta, direct, oracle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::basic_insertion;
    use crate::types::{RequestId, Time};
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;
    use road_network::VertexId;

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

    /// Drives a route through a series of insertions with both
    /// operators in lockstep, asserting identical plans throughout.
    #[test]
    fn agrees_with_basic_on_a_scripted_scenario() {
        let oracle = line_oracle(30);
        let mut route_a = Route::new(VertexId(0), 0);
        let mut route_b = Route::new(VertexId(0), 0);
        let script = [
            (1u32, 5u32, 15u32, 100_000u64),
            (2, 6, 14, 100_000),
            (3, 1, 3, 100_000),
            (4, 20, 25, 100_000),
            (5, 7, 13, 100_000),
            (6, 2, 29, 100_000),
        ];
        for (id, o, d, ddl) in script {
            let r = request(id, o, d, ddl);
            let pa = basic_insertion(&route_a, 6, &r, &oracle);
            let pb = naive_dp_insertion(&route_b, 6, &r, &oracle);
            assert_eq!(pa, pb, "divergence at request {id}");
            if let Some(p) = pa {
                route_a.apply_insertion(&p, &r);
                route_b.apply_insertion(&naive_dp_insertion(&route_b, 6, &r, &oracle).unwrap(), &r);
                assert_eq!(route_a, route_b);
                assert!(route_a.validate(6).is_ok());
            }
        }
    }

    #[test]
    fn tight_deadlines_agree_with_basic() {
        let oracle = line_oracle(30);
        let mut route = Route::new(VertexId(0), 0);
        let r1 = request(1, 0, 10, 1_000); // zero slack
        let p = naive_dp_insertion(&route, 4, &r1, &oracle).unwrap();
        route.apply_insertion(&p, &r1);
        for (id, o, d, ddl) in [
            (2u32, 12u32, 15u32, 100_000u64),
            (3, 2, 8, 1_000), // would detour r1 → must reject
            (4, 2, 8, 100_000),
        ] {
            let r = request(id, o, d, ddl);
            assert_eq!(
                naive_dp_insertion(&route, 4, &r, &oracle),
                basic_insertion(&route, 4, &r, &oracle),
                "request {id}"
            );
        }
    }

    #[test]
    fn infeasible_cases_return_none() {
        let oracle = line_oracle(10);
        let route = Route::new(VertexId(0), 0);
        // Deadline in the past relative to the route start.
        let mut r = request(1, 2, 4, 100);
        assert!(naive_dp_insertion(&route, 4, &r, &oracle).is_none());
        // Oversized request.
        r.deadline = 100_000;
        r.capacity = 9;
        assert!(naive_dp_insertion(&route, 4, &r, &oracle).is_none());
    }
}
