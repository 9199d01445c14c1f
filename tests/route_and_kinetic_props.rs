//! Deep-structure properties:
//!
//! * the `arr/slack/picked` schedule arrays of §4.3 always match an
//!   independent from-scratch recomputation, through arbitrary
//!   interleavings of insertions and stop completions;
//! * the kinetic-tree baseline finds the *optimal* stop ordering on
//!   instances small enough to verify by exhaustive permutation.

use proptest::prelude::*;
use urpsm::baselines::kinetic::{KineticConfig, KineticPlanner};
use urpsm::core::insertion::linear_dp_insertion;
use urpsm::core::planner::Planner;
use urpsm::core::platform::{Outcome, PlatformState};
use urpsm::core::route::Route;
use urpsm::core::types::{Request, RequestId, StopKind, Time, Worker, WorkerId};
use urpsm::network::matrix::MatrixOracle;
use urpsm::network::oracle::DistanceOracle;
use urpsm::network::{cost_add, Cost, VertexId, INF};

fn line_oracle(n: usize, unit: Cost) -> MatrixOracle {
    let rows: Vec<Vec<Cost>> = (0..n)
        .map(|u| (0..n).map(|v| (u.abs_diff(v) as Cost) * unit).collect())
        .collect();
    let points = (0..n)
        .map(|k| urpsm::network::geo::Point::new(k as f64, 0.0))
        .collect();
    MatrixOracle::from_matrix(&rows, points, 1_000.0)
}

fn request(id: u32, o: usize, d: usize, deadline: Time, cap: u32) -> Request {
    Request {
        class: Default::default(),
        id: RequestId(id),
        origin: VertexId(o as u32),
        destination: VertexId(d as u32),
        release: 0,
        deadline,
        penalty: 1,
        capacity: cap,
    }
}

/// Recomputes arr/picked/slack from first principles and compares.
fn check_schedule(route: &Route, oracle: &dyn DistanceOracle) {
    let n = route.len();
    // arr from legs = oracle distances.
    let mut arr = route.arr(0);
    let mut load = route.picked(0);
    for k in 1..=n {
        let d = oracle.dis(route.vertex(k - 1), route.vertex(k));
        arr = cost_add(arr, d);
        assert_eq!(route.arr(k), arr, "arr[{k}] mismatch");
        let s = route.stops().nth(k - 1).expect("stop k");
        load = match s.kind {
            StopKind::Pickup => load + s.load,
            StopKind::Delivery => load - s.load,
        };
        assert_eq!(route.picked(k), load, "picked[{k}] mismatch");
    }
    // slack from the definition (Eq. 8): min over k' > k.
    for k in 0..=n {
        let expected = (k + 1..=n)
            .map(|kk| route.ddl(kk).saturating_sub(route.arr(kk)))
            .min()
            .unwrap_or(INF);
        assert_eq!(route.slack(k), expected, "slack[{k}] mismatch");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Schedule arrays stay exact through arbitrary op sequences.
    #[test]
    fn schedule_arrays_match_first_principles(
        ops in proptest::collection::vec((0usize..60, 0usize..60, 0u8..4, 1u32..3), 1..14),
        pops in proptest::collection::vec(any::<bool>(), 14),
    ) {
        let oracle = line_oracle(60, 100);
        let mut route = Route::new(VertexId(0), 0);
        for (i, (o, d, slack_class, cap)) in ops.iter().enumerate() {
            if *o == *d { continue; }
            let direct = oracle.dis(VertexId(*o as u32), VertexId(*d as u32));
            // Mix of loose and tight deadlines.
            let deadline = route.arr(0)
                + direct
                + match slack_class {
                    0 => 200,
                    1 => 2_000,
                    2 => 20_000,
                    _ => 200_000,
                };
            let r = request(i as u32, *o, *d, deadline, *cap);
            if let Some(plan) = linear_dp_insertion(&route, 5, &r, &oracle) {
                route.apply_insertion(&plan, &r);
                check_schedule(&route, &oracle);
            }
            // Occasionally let the worker reach its next stop.
            if pops[i % pops.len()] && !route.is_empty() {
                route.pop_front_stop();
                check_schedule(&route, &oracle);
                prop_assert!(route.validate(5).is_ok());
            }
        }
    }
}

/// Exhaustive ordering search used to verify kinetic.
fn brute_force_best(
    start: VertexId,
    start_time: Time,
    onboard: u32,
    items: &[(VertexId, Time, bool, u32)], // (vertex, ddl, is_pickup, load)
    pred: &[Option<usize>],
    capacity: u32,
    oracle: &dyn DistanceOracle,
) -> Option<Cost> {
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        cur: VertexId,
        time: Time,
        onboard: u32,
        used: &mut Vec<bool>,
        items: &[(VertexId, Time, bool, u32)],
        pred: &[Option<usize>],
        capacity: u32,
        oracle: &dyn DistanceOracle,
        total: Cost,
        best: &mut Option<Cost>,
    ) {
        if used.iter().all(|&u| u) {
            *best = Some(best.map_or(total, |b: Cost| b.min(total)));
            return;
        }
        for i in 0..items.len() {
            if used[i] {
                continue;
            }
            if let Some(p) = pred[i] {
                if !used[p] {
                    continue;
                }
            }
            let (v, ddl, is_pickup, load) = items[i];
            let step = oracle.dis(cur, v);
            let t2 = time + step;
            if t2 > ddl {
                continue;
            }
            let ob2 = if is_pickup {
                onboard + load
            } else {
                onboard - load
            };
            if ob2 > capacity {
                continue;
            }
            used[i] = true;
            dfs(
                v,
                t2,
                ob2,
                used,
                items,
                pred,
                capacity,
                oracle,
                total + step,
                best,
            );
            used[i] = false;
        }
    }
    let mut best = None;
    let mut used = vec![false; items.len()];
    dfs(
        start, start_time, onboard, &mut used, items, pred, capacity, oracle, 0, &mut best,
    );
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Kinetic returns the optimal ordering (verified exhaustively on
    /// ≤ 3 committed pairs + the new request = ≤ 8 stops).
    #[test]
    fn kinetic_is_exact_on_small_instances(
        pairs in proptest::collection::vec((1usize..40, 1usize..40), 0..3),
        probe in (1usize..40, 1usize..40),
    ) {
        let oracle = std::sync::Arc::new(line_oracle(40, 100));
        let worker = Worker { id: WorkerId(0), origin: VertexId(0), capacity: 3, class: Default::default() };
        let mut state = PlatformState::new(oracle.clone(), &[worker], 10_000.0, 0);

        // Commit the existing pairs through insertion (loose deadlines).
        let mut committed = Vec::new();
        for (i, (o, d)) in pairs.iter().enumerate() {
            if o == d { continue; }
            let r = request(i as u32, *o, *d, 1_000_000, 1);
            let route = &state.agent(WorkerId(0)).route;
            if let Some(plan) = linear_dp_insertion(route, 3, &r, &*oracle) {
                state.commit(WorkerId(0), &r, &plan);
                committed.push(r);
            }
        }
        prop_assume!(probe.0 != probe.1);
        let mut probe_req = request(99, probe.0, probe.1, 1_000_000, 1);
        // A penalty high enough that the decision phase never rejects —
        // this test is about ordering optimality, not economics.
        probe_req.penalty = INF / 2;

        // Brute-force optimum over all orderings.
        let route = state.agent(WorkerId(0)).route.clone();
        let mut items: Vec<(VertexId, Time, bool, u32)> = route
            .stops()
            .map(|s| (s.vertex, s.ddl, s.kind == StopKind::Pickup, s.load))
            .collect();
        let mut pred: Vec<Option<usize>> = route
            .stops()
            .enumerate()
            .map(|(i, s)| {
                if s.kind == StopKind::Delivery {
                    route
                        .stops()
                        .take(i)
                        .position(|p| p.kind == StopKind::Pickup && p.request == s.request)
                } else {
                    None
                }
            })
            .collect();
        let direct = oracle.dis(probe_req.origin, probe_req.destination);
        items.push((probe_req.origin, probe_req.deadline - direct, true, 1));
        pred.push(None);
        items.push((probe_req.destination, probe_req.deadline, false, 1));
        pred.push(Some(items.len() - 2));
        let brute = brute_force_best(
            route.start_vertex(),
            route.start_time(),
            route.onboard(),
            &items,
            &pred,
            3,
            &*oracle,
        )
        .map(|total| total - route.remaining_distance());

        // Kinetic's answer through the planner.
        let mut kin = KineticPlanner::from_config(KineticConfig {
            alpha: 1,
            node_budget: 1_000_000,
        });
        let out = kin.on_request(&mut state, &probe_req);
        let kin_delta = match out[0].1 {
            Outcome::Assigned { delta, .. } => Some(delta),
            Outcome::Rejected => None,
        };
        prop_assert_eq!(kin_delta, brute, "kinetic must find the optimal ordering");
    }
}
