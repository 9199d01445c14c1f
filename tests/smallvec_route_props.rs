//! The inline-capacity storage swap must be invisible.
//!
//! `Route` keeps its locations — each stop with its schedule entries —
//! in one vendored inline-capacity `SmallVec` (the motion plane's leg
//! paths sit on it too): routes of ≤ 8 stops — the steady-state common
//! case — never touch the heap, longer routes spill and keep working.
//! Two property suites pin the swap down:
//!
//! * a **differential** suite driving `SmallVec<u32, 4>` and `Vec<u32>`
//!   through the same operation sequences, crossing the inline→spill
//!   boundary in both directions — every observation must match;
//! * a **route-model** suite driving `Route` through
//!   insert/remove/pop/snap/replace-tail sequences deep past the
//!   8-stop inline capacity while checking the stop sequence against a
//!   plain-`Vec` shadow model and the schedule against a
//!   first-principles recomputation. The same suite pins that `arr[0]`
//!   is the route's one start time: after every mutator
//!   `start_time() == arr(0)`, and a route that became empty — by pop or
//!   by cancellation after a snap — is indistinguishable from a freshly
//!   built one (no leftover head freeze, only the location `l_0`).

use proptest::prelude::*;
use smallvec::SmallVec;
use urpsm::core::insertion::linear_dp_insertion;
use urpsm::core::route::Route;
use urpsm::core::types::{Request, RequestId, Stop, StopKind, Time, SPEED_BASELINE_PM};
use urpsm::network::congestion::CongestionProfile;
use urpsm::network::matrix::MatrixOracle;
use urpsm::network::oracle::DistanceOracle;
use urpsm::network::{cost_add, Cost, VertexId, INF};

// ---------------------------------------------------------------------
// Differential: SmallVec<u32, 4> vs Vec<u32>.
// ---------------------------------------------------------------------

/// One storage operation, encoded for proptest generation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u32),
    Pop,
    Insert(usize, u32),
    Remove(usize),
    Truncate(usize),
    Clear,
    ExtendFromSlice(u32, usize),
    Resize(usize, u32),
    InsertFromSlice(usize, u32, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u32>().prop_map(Op::Push),
        Just(Op::Pop),
        (0usize..16, any::<u32>()).prop_map(|(i, v)| Op::Insert(i, v)),
        (0usize..16).prop_map(Op::Remove),
        (0usize..16).prop_map(Op::Truncate),
        Just(Op::Clear),
        (any::<u32>(), 0usize..6).prop_map(|(v, n)| Op::ExtendFromSlice(v, n)),
        (0usize..12, any::<u32>()).prop_map(|(n, v)| Op::Resize(n, v)),
        (0usize..16, any::<u32>(), 0usize..6).prop_map(|(i, v, n)| Op::InsertFromSlice(i, v, n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every observation of the shim matches `Vec` through arbitrary
    /// op sequences that spill and un-spill.
    #[test]
    fn smallvec_matches_vec(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let mut sv: SmallVec<u32, 4> = SmallVec::new();
        let mut model: Vec<u32> = Vec::new();
        for op in ops {
            match op {
                Op::Push(v) => {
                    sv.push(v);
                    model.push(v);
                }
                Op::Pop => prop_assert_eq!(sv.pop(), model.pop()),
                Op::Insert(i, v) => {
                    let i = i % (model.len() + 1);
                    sv.insert(i, v);
                    model.insert(i, v);
                }
                Op::Remove(i) => {
                    if !model.is_empty() {
                        let i = i % model.len();
                        prop_assert_eq!(sv.remove(i), model.remove(i));
                    }
                }
                Op::Truncate(n) => {
                    sv.truncate(n);
                    model.truncate(n);
                }
                Op::Clear => {
                    sv.clear();
                    model.clear();
                }
                Op::ExtendFromSlice(v, n) => {
                    let chunk: Vec<u32> = (0..n as u32).map(|k| v.wrapping_add(k)).collect();
                    sv.extend_from_slice(&chunk);
                    model.extend_from_slice(&chunk);
                }
                Op::Resize(n, v) => {
                    sv.resize(n, v);
                    model.resize(n, v);
                }
                Op::InsertFromSlice(i, v, n) => {
                    let i = i % (model.len() + 1);
                    let chunk: Vec<u32> = (0..n as u32).map(|k| v.wrapping_add(k)).collect();
                    sv.insert_from_slice(i, &chunk);
                    model.splice(i..i, chunk.iter().copied());
                }
            }
            prop_assert_eq!(sv.as_slice(), model.as_slice());
            prop_assert_eq!(sv.len(), model.len());
            prop_assert_eq!(sv.is_empty(), model.is_empty());
            // The inline representation really is used while it fits.
            if !sv.spilled() {
                prop_assert!(sv.len() <= 4);
            }
        }
        prop_assert_eq!(sv.to_vec(), model.clone());
        // Round-trip through `clone_from` (the probe-route path).
        let mut dst: SmallVec<u32, 4> = SmallVec::from_slice(&[7; 9]);
        dst.clone_from(&sv);
        prop_assert_eq!(dst.as_slice(), model.as_slice());
    }
}

// ---------------------------------------------------------------------
// Route model: inline-array routes behave identically past the spill
// boundary, checked against a plain-Vec shadow of the stop sequence
// and a from-scratch schedule recomputation.
// ---------------------------------------------------------------------

fn line_oracle(n: usize) -> MatrixOracle {
    let rows: Vec<Vec<Cost>> = (0..n)
        .map(|u| (0..n).map(|v| (u.abs_diff(v) as Cost) * 100).collect())
        .collect();
    let points = (0..n)
        .map(|k| urpsm::network::geo::Point::new(k as f64, 0.0))
        .collect();
    MatrixOracle::from_matrix(&rows, points, 1_000.0)
}

fn request(id: u32, o: usize, d: usize, deadline: Time) -> Request {
    Request {
        class: Default::default(),
        id: RequestId(id),
        origin: VertexId(o as u32),
        destination: VertexId(d as u32),
        release: 0,
        deadline,
        penalty: 1,
        capacity: 1,
    }
}

/// The stops `apply_insertion` creates (Eq. 6 deadlines).
fn pickup_stop(r: &Request, direct: Cost) -> Stop {
    Stop {
        request: r.id,
        vertex: r.origin,
        kind: StopKind::Pickup,
        load: r.capacity,
        ddl: r.pickup_deadline(direct),
    }
}

fn delivery_stop(r: &Request) -> Stop {
    Stop {
        request: r.id,
        vertex: r.destination,
        kind: StopKind::Delivery,
        load: r.capacity,
        ddl: r.deadline,
    }
}

/// Checks the route against the shadow stop list and recomputes the
/// arrival schedule from the oracle.
fn check_against_shadow(route: &Route, shadow: &[Stop], oracle: &dyn DistanceOracle) {
    assert_eq!(route.len(), shadow.len());
    assert_eq!(route.stops().copied().collect::<Vec<_>>(), shadow);
    assert!(route.validate(8).is_ok());
    // One start time: the accessor and the schedule array agree.
    assert_eq!(route.start_time(), route.arr(0));
    if route.is_empty() {
        // Nothing but the start state survives: `==` covers the head
        // freeze and the array lengths, which have no accessor.
        assert_eq!(route.onboard(), 0, "an empty route carries nobody");
        assert_eq!(route.slack(0), INF);
        assert_eq!(route.picked(0), route.onboard());
        assert_eq!(
            route,
            &Route::new(route.start_vertex(), route.start_time()),
            "an emptied route equals a fresh one"
        );
    }
    // `vertices()` (the borrowing iterator) agrees with the stop list.
    let verts: Vec<VertexId> = route.vertices().collect();
    assert_eq!(verts[0], route.start_vertex());
    for (k, s) in shadow.iter().enumerate() {
        assert_eq!(verts[k + 1], s.vertex);
    }
    // Arrival times from first principles.
    let mut arr = route.arr(0);
    let mut prev = route.start_vertex();
    for (k, s) in shadow.iter().enumerate() {
        arr = cost_add(arr, oracle.dis(prev, s.vertex));
        assert_eq!(route.arr(k + 1), arr, "arr[{}] mismatch", k + 1);
        prev = s.vertex;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Sequences of every mutator — `apply_insertion`,
    /// `pop_front_stop`, `remove_request`, `replace_tail`,
    /// `snap_on_leg`, `set_start`, `set_start_time`, `set_congestion`,
    /// `set_class_profile`, `clone_from` — deep past the 8-stop inline
    /// capacity keep `Route` exactly equal to its shadow.
    #[test]
    fn route_matches_shadow_across_spill(
        pairs in proptest::collection::vec((1usize..50, 1usize..50), 1..10),
        actions in proptest::collection::vec(0u8..9, 10),
    ) {
        let oracle = line_oracle(50);
        let mut route = Route::new(VertexId(0), 0);
        let mut shadow: Vec<Stop> = Vec::new();
        let mut spilled_once = false;
        for (i, (o, d)) in pairs.iter().enumerate() {
            if o == d { continue; }
            let r = request(i as u32, *o, *d, 1_000_000);
            if let Some(plan) = linear_dp_insertion(&route, 8, &r, &oracle) {
                // Mirror the splice on the shadow before applying:
                // `o_r` right after `l_i`, `d_r` right after `l_j` in
                // the original indexing (`i = j` ⇒ back to back).
                shadow.insert(plan.pickup_after, pickup_stop(&r, plan.direct));
                shadow.insert(plan.delivery_after + 1, delivery_stop(&r));
                route.apply_insertion(&plan, &r);
                check_against_shadow(&route, &shadow, &oracle);
            }
            match actions[i % actions.len()] {
                // Let the worker reach its next stop.
                0 if !route.is_empty() => {
                    let (stop, _) = route.pop_front_stop();
                    assert_eq!(stop, shadow.remove(0));
                    check_against_shadow(&route, &shadow, &oracle);
                }
                // Cancel the most recent still-pending request (the
                // route refuses if its pickup already happened).
                1 => {
                    if let Some(last) = shadow.last().map(|s| s.request) {
                        if route.remove_request(last, |a, b| oracle.dis(a, b)).is_some() {
                            shadow.retain(|s| s.request != last);
                        }
                        check_against_shadow(&route, &shadow, &oracle);
                    }
                }
                // Identity tail replacement: exercises the
                // truncate+extend storage path without changing the
                // schedule (legs re-derived from the oracle).
                2 if !route.is_empty() => {
                    let stops: Vec<Stop> = shadow.clone();
                    let mut legs: Vec<Cost> = Vec::new();
                    let mut prev = route.start_vertex();
                    for s in &stops {
                        legs.push(oracle.dis(prev, s.vertex));
                        prev = s.vertex;
                    }
                    route.replace_tail(&stops, &legs);
                    check_against_shadow(&route, &shadow, &oracle);
                }
                // Snap the worker onto the midpoint of its first leg
                // (the motion plane's mid-leg re-anchoring).
                3 if !route.is_empty() => {
                    let (a, b) = (route.start_vertex().0, shadow[0].vertex.0);
                    let v = VertexId(a.min(b) + a.abs_diff(b) / 2);
                    let remaining = oracle.dis(v, shadow[0].vertex);
                    let time = route.arr(1) - remaining;
                    route.snap_on_leg(v, time, remaining);
                    check_against_shadow(&route, &shadow, &oracle);
                }
                // Teleport one vertex over, a little later (drops any
                // snap freeze and re-times from the new start).
                4 => {
                    let v = VertexId((route.start_vertex().0 + 1) % 50);
                    let first_leg = shadow.first().map(|s| oracle.dis(v, s.vertex));
                    route.set_start(v, route.start_time() + 7, first_leg);
                    check_against_shadow(&route, &shadow, &oracle);
                }
                // Park-and-wait re-time (the idle clock on an empty
                // route, a full rebuild on a busy one).
                5 => {
                    let t = route.start_time() + 13;
                    route.set_start_time(t);
                    assert_eq!(route.arr(0), t);
                    check_against_shadow(&route, &shadow, &oracle);
                }
                // A flat profile, then none: both are the identity on
                // the schedule and both rebuild it.
                6 => {
                    route.set_congestion(Some(std::sync::Arc::new(CongestionProfile::flat())));
                    check_against_shadow(&route, &shadow, &oracle);
                    route.set_congestion(None);
                    check_against_shadow(&route, &shadow, &oracle);
                }
                // The baseline class profile: identity, rebuilt.
                7 => {
                    route.set_class_profile(SPEED_BASELINE_PM, None);
                    check_against_shadow(&route, &shadow, &oracle);
                }
                // Continue on a `clone_from` copy made over a dirty
                // destination (the planners' probe-route path).
                8 => {
                    let mut copy = Route::new(VertexId(49), 999);
                    copy.set_start_time(1_234);
                    copy.clone_from(&route);
                    assert_eq!(copy, route);
                    route = copy;
                    check_against_shadow(&route, &shadow, &oracle);
                }
                _ => {}
            }
            spilled_once |= route.len() > 8;
        }
        // Keep the generator honest: most cases must actually cross
        // the inline boundary at some point (10 pairs = 20 stops), and
        // shrinkage back below it must also have been exercised by the
        // pop/remove actions above. We can't assert per-case, but the
        // deterministic test below pins the boundary crossing exactly.
        let _ = spilled_once;
    }
}

/// Deterministic inline→spill→inline round trip with full checks at
/// every step (the proptest above crosses the boundary statistically;
/// this one does it by construction).
#[test]
fn route_spills_and_returns_inline_without_observable_change() {
    let oracle = line_oracle(64);
    let mut route = Route::new(VertexId(0), 0);
    let mut shadow: Vec<Stop> = Vec::new();
    // 6 nested requests = 12 stops: well past the 8-stop inline cap.
    for i in 0..6u32 {
        let o = 2 + (i as usize) * 3;
        let r = request(i, o, o + 20, 1_000_000);
        let plan = linear_dp_insertion(&route, 8, &r, &oracle).expect("roomy deadline");
        shadow.insert(plan.pickup_after, pickup_stop(&r, plan.direct));
        shadow.insert(plan.delivery_after + 1, delivery_stop(&r));
        route.apply_insertion(&plan, &r);
        check_against_shadow(&route, &shadow, &oracle);
    }
    assert!(route.len() > 8, "must have crossed the inline boundary");
    // Drain back to empty: the spilled representation keeps behaving
    // exactly like the shadow as the route shrinks through 8 again.
    while !route.is_empty() {
        let (stop, _) = route.pop_front_stop();
        assert_eq!(stop, shadow.remove(0));
        check_against_shadow(&route, &shadow, &oracle);
    }
    // And an emptied route accepts fresh work as if newly built.
    let r = request(99, 5, 9, 1_000_000);
    let plan = linear_dp_insertion(&route, 8, &r, &oracle).expect("empty route accepts");
    route.apply_insertion(&plan, &r);
    assert_eq!(route.len(), 2);
    assert!(route.validate(8).is_ok());
}
