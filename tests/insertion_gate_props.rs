//! The insertion gate walks the splice.
//!
//! `Route::insertion_feasible` never copies the route: it reads stops
//! `1..=i` off the stored arrays, checks the range budget against
//! `Σleg − replaced + added`, and re-times only the spliced stops, from
//! `arr[i]` on. It must answer exactly what the obvious construction
//! answers — copy the route, `apply_insertion`, `schedule_feasible` —
//! and this suite checks that for every plan position and shape on
//! random routes, with
//!
//! * riders on board (stops popped) and a snapped, frozen head leg, so
//!   both `i = 0` (which drops the freeze) and `i ≥ 1` (which keeps it)
//!   are exercised,
//! * a capacity one below, at, and one above the load the new rider
//!   can meet,
//! * a range budget equal to one plan's post-insertion remaining
//!   distance and one below it,
//! * the baseline and a slow vehicle class,
//! * no provider, a constant 2× profile, and the time-dependent oracle
//!   on a grid whose centre jams in 20 s buckets, so most legs straddle
//!   a multiplier change.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use urpsm::core::insertion::linear_dp_insertion;
use urpsm::core::route::{InsertionPlan, PlanShape, Route};
use urpsm::core::types::{Request, RequestId, Time, SPEED_BASELINE_PM};
use urpsm::network::congestion::{CongestionProfile, TravelTimeProvider};
use urpsm::network::hub_labels::HubLabels;
use urpsm::network::oracle::{DistanceOracle, HubLabelOracle};
use urpsm::network::td::TdTravelTimeProvider;
use urpsm::network::{Cost, VertexId};
use urpsm::workloads::network_gen::grid_city;

const SIDE: usize = 6;
const VERTICES: usize = SIDE * SIDE;
/// Bucket length of the jam profile: shorter than most legs.
const BUCKET_CS: u64 = 2_000;

struct City {
    oracle: HubLabelOracle,
    constant_x2: Arc<dyn TravelTimeProvider>,
    td_jam: Arc<dyn TravelTimeProvider>,
}

/// A 6 × 6 grid (150 m blocks), its hub labels, and the two providers.
fn city() -> &'static City {
    static CITY: OnceLock<City> = OnceLock::new();
    CITY.get_or_init(|| {
        let g = Arc::new(grid_city(SIDE, SIDE, 150.0, 3));
        let points: Vec<_> = (0..VERTICES).map(|v| g.point(VertexId(v as u32))).collect();
        let regions = CongestionProfile::regionize(&points, 3, 3);
        // The centre cell cycles through heavy jams, the rest through
        // mild ones; every region changes multiplier each bucket.
        let tables: Vec<Vec<u32>> = (0..9)
            .map(|region| {
                if region == 4 {
                    vec![1000, 3000, 1500, 4000]
                } else {
                    vec![1000, 1200, 1000, 1500]
                }
            })
            .collect();
        let jam = Arc::new(
            CongestionProfile::per_region("centre-jam", BUCKET_CS, tables, regions)
                .expect("well-formed profile"),
        );
        let labels = Arc::new(HubLabels::build(&g));
        City {
            oracle: HubLabelOracle::build(g.clone()),
            constant_x2: Arc::new(CongestionProfile::constant("x2", 2.0).expect("valid")),
            td_jam: Arc::new(TdTravelTimeProvider::new(g, jam, Some(labels))),
        }
    })
}

fn request(id: u32, o: usize, d: usize, deadline: Time, load: u32) -> Request {
    Request {
        class: Default::default(),
        id: RequestId(id),
        origin: VertexId(o as u32),
        destination: VertexId(d as u32),
        release: 0,
        deadline,
        penalty: 1,
        capacity: load,
    }
}

/// A deadline `slack` classes after `start + L`, from tight to roomy.
fn deadline(start: Time, direct: Cost, slack: u8) -> Time {
    start
        + direct
        + match slack {
            0 => direct + 1_500,
            1 => 3 * direct + 8_000,
            _ => 1_000_000,
        }
}

/// How to build one random route.
#[derive(Debug, Clone)]
struct Case {
    start_vertex: usize,
    start: Time,
    trips: Vec<(usize, usize, u8, u32)>,
    pops: usize,
    /// Snap onto the head leg at `k/4` of the way, onto this vertex.
    snap: Option<(u64, usize)>,
    provider: u8,
    slow: bool,
}

fn build(case: &Case, range: Option<Cost>) -> Route {
    let c = city();
    let mut route = Route::new(VertexId(case.start_vertex as u32), case.start);
    route.set_congestion(match case.provider {
        0 => None,
        1 => Some(c.constant_x2.clone()),
        _ => Some(c.td_jam.clone()),
    });
    let speed = if case.slow { 1_300 } else { SPEED_BASELINE_PM };
    route.set_class_profile(speed, range);
    for (id, &(o, d, slack, load)) in case.trips.iter().enumerate() {
        if o == d {
            continue;
        }
        let direct = c.oracle.dis(VertexId(o as u32), VertexId(d as u32));
        let r = request(id as u32, o, d, deadline(case.start, direct, slack), load);
        if let Some(plan) = linear_dp_insertion(&route, 8, &r, &c.oracle) {
            route.apply_insertion(&plan, &r);
        }
    }
    for _ in 0..case.pops {
        if !route.is_empty() {
            route.pop_front_stop();
        }
    }
    if let Some((k, v)) = case.snap {
        if !route.is_empty() {
            let (a0, a1) = (route.arr(0), route.arr(1));
            let remaining = route.leg(1) * (4 - k) / 4;
            route.snap_on_leg(VertexId(v as u32), a0 + (a1 - a0) * k / 4, remaining);
        }
    }
    route
}

/// Every plan for `r` on `route`: each `0 ≤ i ≤ j ≤ n`, with the shape
/// those positions imply and legs from the oracle.
fn every_plan(route: &Route, r: &Request, oracle: &dyn DistanceOracle) -> Vec<InsertionPlan> {
    let n = route.len();
    let dis = |a: VertexId, b: VertexId| oracle.dis(a, b);
    let direct = dis(r.origin, r.destination);
    let mut plans = Vec::new();
    for i in 0..=n {
        for j in i..=n {
            let shape = if i == n {
                PlanShape::Append {
                    dis_tail_pickup: dis(route.vertex(n), r.origin),
                }
            } else if i == j {
                PlanShape::Adjacent {
                    dis_prev_pickup: dis(route.vertex(i), r.origin),
                    dis_delivery_next: dis(r.destination, route.vertex(i + 1)),
                }
            } else {
                PlanShape::Split {
                    dis_prev_pickup: dis(route.vertex(i), r.origin),
                    dis_pickup_next: dis(r.origin, route.vertex(i + 1)),
                    dis_prev_delivery: dis(route.vertex(j), r.destination),
                    dis_delivery_next: (j < n).then(|| dis(r.destination, route.vertex(j + 1))),
                }
            };
            plans.push(InsertionPlan {
                pickup_after: i,
                delivery_after: j,
                delta: 0,
                direct,
                shape,
            });
        }
    }
    plans
}

/// The obvious construction the walk must agree with.
fn spliced(route: &Route, plan: &InsertionPlan, r: &Request) -> Route {
    let mut copy = route.clone();
    copy.apply_insertion(plan, r);
    copy
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (0..VERTICES, 0u64..4 * BUCKET_CS),
        proptest::collection::vec((0..VERTICES, 0..VERTICES, 0u8..3, 1u32..3), 1..6),
        0usize..3,
        // `k = 0`: no snap.
        (0u64..4, 0..VERTICES),
        0u8..3,
        any::<bool>(),
    )
        .prop_map(
            |((start_vertex, start), trips, pops, (k, v), provider, slow)| Case {
                start_vertex,
                start,
                trips,
                pops,
                snap: (k > 0).then_some((k, v)),
                provider,
                slow,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn the_splice_walk_equals_clone_apply_check(
        case in case_strategy(),
        (o, d, slack, load) in (0..VERTICES, 0..VERTICES, 0u8..3, 1u32..3),
        cap_offset in 0u32..3,
        // 0: no range; 1: at one plan's boundary; 2: one below it.
        (boundary, pick) in (0u8..3, any::<usize>()),
    ) {
        prop_assume!(o != d);
        let c = city();
        let direct = c.oracle.dis(VertexId(o as u32), VertexId(d as u32));
        let r = request(99, o, d, deadline(case.start, direct, slack), load);

        let unbounded = build(&case, None);
        let plans = every_plan(&unbounded, &r, &c.oracle);
        // A range budget exactly at one plan's post-insertion remaining
        // distance, or one below it.
        let (route, boundary_plan) = match boundary {
            0 => (unbounded, None),
            _ => {
                let (plan, at) = (plans[pick % plans.len()], boundary == 1);
                let post = spliced(&unbounded, &plan, &r).remaining_distance();
                let range = if at { post } else { post - 1 };
                (build(&case, Some(range)), Some((plan, at)))
            }
        };
        // The load the new rider meets at the route's fullest point.
        let fullest = (0..=route.len()).map(|k| route.picked(k)).max().expect("l_0") + load;
        let capacity = (fullest + cap_offset).saturating_sub(1);

        for plan in &plans {
            let reference = spliced(&route, plan, &r).schedule_feasible(capacity);
            prop_assert_eq!(
                route.insertion_feasible(plan, &r, capacity),
                reference,
                "{:?} on {:?} at capacity {}", plan, route, capacity
            );
        }
        if let Some((plan, at)) = boundary_plan {
            let post = spliced(&route, &plan, &r).remaining_distance();
            prop_assert_eq!(post, route.range().expect("set") + u64::from(!at));
            if !at {
                prop_assert!(!route.insertion_feasible(&plan, &r, capacity));
            }
        }
    }
}

/// The boundaries by construction: at capacity passes and one rider
/// over fails; a remaining distance equal to the range passes and one
/// over fails — under the stretching providers too.
#[test]
fn the_gate_holds_at_its_boundaries() {
    let c = city();
    for provider in 0..3 {
        let case = Case {
            start_vertex: 0,
            start: BUCKET_CS / 2,
            trips: vec![(7, 28, 2, 2), (14, 33, 2, 1)],
            pops: 1,
            snap: Some((2, 1)),
            provider,
            slow: provider == 1,
        };
        let route = build(&case, None);
        assert!(route.onboard() > 0 && route.len() >= 2, "{route:?}");
        let r = request(99, 20, 22, 1_000_000, 2);
        for plan in every_plan(&route, &r, &c.oracle) {
            let post = spliced(&route, &plan, &r);
            let fullest = (0..=post.len()).map(|k| post.picked(k)).max().expect("l_0");
            assert!(route.insertion_feasible(&plan, &r, fullest), "{plan:?}");
            assert!(
                !route.insertion_feasible(&plan, &r, fullest - 1),
                "{plan:?}"
            );

            let remaining = post.remaining_distance();
            let at = build(&case, Some(remaining));
            assert!(at.insertion_feasible(&plan, &r, 8), "{plan:?}");
            let over = build(&case, Some(remaining - 1));
            assert!(!over.insertion_feasible(&plan, &r, 8), "{plan:?}");
        }
    }
}
