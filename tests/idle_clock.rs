//! The lazy idle clock at every planner's read seam.
//!
//! An idle worker departs at `max(arr[0], now)` (DESIGN.md §1), and
//! nothing stores `now` into its route until a commit does, so a
//! planner reading the stored route would plan from the past. Here forty
//! workers park one vertex from the pickup at t = 0 and stay idle until
//! `T`; a request at `T` can be met only by a worker that departed
//! before `T`. Every planner family must decline all forty — and serve
//! the same request from the first of them once its deadline admits a
//! departure at `T`. Forty candidates overrun `pruneGreedyDP`'s first
//! chunk.

use std::sync::Arc;

use urpsm::baselines::batch::BatchPlanner;
use urpsm::baselines::kinetic::KineticPlanner;
use urpsm::baselines::tshare::TSharePlanner;
use urpsm::core::planner::{GreedyDp, Planner, PruneGreedyDp};
use urpsm::core::platform::{Outcome, PlatformState};
use urpsm::core::types::{Request, RequestId, Time, Worker, WorkerId};
use urpsm::network::geo::Point;
use urpsm::network::matrix::MatrixOracle;
use urpsm::network::{Cost, VertexId};

/// When the request arrives; the fleet has been idle since 0.
const T: Time = 10_000;
const FLEET: u32 = 40;

/// Vertices 1 m apart on a line at 1 m/s: `euc` is 100 cs per hop and
/// the road 200, so the spatial filter and the Euclidean bound admit
/// what the exact insertion then has to judge.
fn detour_line() -> Arc<MatrixOracle> {
    let n: usize = 20;
    let rows: Vec<Vec<Cost>> = (0..n)
        .map(|u| (0..n).map(|v| (u.abs_diff(v) as Cost) * 200).collect())
        .collect();
    let points = (0..n).map(|k| Point::new(k as f64, 0.0)).collect();
    Arc::new(MatrixOracle::from_matrix(&rows, points, 1.0))
}

/// The whole fleet at vertex 1 since t = 0, the clock at `T`.
fn parked() -> PlatformState {
    let fleet: Vec<Worker> = (0..FLEET)
        .map(|i| Worker {
            id: WorkerId(i),
            origin: VertexId(1),
            capacity: 4,
            class: Default::default(),
        })
        .collect();
    let mut state = PlatformState::new(detour_line(), &fleet, 10.0, 0);
    state.advance_clock(T);
    state
}

/// Pickup at vertex 2 (200 cs by road), drop at vertex 7 (`L` = 1 000):
/// departing at `T`, the delivery lands at `T + 1 200`.
fn request(deadline: Time) -> Request {
    Request {
        id: RequestId(0),
        origin: VertexId(2),
        destination: VertexId(7),
        release: T,
        deadline,
        penalty: u64::MAX / 4,
        capacity: 1,
        class: Default::default(),
    }
}

#[test]
fn every_planner_plans_an_idle_worker_from_its_departure() {
    type MakePlanner = fn() -> Box<dyn Planner>;
    let planners: [(&str, MakePlanner); 5] = [
        ("GreedyDP", || Box::new(GreedyDp::new())),
        ("pruneGreedyDP", || Box::new(PruneGreedyDp::new())),
        ("tshare", || Box::new(TSharePlanner::new())),
        ("kinetic", || Box::new(KineticPlanner::new())),
        ("batch", || Box::new(BatchPlanner::new())),
    ];
    for (name, make) in planners {
        let decide = |deadline: Time| {
            let mut state = parked();
            let mut planner = make();
            let r = request(deadline);
            let mut out: Vec<(RequestId, Outcome)> =
                planner.on_request(&mut state, &r).into_iter().collect();
            out.extend(planner.flush(&mut state));
            out
        };
        // Departing at 0 the delivery would land at 1 200: only a
        // stale clock makes this deadline look feasible.
        assert_eq!(
            decide(T + 1_150),
            [(RequestId(0), Outcome::Rejected)],
            "{name}: planned from a stale idle clock"
        );
        // The control: a deadline that admits the departure at `T`.
        assert_eq!(
            decide(T + 1_200),
            [(
                RequestId(0),
                Outcome::Assigned {
                    worker: WorkerId(0),
                    delta: 1_200
                }
            )],
            "{name}: the parked workers were never candidates"
        );
    }
}
