//! `PlanScratch` reuse must be invisible: a planner that carries its
//! arenas (SoA shortlist, DP columns, re-timed spare route) across
//! requests has to produce *exactly* the decisions of a planner built
//! fresh — cold scratch — for every single request. Any residue leaking
//! out of a `clear()`-reused buffer (a stale shortlist entry, a spare
//! route keeping old stops, a DP column with yesterday's distances)
//! shows up here as a diverging outcome stream.
//!
//! The same property is checked under a congestion profile, where the
//! insertion gate (`Route::insertion_feasible`) runs on the candidate's
//! route — a `clone_from`-ed spare for an idle candidate — and the
//! kinetic planner's probe route is `clone_from`-ed per candidate.

use std::sync::Arc;

use urpsm::baselines::kinetic::{KineticConfig, KineticPlanner};
use urpsm::baselines::tshare::{SearchMode, TShareConfig, TSharePlanner};
use urpsm::core::planner::{GreedyDp, Planner, PruneGreedyDp};
use urpsm::core::platform::{Outcome, PlatformState};
use urpsm::core::types::{Request, RequestId, Time, Worker, WorkerId};
use urpsm::network::congestion::CongestionProfile;
use urpsm::network::matrix::MatrixOracle;
use urpsm::network::{Cost, VertexId};

const VERTICES: usize = 200;
const WORKERS: u32 = 24;

fn line_oracle() -> Arc<MatrixOracle> {
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
}

fn fresh_state(oracle: Arc<MatrixOracle>, congested: bool) -> PlatformState {
    let workers: Vec<Worker> = (0..WORKERS)
        .map(|i| Worker {
            class: Default::default(),
            id: WorkerId(i),
            origin: VertexId(i * (VERTICES as u32 / WORKERS)),
            capacity: 4,
        })
        .collect();
    let mut state = PlatformState::new(oracle, &workers, 20.0, 0);
    if congested {
        state.set_congestion(Some(Arc::new(
            CongestionProfile::constant("x2", 2.0).expect("valid multiplier"),
        )));
    }
    state
}

/// A deterministic mixed stream: most requests insertable, some with
/// deadlines tight enough to reject, some with penalties cheap enough
/// for the economic gate — so reuse is tested across *every* decision
/// path, not just the happy one.
fn stream(n: u32) -> Vec<Request> {
    let mut seed = 0x2545_f491u64;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    (0..n)
        .map(|i| {
            let o = (rng() % (VERTICES as u64 - 20)) as u32;
            let d = o + 1 + (rng() % 19) as u32;
            let (deadline, penalty): (Time, u64) = match rng() % 4 {
                0 => (3_000 + (rng() % 5_000), u64::MAX / 4), // tight-ish
                1 => (1_000_000, 2_000),                      // cheap penalty
                _ => (1_000_000, u64::MAX / 4),               // roomy
            };
            Request {
                class: Default::default(),
                id: RequestId(i),
                origin: VertexId(o),
                destination: VertexId(d),
                release: 0,
                deadline,
                penalty,
                capacity: 1 + (i % 2),
            }
        })
        .collect()
}

/// Drives `requests` through planners from `make`, either one
/// persistent instance (scratch reused across the whole stream) or a
/// fresh instance per request (scratch always cold), with periodic
/// stop completions so routes shrink as well as grow.
fn run(
    mut make: impl FnMut() -> Box<dyn Planner>,
    persistent: bool,
    congested: bool,
    requests: &[Request],
) -> (Vec<(RequestId, Outcome)>, Cost) {
    let mut state = fresh_state(line_oracle(), congested);
    let mut planner = make();
    let mut outs = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        if !persistent {
            planner = make();
        }
        outs.extend(planner.on_request(&mut state, r));
        // Every few requests a worker reaches a stop: steady state is
        // grow *and* shrink, so cleared buffers see shorter routes
        // after longer ones — the classic leak scenario.
        if i % 3 == 0 {
            let w = WorkerId((i as u32 / 3) % WORKERS);
            if !state.agent(w).route.is_empty() {
                state.pop_worker_stop(w);
            }
        }
    }
    outs.extend(planner.flush(&mut state));
    (outs, state.total_assigned_distance())
}

fn assert_reuse_invisible(name: &str, congested: bool, make: impl Fn() -> Box<dyn Planner>) {
    let requests = stream(160);
    let (warm, warm_dist) = run(&make, true, congested, &requests);
    let (cold, cold_dist) = run(&make, false, congested, &requests);
    // Decisions flowed: the comparison is vacuous otherwise.
    let assigned = warm
        .iter()
        .filter(|(_, o)| matches!(o, Outcome::Assigned { .. }))
        .count();
    let rejected = warm.len() - assigned;
    assert!(assigned > 0, "{name}: no assignments in the stream");
    assert!(rejected > 0, "{name}: no rejections in the stream");
    assert_eq!(
        warm, cold,
        "{name} (congested={congested}): scratch reuse changed a decision"
    );
    assert_eq!(warm_dist, cold_dist, "{name}: assigned distance diverged");
}

#[test]
fn greedy_scratch_reuse_is_invisible() {
    for congested in [false, true] {
        assert_reuse_invisible("GreedyDP", congested, || Box::new(GreedyDp::new()));
    }
}

#[test]
fn prune_greedy_scratch_reuse_is_invisible() {
    for congested in [false, true] {
        assert_reuse_invisible(
            "pruneGreedyDP",
            congested,
            || Box::new(PruneGreedyDp::new()),
        );
    }
}

#[test]
fn prune_greedy_parallel_scratch_reuse_is_invisible() {
    // The width knob is a no-op: the planner it builds keeps the one
    // shortlist and the one probe arena, residue-free like any other.
    for congested in [false, true] {
        assert_reuse_invisible("pruneGreedyDP(t=4)", congested, || {
            Box::new(PruneGreedyDp::with_threads(4))
        });
    }
}

#[test]
fn kinetic_scratch_reuse_is_invisible() {
    // The kinetic baseline carries eleven persistent buffers (items,
    // DP table, DFS stacks, seed/probe routes, best/eval tails).
    for congested in [false, true] {
        assert_reuse_invisible("kinetic", congested, || {
            Box::new(KineticPlanner::from_config(KineticConfig {
                alpha: 1,
                node_budget: 50_000,
            }))
        });
    }
}

#[test]
fn tshare_probe_reuse_is_invisible() {
    // T-Share carries its sorted cell order and its re-timed spare
    // route across requests; a fresh planner per request rebuilds both
    // from the same platform state, so no decision may move.
    let requests = stream(160);
    let make = || -> Box<dyn Planner> {
        Box::new(TSharePlanner::from_config(TShareConfig {
            search: SearchMode::SingleSide,
        }))
    };
    for congested in [false, true] {
        let run_flat = |persistent: bool| {
            let mut state = fresh_state(line_oracle(), congested);
            let mut planner = make();
            let mut outs = Vec::new();
            for r in &requests {
                if !persistent {
                    planner = make();
                }
                outs.extend(planner.on_request(&mut state, r));
            }
            outs
        };
        assert_eq!(
            run_flat(true),
            run_flat(false),
            "tshare (congested={congested}): probe reuse changed a decision"
        );
    }
}
