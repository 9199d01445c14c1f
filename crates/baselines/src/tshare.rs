//! The T-Share baseline (Ma, Zheng, Wolfson — ICDE'13).
//!
//! T-Share indexes the city with a grid whose cells each hold a list of
//! *all other cells sorted by distance* (the paper's memory-hungry
//! structure — §6.2 measures it at up to 9.4 GB… well, 9389 MB — vs
//! sub-MB for everyone else). A new request searches cells outward from
//! its pickup cell until the cell-center travel-time estimate exceeds
//! the pickup budget, shortlists the workers found there, and places
//! the request with basic `O(n³)` insertion.
//!
//! The sorted cell order is T-Share's own, but its cells are those of
//! the platform's one worker grid (the platform's `g`), and the workers
//! it finds are read from that grid, which every planner shares.
//!
//! The search estimates reachability with the *average urban driving
//! speed* ([`AVG_SPEED_MPS`]) over straight-line cell distances. That
//! estimate is not a lower bound — workers reachable via fast roads get
//! discarded, which is exactly the behaviour the URPSM paper reports:
//! "its searching process mistakenly removes many possible workers,
//! which leads to the lowest served rate (from 1% to 16%)" while also
//! making it the fastest algorithm.

use urpsm_core::insertion::basic_insertion;
use urpsm_core::planner::{reply_one, Planner, PlannerReplies};
use urpsm_core::platform::{Outcome, PlatformState};
use urpsm_core::route::{InsertionPlan, Route};
use urpsm_core::types::{Request, WorkerId};

use road_network::grid::SortedCellTable;
use road_network::{Cost, INF};

/// The average urban driving speed (m/s) T-Share's cell reachability
/// estimate assumes: about 29 km/h. T-Share plans with expected urban
/// speeds, not the network's top speed — the source of its false
/// negatives, since a worker on fast roads covers more than this.
pub const AVG_SPEED_MPS: f64 = 8.0;

/// T-Share's two candidate-search strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchMode {
    /// Lazy single-side search around the pickup cell only (the mode
    /// the URPSM paper's numbers reflect).
    #[default]
    SingleSide,
    /// Dual-side: also search around the drop-off cell and take the
    /// union — T-Share's refinement for finding taxis that pass the
    /// destination. Slightly better served rate, more search work.
    DualSide,
}

/// Configuration of the T-Share baseline. Its cell size is the
/// platform's grid size `g`, its speed estimate [`AVG_SPEED_MPS`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TShareConfig {
    /// Single- or dual-side candidate search.
    pub search: SearchMode,
}

/// The T-Share planner.
#[derive(Debug, Default)]
pub struct TSharePlanner {
    cfg: TShareConfig,
    /// The sorted cell order over the platform grid's cells, built on
    /// the first request and rebuilt only if the cell count differs.
    cells: SortedCellTable,
    candidates: Vec<u64>,
    dual_scratch: Vec<u64>,
    /// The spare an idle candidate's route is re-timed into
    /// (`PlatformState::candidate`).
    retimed: Route,
}

impl TSharePlanner {
    /// Planner with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Planner with an explicit configuration.
    pub fn from_config(cfg: TShareConfig) -> Self {
        TSharePlanner {
            cfg,
            ..Self::default()
        }
    }

    /// Memory footprint of T-Share's index over `state` (Fig. 5 memory
    /// panel): the platform's worker grid plus the sorted cell order
    /// over its cells.
    pub fn index_mem_bytes(state: &PlatformState) -> usize {
        let grid = state.grid();
        grid.mem_bytes() + SortedCellTable::mem_bytes(grid.num_cells())
    }

    /// T-Share's candidate search into `self.candidates`, in id order.
    /// `direct` is `L = dis(o_r, d_r)`.
    fn search(&mut self, state: &PlatformState, r: &Request, direct: Cost) {
        let grid = state.grid();
        if self.cells.num_cells() != grid.num_cells() {
            self.cells = SortedCellTable::new(grid);
        }
        // Single-side search: walk cells outward until the center
        // distance is no longer reachable within the pickup budget at
        // the assumed average speed.
        let oracle = state.oracle();
        let pickup_budget_cs = r
            .deadline
            .saturating_sub(direct)
            .saturating_sub(state.now());
        let reach_m = (pickup_budget_cs as f64 / 100.0) * AVG_SPEED_MPS;
        let origin_pt = oracle.point(r.origin);
        // Lazy single-side search: only the first non-empty ring of
        // cells is considered (T-Share's candidate search), so a busy
        // nearby worker shadows feasible farther ones.
        self.cells
            .items_in_first_hit(grid, origin_pt, reach_m, &mut self.candidates);
        if self.cfg.search == SearchMode::DualSide {
            // Dual-side refinement: also consider workers near the
            // drop-off (they may collect the rider on their way out).
            let dest_pt = oracle.point(r.destination);
            self.cells
                .items_in_first_hit(grid, dest_pt, reach_m, &mut self.dual_scratch);
            self.candidates.extend_from_slice(&self.dual_scratch);
        }
        self.candidates.sort_unstable();
        self.candidates.dedup();
        // T-Share builds its own spatial shortlist, so the class half
        // of the platform's eligibility seam is applied explicitly —
        // the same filter `candidate_workers` fuses into its grid scan.
        state.retain_class_eligible(r, &mut self.candidates);
    }
}

impl Planner for TSharePlanner {
    // Default lifecycle hooks apply: T-Share decides immediately, and
    // it reads workers from the platform's grid, which already drops
    // retired workers and admits joiners on its own.
    fn name(&self) -> &'static str {
        "tshare"
    }

    fn on_request(&mut self, state: &mut PlatformState, r: &Request) -> PlannerReplies {
        let oracle = state.oracle_arc();
        let direct = oracle.dis(r.origin, r.destination);
        if direct >= INF {
            state.reject(r);
            return reply_one(r.id, Outcome::Rejected);
        }
        self.search(state, r, direct);

        // Basic insertion per shortlisted worker, keep the minimum.
        let mut best: Option<(Cost, WorkerId, InsertionPlan)> = None;
        for &cand in &self.candidates {
            let w = WorkerId(cand as u32);
            let (route, capacity) = state.candidate(w, &mut self.retimed);
            let Some(plan) = basic_insertion(route, capacity, r, &*oracle) else {
                continue;
            };
            // Only a plan that beats the best so far can change the
            // decision, so only such a plan pays for the gate below.
            if best
                .as_ref()
                .is_some_and(|(bd, bw, _)| (plan.delta, w) >= (*bd, *bw))
            {
                continue;
            }
            // Free-flow plans are optimistic under a congestion
            // profile: only stretched-feasible ones may compete
            // (DESIGN.md §7).
            if route.time_dependent() && !route.insertion_feasible(&plan, r, capacity) {
                continue;
            }
            best = Some((plan.delta, w, plan));
        }

        let outcome = match best {
            Some((delta, w, plan)) => {
                state.commit(w, r, &plan);
                Outcome::Assigned { worker: w, delta }
            }
            None => {
                state.reject(r);
                Outcome::Rejected
            }
        };
        reply_one(r.id, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_network::congestion::{CongestionProfile, TravelTimeProvider};
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;
    use road_network::oracle::CountingOracle;
    use road_network::VertexId;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use urpsm_core::planner::PruneGreedyDp;
    use urpsm_core::types::RequestId;
    use urpsm_core::types::{Time, Worker};

    /// Vertices 100 m apart; road time = euclid time at 10 m/s.
    fn oracle(n: usize) -> Arc<MatrixOracle> {
        let rows: Vec<Vec<Cost>> = (0..n)
            .map(|u| (0..n).map(|v| (u.abs_diff(v) as Cost) * 1_000).collect())
            .collect();
        let points = (0..n).map(|k| Point::new(k as f64 * 100.0, 0.0)).collect();
        Arc::new(MatrixOracle::from_matrix(&rows, points, 10.0))
    }

    fn state(origins: &[u32]) -> PlatformState {
        let ws: Vec<Worker> = origins
            .iter()
            .enumerate()
            .map(|(i, &v)| Worker {
                class: Default::default(),
                id: WorkerId(i as u32),
                origin: VertexId(v),
                capacity: 4,
            })
            .collect();
        PlatformState::new(oracle(100), &ws, 500.0, 0)
    }

    fn request(id: u32, o: u32, d: u32, deadline: Time) -> Request {
        Request {
            class: Default::default(),
            id: RequestId(id),
            origin: VertexId(o),
            destination: VertexId(d),
            release: 0,
            deadline,
            penalty: 1_000_000,
            capacity: 1,
        }
    }

    #[test]
    fn serves_reachable_requests_with_nearest_worker() {
        let mut st = state(&[10, 50, 90]);
        let r = request(1, 48, 60, 1_000_000);
        let out = TSharePlanner::new().on_request(&mut st, &r);
        match out[0].1 {
            Outcome::Assigned { worker, .. } => assert_eq!(worker, WorkerId(1)),
            Outcome::Rejected => panic!("should serve"),
        }
    }

    #[test]
    fn conservative_speed_estimate_drops_feasible_workers() {
        // Worker at 0, pickup at 80 (8 km). True travel time at the
        // road speed (10 m/s): 800 s. Pickup budget: 900 s — feasible!
        // T-Share's 8 m/s estimate reaches 7.2 km, short of the 8 km
        // between the two cells' centers.
        let r = request(1, 80, 81, 91_000);
        let out = TSharePlanner::new().on_request(&mut state(&[0]), &r);
        assert_eq!(out[0].1, Outcome::Rejected, "lossy search must drop it");

        // pruneGreedyDP shortlists at the network's top speed (10 m/s,
        // a true bound) and serves the same request — precisely the
        // served-rate gap the paper reports.
        let out = PruneGreedyDp::new().on_request(&mut state(&[0]), &r);
        assert!(matches!(out[0].1, Outcome::Assigned { .. }));
    }

    #[test]
    fn dual_side_search_finds_workers_near_destination() {
        // The 8 m/s estimator is conservative vs the true road speed
        // (10 m/s) — exactly T-Share's lossiness. A worker parked at
        // the drop-off, 1 km from the pickup, is outside the
        // single-side reach estimate yet truly feasible; dual-side
        // search recovers it through the destination's cell.
        let mk = |search| TSharePlanner::from_config(TShareConfig { search });
        // o = v40, d = v50 (L = 10,000 cs); pickup budget 11,000 cs ⇒
        // estimated reach 110 s × 8 m/s = 880 m < 1,000 m between the
        // 500 m cells' centers. True pickup travel: 10,000 cs, so the
        // delivery lands at 20,000 cs ≤ 21,000 cs.
        let r = request(1, 40, 50, 21_000);
        let out_single = mk(SearchMode::SingleSide).on_request(&mut state(&[50]), &r);
        let out_dual = mk(SearchMode::DualSide).on_request(&mut state(&[50]), &r);
        assert_eq!(
            out_single[0].1,
            Outcome::Rejected,
            "single-side reach estimate must miss the worker"
        );
        assert!(
            matches!(out_dual[0].1, Outcome::Assigned { .. }),
            "dual-side must recover it via the destination ring: {:?}",
            out_dual[0].1
        );
    }

    #[test]
    fn sorted_index_memory_reported() {
        let mut st = state(&[0]);
        let mut p = TSharePlanner::new();
        assert_eq!(p.cells.num_cells(), 0, "the table is built lazily");
        p.on_request(&mut st, &request(1, 5, 6, 1_000_000));
        // The table orders the platform grid's own cells: a 9.9 km
        // line in 500 m cells.
        let c = st.grid().num_cells();
        assert_eq!((c, p.cells.num_cells()), (20, 20));
        // Fig. 5 charges the worker grid plus C lists of C entries.
        assert_eq!(
            TSharePlanner::index_mem_bytes(&st),
            st.grid().mem_bytes() + c * c * 8 + c * 24
        );
    }

    /// Forwards to a profile and counts `leg_time_between` calls.
    struct CountingProvider {
        inner: CongestionProfile,
        calls: AtomicU64,
    }

    impl TravelTimeProvider for CountingProvider {
        fn leg_time(&self, from: VertexId, base: Cost, depart: u64) -> Cost {
            self.inner.leg_time(from, base, depart)
        }
        fn is_flat(&self) -> bool {
            self.inner.is_flat()
        }
        fn name(&self) -> &str {
            "counting"
        }
        fn leg_time_between(&self, from: VertexId, to: VertexId, base: Cost, depart: u64) -> Cost {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.leg_time_between(from, to, base, depart)
        }
    }

    /// T-Share's decision with every plan found gated, winner or not.
    fn gate_every_plan(p: &mut TSharePlanner, state: &mut PlatformState, r: &Request) -> Outcome {
        let oracle = state.oracle_arc();
        p.search(state, r, oracle.dis(r.origin, r.destination));
        let mut best: Option<(Cost, WorkerId, InsertionPlan)> = None;
        for &cand in &p.candidates {
            let w = WorkerId(cand as u32);
            let (route, capacity) = state.candidate(w, &mut p.retimed);
            let Some(plan) = basic_insertion(route, capacity, r, &*oracle) else {
                continue;
            };
            if route.time_dependent() && !route.insertion_feasible(&plan, r, capacity) {
                continue;
            }
            if best
                .as_ref()
                .is_none_or(|(bd, bw, _)| (plan.delta, w) < (*bd, *bw))
            {
                best = Some((plan.delta, w, plan));
            }
        }
        match best {
            Some((delta, w, plan)) => {
                state.commit(w, r, &plan);
                Outcome::Assigned { worker: w, delta }
            }
            None => {
                state.reject(r);
                Outcome::Rejected
            }
        }
    }

    /// Under a 2× profile T-Share gates only a plan that beats its best
    /// so far: the same decisions and `dis` bills as gating every plan,
    /// for strictly fewer provider calls.
    #[test]
    fn gating_only_plans_that_can_win_is_exact_and_cheaper() {
        let rows: Vec<Vec<Cost>> = (0..100u64)
            .map(|u| (0..100u64).map(|v| u.abs_diff(v) * 1_000).collect())
            .collect();
        let points = (0..100)
            .map(|k| Point::new(k as f64 * 100.0, 0.0))
            .collect();
        let oracle = Arc::new(CountingOracle::new(MatrixOracle::from_matrix(
            &rows, points, 10.0,
        )));
        let provider = Arc::new(CountingProvider {
            inner: CongestionProfile::constant("x2", 2.0).expect("valid"),
            calls: AtomicU64::new(0),
        });
        // 30 workers bunched around the pickups: every search returns
        // many candidates, so most plans found cannot win.
        let fleet: Vec<Worker> = (0..30u32)
            .map(|i| Worker {
                class: Default::default(),
                id: WorkerId(i),
                origin: VertexId(40 + i % 10),
                capacity: 4,
            })
            .collect();
        let stream: Vec<Request> = (0..25u32)
            .map(|i| {
                let (o, trip) = (35 + (i * 7) % 20, 3 + i % 5);
                // Every third deadline holds in free flow only.
                let deadline = if i % 3 == 0 {
                    3_000 * Time::from(trip) + 4_000
                } else {
                    1_000_000
                };
                request(i, o, o + trip, deadline)
            })
            .collect();
        let run =
            |congested: bool, decide: &mut dyn FnMut(&mut PlatformState, &Request) -> Outcome| {
                let mut st = PlatformState::new(oracle.clone(), &fleet, 500.0, 0);
                if congested {
                    st.set_congestion(Some(provider.clone()));
                }
                let before = provider.calls.load(Ordering::Relaxed);
                let decided: Vec<(Outcome, u64)> = stream
                    .iter()
                    .map(|r| {
                        oracle.reset();
                        let outcome = decide(&mut st, r);
                        (outcome, oracle.stats().dis)
                    })
                    .collect();
                (decided, provider.calls.load(Ordering::Relaxed) - before)
            };

        let mut planner = TSharePlanner::new();
        let (engine, engine_calls) = run(true, &mut |st, r| planner.on_request(st, r)[0].1);
        let mut planner = TSharePlanner::new();
        let (reference, reference_calls) =
            run(true, &mut |st, r| gate_every_plan(&mut planner, st, r));
        assert_eq!(engine, reference, "outcomes and dis counts");
        assert!(
            engine_calls < reference_calls,
            "gating only plans that can win must save provider calls: \
             {engine_calls} vs {reference_calls}"
        );
        // The profile bites, and most requests are still served.
        let mut planner = TSharePlanner::new();
        let (free_flow, _) = run(false, &mut |st, r| planner.on_request(st, r)[0].1);
        assert_ne!(engine, free_flow, "the 2× profile must reject some plans");
        let served = engine.iter().filter(|(o, _)| *o != Outcome::Rejected);
        assert!(served.count() >= 12);
    }
}
