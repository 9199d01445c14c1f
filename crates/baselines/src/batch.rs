//! The batch baseline (Alonso-Mora et al. — PNAS'17), at the fidelity
//! the URPSM paper evaluates it (§2, §6.1):
//!
//! > "It first generates groups of requests in a batch (e.g., 6
//! > seconds) and sorts the groups. Then it greedily assigns requests
//! > in each group by inserting each request into the route of current
//! > workers, and finally chooses the worker who can serve more
//! > requests with minimal increased distance."
//!
//! Requests are buffered per epoch; at each epoch boundary the buffer
//! is partitioned into shareability groups (two requests share iff a
//! virtual vehicle starting at one origin can serve both within their
//! deadlines), groups are processed largest-first, and each group goes
//! wholesale to the worker that serves the most members at the least
//! added distance. Members the chosen worker cannot fit are rejected —
//! the batching trades per-request optimality for throughput, which is
//! exactly why its served rate plateaus in Figs. 3–7.

use road_network::{Cost, INF};
use urpsm_core::insertion::{linear_dp_insertion_with, InsertionScratch};
use urpsm_core::planner::{Planner, PlannerReplies};
use urpsm_core::platform::{CandidateBuf, Outcome, PlatformState};
use urpsm_core::route::{InsertionPlan, Route};
use urpsm_core::types::{Request, RequestId, Time, WorkerId};

/// Best group-to-worker assignment found so far: members served, total
/// added distance, the worker, and the per-member insertion plans.
type GroupAssignment = (usize, Cost, WorkerId, Vec<(Request, InsertionPlan)>);

/// Configuration of the batch baseline.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Epoch length in centiseconds (the paper quotes 6 seconds).
    pub epoch: Time,
    /// Maximum group size.
    pub max_group: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            epoch: 600,
            max_group: 3,
        }
    }
}

/// The batch planner.
#[derive(Debug, Default)]
pub struct BatchPlanner {
    cfg: BatchConfig,
    buffer: Vec<Request>,
    epoch_end: Option<Time>,
    scratch: InsertionScratch,
    candidates: CandidateBuf,
    /// Reusable simulated route for the per-worker group trial —
    /// `clone_from`-ed over each candidate's route instead of cloning
    /// a fresh one per worker.
    group_route: Route,
    /// The spare an idle candidate's route is re-timed into
    /// (`PlatformState::candidate`).
    retimed: Route,
}

impl BatchPlanner {
    /// Planner with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Planner with an explicit configuration.
    pub fn from_config(cfg: BatchConfig) -> Self {
        BatchPlanner {
            cfg,
            ..Self::default()
        }
    }

    /// Number of requests currently buffered (awaiting the epoch end).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Can a virtual vehicle starting at `a`'s origin serve both `a`
    /// and `b` within their deadlines? (The RV-graph edge test of the
    /// original paper, reduced to the insertion machinery.)
    fn shareable(&mut self, state: &PlatformState, now: Time, a: &Request, b: &Request) -> bool {
        // Class compatibility is the platform's call, not ours: two
        // requests no single vehicle class may co-serve never group.
        if !state.classes_compatible(a, b) {
            return false;
        }
        let oracle = state.oracle();
        let capacity = a.capacity + b.capacity;
        let mut route = Route::new(a.origin, now);
        let Some(plan) = linear_dp_insertion_with(&mut self.scratch, &route, capacity, a, oracle)
        else {
            return false;
        };
        route.apply_insertion(&plan, a);
        linear_dp_insertion_with(&mut self.scratch, &route, capacity, b, oracle).is_some()
    }

    fn process_batch(&mut self, state: &mut PlatformState) -> PlannerReplies {
        let mut batch = std::mem::take(&mut self.buffer);
        self.epoch_end = None;
        if batch.is_empty() {
            return PlannerReplies::new();
        }
        urpsm_obs::with(|m| m.batch_epochs.inc());
        batch.sort_by_key(|r| r.id);
        let now = state.now();

        // 1. Greedy shareability grouping.
        let mut groups: Vec<Vec<Request>> = Vec::new();
        'next_request: for r in batch {
            for g in &mut groups {
                if g.len() < self.cfg.max_group {
                    let all_share = g.iter().all(|m| self.shareable(state, now, m, &r));
                    if all_share {
                        g.push(r);
                        continue 'next_request;
                    }
                }
            }
            groups.push(vec![r]);
        }

        // 2. Larger groups first (ties: smaller first member id).
        groups.sort_by_key(|g| (std::cmp::Reverse(g.len()), g[0].id));

        // 3. Assign each group to the worker serving the most members
        //    with the least added distance. As in the original batch
        //    formulation (one trip per vehicle per assignment round),
        //    a worker takes at most one group per epoch.
        let oracle = state.oracle_arc();
        let mut outcomes = PlannerReplies::new();
        let mut taken: Vec<bool> = vec![false; state.num_workers()];
        for group in groups {
            let lead = &group[0];
            let direct = oracle.dis(lead.origin, lead.destination);
            let mut candidates = std::mem::take(&mut self.candidates);
            // The group-level eligibility seam: workers must be
            // class-eligible for *every* member, not just the lead.
            let eligible =
                state.group_candidate_workers(&group, direct.min(INF - 1), &mut candidates);

            // Simulate the whole group on a clone of each candidate.
            let mut best: Option<GroupAssignment> = None;
            for w in eligible.iter() {
                if taken[w.idx()] {
                    continue;
                }
                let (route, capacity) = state.candidate(w, &mut self.retimed);
                self.group_route.clone_from(route);
                let mut plans = Vec::with_capacity(group.len());
                let mut total_delta: Cost = 0;
                for m in &group {
                    if let Some(plan) = linear_dp_insertion_with(
                        &mut self.scratch,
                        &self.group_route,
                        capacity,
                        m,
                        &*oracle,
                    ) {
                        // Under a congestion profile, a member only
                        // joins the simulated route if the stretched
                        // schedule stays feasible (DESIGN.md §7) —
                        // the clone carries the provider, so later
                        // members re-check the earlier ones too.
                        if self.group_route.time_dependent()
                            && !self.group_route.insertion_feasible(&plan, m, capacity)
                        {
                            continue;
                        }
                        self.group_route.apply_insertion(&plan, m);
                        total_delta += plan.delta;
                        plans.push((*m, plan));
                    }
                }
                if plans.is_empty() {
                    continue;
                }
                let better = match &best {
                    None => true,
                    // more members, then less distance, then id.
                    Some((bn, bd, bw, _)) => {
                        (std::cmp::Reverse(plans.len()), total_delta, w)
                            < (std::cmp::Reverse(*bn), *bd, *bw)
                    }
                };
                if better {
                    best = Some((plans.len(), total_delta, w, plans));
                }
            }
            self.candidates = candidates;

            match best {
                Some((_, _, w, plans)) => {
                    taken[w.idx()] = true;
                    let mut served: Vec<RequestId> = Vec::with_capacity(plans.len());
                    for (m, plan) in &plans {
                        state.commit(w, m, plan);
                        served.push(m.id);
                        outcomes.push((
                            m.id,
                            Outcome::Assigned {
                                worker: w,
                                delta: plan.delta,
                            },
                        ));
                    }
                    for m in &group {
                        if !served.contains(&m.id) {
                            state.reject(m);
                            outcomes.push((m.id, Outcome::Rejected));
                        }
                    }
                }
                None => {
                    for m in &group {
                        state.reject(m);
                        outcomes.push((m.id, Outcome::Rejected));
                    }
                }
            }
        }
        outcomes
    }
}

impl Planner for BatchPlanner {
    fn name(&self) -> &'static str {
        "batch"
    }

    fn on_request(&mut self, state: &mut PlatformState, r: &Request) -> PlannerReplies {
        // A new epoch opens with the first buffered request.
        if self.epoch_end.is_none() {
            self.epoch_end = Some(r.release + self.cfg.epoch);
        }
        self.buffer.push(*r);
        // Epoch boundaries are normally handled by `on_time`, but guard
        // against engines that only call `on_request`.
        if state.now() >= self.epoch_end.expect("set above") {
            self.process_batch(state)
        } else {
            PlannerReplies::new()
        }
    }

    fn on_time(&mut self, state: &mut PlatformState, now: Time) -> PlannerReplies {
        match self.epoch_end {
            Some(end) if now >= end => self.process_batch(state),
            _ => PlannerReplies::new(),
        }
    }

    fn flush(&mut self, state: &mut PlatformState) -> PlannerReplies {
        self.process_batch(state)
    }

    fn next_wakeup(&self) -> Option<Time> {
        self.epoch_end
    }

    /// A buffered request can still be withdrawn before its epoch is
    /// processed: drop it and report the cancellation as absorbed —
    /// no platform-level route surgery is needed because no route ever
    /// saw it.
    fn on_cancel(&mut self, _state: &mut PlatformState, r: RequestId) -> bool {
        let before = self.buffer.len();
        self.buffer.retain(|b| b.id != r);
        if self.buffer.is_empty() {
            // Nothing left in the epoch: close it so `next_wakeup`
            // doesn't fire for an empty buffer.
            self.epoch_end = None;
        }
        self.buffer.len() != before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;
    use road_network::VertexId;
    use std::sync::Arc;
    use urpsm_core::types::Worker;

    fn line_oracle(n: usize) -> Arc<MatrixOracle> {
        let rows: Vec<Vec<Cost>> = (0..n)
            .map(|u| (0..n).map(|v| (u.abs_diff(v) as Cost) * 100).collect())
            .collect();
        let points = (0..n).map(|k| Point::new(k as f64, 0.0)).collect();
        Arc::new(MatrixOracle::from_matrix(&rows, points, 1.0))
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
        PlatformState::new(line_oracle(100), &ws, 20.0, 0)
    }

    fn request(id: u32, o: u32, d: u32, release: Time, deadline: Time) -> Request {
        Request {
            class: Default::default(),
            id: RequestId(id),
            origin: VertexId(o),
            destination: VertexId(d),
            release,
            deadline,
            penalty: 1_000_000,
            capacity: 1,
        }
    }

    #[test]
    fn buffers_until_epoch_then_assigns() {
        let mut st = state(&[0]);
        let mut p = BatchPlanner::from_config(BatchConfig {
            epoch: 600,
            max_group: 3,
        });
        let out = p.on_request(&mut st, &request(1, 5, 10, 0, 100_000));
        assert!(out.is_empty());
        assert_eq!(p.buffered(), 1);
        let out = p.on_request(&mut st, &request(2, 6, 11, 100, 100_000));
        assert!(out.is_empty());

        // Epoch boundary passes.
        st.advance_clock(600);
        let out = p.on_time(&mut st, 600);
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .all(|(_, o)| matches!(o, Outcome::Assigned { .. })));
        assert_eq!(p.buffered(), 0);
        assert!(st.agent(WorkerId(0)).route.validate(4).is_ok());
    }

    #[test]
    fn groups_shareable_requests_to_one_worker() {
        // Two workers; two overlapping rides that should share one car.
        let mut st = state(&[0, 90]);
        let mut p = BatchPlanner::new();
        p.on_request(&mut st, &request(1, 5, 20, 0, 100_000));
        p.on_request(&mut st, &request(2, 6, 19, 50, 100_000));
        st.advance_clock(600);
        let out = p.on_time(&mut st, 600);
        let workers: Vec<WorkerId> = out
            .iter()
            .filter_map(|(_, o)| match o {
                Outcome::Assigned { worker, .. } => Some(*worker),
                Outcome::Rejected => None,
            })
            .collect();
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0], workers[1], "shareable rides grouped");
    }

    #[test]
    fn flush_drains_tail_requests() {
        let mut st = state(&[0]);
        let mut p = BatchPlanner::new();
        p.on_request(&mut st, &request(1, 5, 10, 0, 100_000));
        let out = p.flush(&mut st);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Outcome::Assigned { .. }));
    }

    #[test]
    fn expired_deadlines_in_buffer_get_rejected() {
        let mut st = state(&[0]);
        let mut p = BatchPlanner::new();
        // Deadline inside the epoch: by processing time it's hopeless.
        p.on_request(&mut st, &request(1, 50, 51, 0, 400));
        st.advance_clock(600);
        let out = p.on_time(&mut st, 600);
        assert_eq!(out[0].1, Outcome::Rejected);
    }

    #[test]
    fn cancel_drops_buffered_requests() {
        let mut st = state(&[0]);
        let mut p = BatchPlanner::new();
        p.on_request(&mut st, &request(1, 5, 10, 0, 100_000));
        p.on_request(&mut st, &request(2, 6, 11, 100, 100_000));
        assert!(p.on_cancel(&mut st, RequestId(1)));
        assert_eq!(p.buffered(), 1);
        // Unknown id: not absorbed.
        assert!(!p.on_cancel(&mut st, RequestId(7)));
        // Last one out closes the epoch.
        assert!(p.on_cancel(&mut st, RequestId(2)));
        assert_eq!(p.buffered(), 0);
        assert_eq!(p.next_wakeup(), None);
        st.advance_clock(600);
        assert!(p.on_time(&mut st, 600).is_empty());
    }

    #[test]
    fn empty_epoch_is_a_noop() {
        let mut st = state(&[0]);
        let mut p = BatchPlanner::new();
        assert!(p.on_time(&mut st, 600).is_empty());
        assert!(p.flush(&mut st).is_empty());
    }
}
