//! `GreedyDP` and `pruneGreedyDP` (Algo. 5).
//!
//! Both share one engine; the only difference is whether the planning
//! phase applies the pre-ordered pruning of Lemma 8. The tie-break on
//! equal `Δ*` is the smaller worker id, and the pruning breaks only on
//! a *strict* `Δ* < LB`, which together make the two planners
//! extensionally identical (same worker, same plan, same final cost) —
//! property-tested in `tests/planner_equivalence.rs`. Only the number
//! of shortest-distance queries differs, which is precisely the paper's
//! claim (§6.2: 2.76× average speed-up, tens of billions of queries
//! saved).
//!
//! # The parallel engine (`PlannerConfig::threads`)
//!
//! Phase 1 (per-candidate lower bounds) and Phase 2 (per-candidate
//! exact linear-DP probes) are independent per worker, so with
//! `threads > 1` both fan out over a scoped-thread pool
//! ([`crate::exec::WorkPool`]) planning against an immutable
//! [`FleetView`]. Phase 2 shares one [`AtomicMin`] best-`Δ` bound for
//! Lemma 8 pruning; because the probe order follows the same
//! ascending-`LB` feed and a stale (too high) bound only *widens* the
//! probe set, the reduction `min (Δ, worker_id)` is provably the same
//! argmin the sequential scan finds — the parallel planner is
//! extensionally identical at every thread count (DESIGN.md §5,
//! differential suite in `tests/parallel_equivalence.rs`).

use road_network::oracle::DistanceOracle;
use road_network::{Cost, INF};

use crate::decision::{collect_lower_bounds, economic_reject};
use crate::exec::{AtomicMin, IndexFeed, WorkPool};
use crate::insertion::linear_dp_insertion_with;
use crate::platform::{CandidateBuf, EligibleCandidates, FleetView, Outcome, PlatformState};
use crate::route::InsertionPlan;
use crate::shortlist::Shortlist;
use crate::types::{Request, WorkerId};

use super::scratch::PlanScratch;
use super::{reply_one, Planner, PlannerConfig, PlannerReplies};

/// Minimum shortlisted candidates per fan-out thread: the effective
/// width is `min(threads, candidates / MIN_CANDIDATES_PER_THREAD)`, so
/// a narrow request never pays spawn cost for idle workers and a
/// sub-`2×` shortlist runs sequentially. A pure wall-clock heuristic:
/// every width returns the same plan.
const MIN_CANDIDATES_PER_THREAD: usize = 16;

/// The best placement found so far: `(Δ*, worker, plan)`.
type Best = Option<(Cost, WorkerId, InsertionPlan)>;

/// Shared engine for the two DP planners.
#[derive(Debug)]
struct DpEngine {
    cfg: PlannerConfig,
    pool: WorkPool,
    /// One planning arena per pool thread (index 0 doubles as the
    /// sequential scratch), grown on demand. Holds the SoA candidate
    /// shortlist, the DP distance columns, and the congestion probe
    /// route — everything a steady-state planned insertion needs, so
    /// the hot path never allocates (gated by `benches/alloc.rs`).
    scratches: Vec<PlanScratch>,
    candidates: CandidateBuf,
}

impl Default for DpEngine {
    fn default() -> Self {
        DpEngine::new(PlannerConfig::default())
    }
}

impl DpEngine {
    fn new(cfg: PlannerConfig) -> Self {
        DpEngine {
            cfg,
            pool: WorkPool::new(cfg.threads),
            scratches: vec![PlanScratch::default()],
            candidates: CandidateBuf::new(),
        }
    }

    fn set_threads(&mut self, threads: usize) {
        self.pool = WorkPool::new(threads);
        self.cfg.threads = self.pool.threads();
    }

    fn handle(&mut self, prune: bool, state: &mut PlatformState, r: &Request) -> Outcome {
        let DpEngine {
            cfg,
            pool,
            scratches,
            candidates,
        } = self;
        #[cfg(feature = "obs")]
        let obs_sw = urpsm_obs::Stopwatch::start();
        let oracle = state.oracle_arc();
        let direct = oracle.dis(r.origin, r.destination);
        if direct >= INF {
            #[cfg(feature = "obs")]
            record_plan_obs(&obs_sw, r, 0, None);
            state.reject(r);
            return Outcome::Rejected;
        }

        // Phase 0 (Algo. 5 line 3): the platform's eligibility seam —
        // grid reachability joined with the class filter — handed back
        // as an opaque view. This is the only place the engine learns
        // which workers may compete; it cannot add its own.
        let eligible = state.candidate_workers(r, direct, candidates);

        // Phases 1–2 (Algo. 4 + Algo. 5 lines 6–10): lower bounds,
        // economic test, then the exact scan in ascending LB order.
        // With a wide enough shortlist both phases run fused on one
        // scoped fan-out (a single spawn set per request), whose width
        // scales with the shortlist so narrow requests stay serial.
        let width = pool
            .threads()
            .min(eligible.len() / MIN_CANDIDATES_PER_THREAD);
        let best = if width > 1 {
            #[cfg(feature = "obs")]
            urpsm_obs::with(|m| m.plan_parallel_requests.inc());
            // A rejection (economic or no-feasible-placement) comes
            // back as `None`, exactly like an empty probe result — the
            // sequential path rejects in both cases too.
            plan_fused_parallel(
                &WorkPool::new(width),
                scratches,
                cfg.alpha,
                prune,
                state.view(),
                r,
                eligible,
                direct,
                &*oracle,
            )
        } else {
            // Narrow shortlist: both phases sequential, on the scratch-
            // resident SoA shortlist — the same lower-bound loop, sort
            // order, and economic gate as `decision_phase`, with every
            // buffer `clear()`-reused instead of freshly allocated.
            let scratch = &mut scratches[0];
            scratch.shortlist.clear();
            collect_lower_bounds(
                state.view(),
                r,
                direct,
                eligible.iter(),
                &mut scratch.shortlist,
            );
            scratch.shortlist.sort_by_bound();
            if economic_reject(cfg.alpha, r, scratch.shortlist.min_lb()) {
                #[cfg(feature = "obs")]
                record_plan_obs(&obs_sw, r, eligible.len(), None);
                state.reject(r);
                return Outcome::Rejected;
            }
            probe_sequential(scratch, prune, state.view(), r, &*oracle)
        };

        let outcome = match best {
            Some((delta, w, plan)) => {
                if cfg.strict_economics && cfg.alpha.saturating_mul(delta) > r.penalty {
                    state.reject(r);
                    Outcome::Rejected
                } else {
                    state.commit(w, r, &plan);
                    Outcome::Assigned { worker: w, delta }
                }
            }
            None => {
                state.reject(r);
                Outcome::Rejected
            }
        };
        #[cfg(feature = "obs")]
        record_plan_obs(
            &obs_sw,
            r,
            eligible.len(),
            match &outcome {
                Outcome::Assigned { delta, .. } => Some(*delta),
                _ => None,
            },
        );
        outcome
    }
}

/// Record one planner invocation into the registry: latency and
/// shortlist-size histograms, outcome counters, and a `PlanRequest`
/// trace record. The trace's probe word carries the *cumulative*
/// `plan_probes` counter at record time — consumers diff consecutive
/// records to recover per-request probe counts on serial runs.
#[cfg(feature = "obs")]
fn record_plan_obs(sw: &urpsm_obs::Stopwatch, r: &Request, shortlist: usize, delta: Option<Cost>) {
    urpsm_obs::with(|m| {
        if let Some(ns) = sw.elapsed_ns() {
            m.plan_latency_ns.record(ns);
        }
        m.plan_requests.inc();
        m.plan_shortlist_len.record(shortlist as u64);
        match delta {
            Some(_) => m.plan_assigned.inc(),
            None => m.plan_rejected.inc(),
        }
        m.ring.record(
            urpsm_obs::TraceKind::PlanRequest,
            u64::from(r.id.0),
            shortlist as u64,
            m.plan_probes.get(),
            delta.unwrap_or(u64::MAX),
        );
    });
}

/// The sequential planning phase — Algo. 5's loop, verbatim, scanning
/// the scratch-resident shortlist in ascending `(LB, worker)` order.
fn probe_sequential(
    scratch: &mut PlanScratch,
    prune: bool,
    view: FleetView<'_>,
    r: &Request,
    oracle: &dyn DistanceOracle,
) -> Best {
    let PlanScratch {
        shortlist,
        insertion,
        probe,
        ..
    } = scratch;
    let mut best: Best = None;
    for rank in 0..shortlist.len() {
        let (lb, w) = shortlist.get(rank);
        if prune {
            // Lemma 8: every remaining worker's exact Δ* is at
            // least its LB, which already exceeds the best found.
            if let Some((best_delta, _, _)) = &best {
                if *best_delta < lb {
                    break;
                }
            }
        }
        let agent = view.agent(w);
        #[cfg(feature = "obs")]
        urpsm_obs::with(|m| m.plan_probes.inc());
        if let Some(plan) =
            linear_dp_insertion_with(insertion, &agent.route, agent.worker.capacity, r, oracle)
        {
            // Free-flow plans are optimistic under a congestion
            // profile: re-check the stretched schedule before letting
            // the candidate compete (DESIGN.md §7). Free-flow and
            // flat-profile runs skip this branch entirely. The probe
            // route is scratch storage — `clone_from` reuses its
            // buffers instead of cloning afresh.
            if agent.route.time_dependent()
                && !agent
                    .route
                    .insertion_feasible_with(probe, &plan, r, agent.worker.capacity)
            {
                continue;
            }
            let better = match &best {
                None => true,
                Some((bd, bw, _)) => (plan.delta, w) < (*bd, *bw),
            };
            if better {
                best = Some((plan.delta, w, plan));
            }
        }
    }
    best
}

/// Phases 1 and 2 fused onto **one** scoped fan-out — a single spawn
/// set per request, which matters when requests arrive every few
/// hundred microseconds.
///
/// Every thread: (a) pulls candidates off an atomic feed and computes
/// their Euclidean lower bounds; (b) hits a barrier, where one leader
/// merges, sorts by `(LB, worker)` and applies the economic gate
/// `p_r < α · min LB` — exactly the sequential decision phase; (c)
/// probes the sorted list in ascending `LB` order with a shared
/// [`AtomicMin`] best-`Δ` bound for Lemma 8.
///
/// Why the reduction equals the sequential result: indices are claimed
/// in ascending `LB` order, the shared bound is monotone decreasing and
/// only ever holds exact `Δ` values of probed candidates, and a thread
/// stops only on a *strict* `bound < LB`. So for every candidate left
/// unprobed there was a moment when `final_best ≤ bound < LB ≤ Δ*` —
/// strictly worse than the best probed candidate, with no possible tie.
/// The probe set may *differ* from the sequential scan's in both
/// directions — a stale bound delays stopping (extra probes), while a
/// fast thread publishing a late candidate's `Δ` early can prune an
/// early candidate the sequential scan would have probed (fewer
/// probes). Either way it always contains every potential argmin, so
/// the difference costs or saves queries, never correctness.
///
/// # Panic safety
///
/// Everything up to the last barrier is `catch_unwind`-guarded: a
/// worker that panicked mid-phase would otherwise strand the rest of
/// the pool at the barrier forever (the scope never joins, the panic
/// never surfaces). Instead the payload is carried out of the scope
/// and re-thrown on the calling thread after every worker has joined.
#[allow(clippy::too_many_arguments)]
fn plan_fused_parallel(
    pool: &WorkPool,
    scratches: &mut Vec<PlanScratch>,
    alpha: u64,
    prune: bool,
    view: FleetView<'_>,
    r: &Request,
    candidates: EligibleCandidates<'_>,
    direct: Cost,
    oracle: &dyn DistanceOracle,
) -> Best {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::{Barrier, Mutex, OnceLock};

    // A worker panic payload, smuggled through the scope join.
    type Panic = Box<dyn std::any::Any + Send + 'static>;
    // Poison-tolerant lock: a panicking appender poisons the mutex, but
    // its panic is re-thrown after the join anyway, so the partial data
    // is never *used* — the survivors only need to get past the lock.
    fn lock_lbs<'m>(
        m: &'m Mutex<Vec<(Cost, WorkerId)>>,
    ) -> std::sync::MutexGuard<'m, Vec<(Cost, WorkerId)>> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    let threads = pool.threads();
    if scratches.len() < threads {
        scratches.resize_with(threads, PlanScratch::default);
    }
    let lb_feed = IndexFeed::new(candidates.len());
    let collected: Mutex<Vec<(Cost, WorkerId)>> = Mutex::new(Vec::with_capacity(candidates.len()));
    let barrier = Barrier::new(threads);
    // What the barrier leader publishes: the merged SoA shortlist in
    // ascending `(LBΔ*, worker)` order, the economic-gate verdict, and
    // the probe feed over the sorted order.
    type Merged = (Shortlist, bool, IndexFeed);
    let merged: OnceLock<Merged> = OnceLock::new();
    let bound = AtomicMin::new();

    let locals: Vec<Result<Best, Panic>> =
        pool.run_with(&mut scratches[..threads], |_, scratch| {
            let PlanScratch {
                lbs: local_lbs,
                insertion,
                probe,
                ..
            } = scratch;
            // Phase 1 (Algo. 4): every candidate's lower bound — the same
            // `collect_lower_bounds` loop as the sequential decision
            // phase, collected into this thread's reusable scratch list.
            let phase1 = catch_unwind(AssertUnwindSafe(|| {
                local_lbs.clear();
                collect_lower_bounds(
                    view,
                    r,
                    direct,
                    std::iter::from_fn(|| lb_feed.next().map(|i| candidates.get(i))),
                    local_lbs,
                );
                if !local_lbs.is_empty() {
                    lock_lbs(&collected).append(local_lbs);
                }
            }));
            // Merge point: one leader sorts and applies the economic gate —
            // the same `(LB, worker)` total order and `p_r < α · min LB`
            // test as the sequential `decision_phase`.
            if barrier.wait().is_leader() {
                let merge = catch_unwind(AssertUnwindSafe(|| {
                    let lbs = std::mem::take(&mut *lock_lbs(&collected));
                    let mut shortlist = Shortlist::new();
                    shortlist.extend_from_pairs(&lbs);
                    shortlist.sort_by_bound();
                    let reject = economic_reject(alpha, r, shortlist.min_lb());
                    let feed = IndexFeed::new(if reject { 0 } else { shortlist.len() });
                    if merged.set((shortlist, reject, feed)).is_err() {
                        unreachable!("exactly one barrier leader");
                    }
                }));
                if let Err(payload) = merge {
                    barrier.wait(); // release the others before bailing
                    return Err(payload);
                }
            }
            barrier.wait();
            phase1?;
            let Some((shortlist, reject, probe_feed)) = merged.get() else {
                // The leader died before publishing; its Err carries the
                // panic, everyone else just goes home empty-handed.
                return Ok(None);
            };
            if *reject {
                return Ok(None);
            }
            // Phase 2 (Algo. 5 lines 6–10): ascending-LB probes under the
            // shared bound. Past the barriers a plain panic is safe again —
            // the scope join propagates it.
            let mut local: Best = None;
            while let Some(i) = probe_feed.next() {
                let (lb, w) = shortlist.get(i);
                if prune && bound.get() < lb {
                    break;
                }
                let agent = view.agent(w);
                #[cfg(feature = "obs")]
                urpsm_obs::with(|m| m.plan_probes.inc());
                if let Some(plan) = linear_dp_insertion_with(
                    insertion,
                    &agent.route,
                    agent.worker.capacity,
                    r,
                    oracle,
                ) {
                    // Same congestion gate as the sequential probe —
                    // only *feasible* deltas may enter the shared
                    // bound, otherwise an infeasible candidate could
                    // prune the true winner. The §5 width-invariance
                    // argument goes through verbatim with "Δ" read as
                    // "feasible Δ" (DESIGN.md §7).
                    if agent.route.time_dependent()
                        && !agent.route.insertion_feasible_with(
                            probe,
                            &plan,
                            r,
                            agent.worker.capacity,
                        )
                    {
                        continue;
                    }
                    if prune {
                        bound.observe(plan.delta);
                    }
                    let better = match &local {
                        None => true,
                        Some((bd, bw, _)) => (plan.delta, w) < (*bd, *bw),
                    };
                    if better {
                        local = Some((plan.delta, w, plan));
                    }
                }
            }
            Ok(local)
        });
    let mut best: Best = None;
    for local in locals {
        match local {
            Err(payload) => resume_unwind(payload),
            Ok(Some(b)) => {
                let better = match &best {
                    None => true,
                    Some((bd, bw, _)) => (b.0, b.1) < (*bd, *bw),
                };
                if better {
                    best = Some(b);
                }
            }
            Ok(None) => {}
        }
    }
    best
}

/// The paper's full solution: `pruneGreedyDP` (Algo. 5).
#[derive(Debug, Default)]
pub struct PruneGreedyDp {
    engine: DpEngine,
}

impl PruneGreedyDp {
    /// Planner with default configuration (`α = 1`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Planner with an explicit configuration.
    pub fn from_config(cfg: PlannerConfig) -> Self {
        PruneGreedyDp {
            engine: DpEngine::new(cfg),
        }
    }

    /// Default configuration with a `threads`-wide planning fan-out.
    pub fn with_threads(threads: usize) -> Self {
        Self::from_config(PlannerConfig {
            threads,
            ..PlannerConfig::default()
        })
    }
}

impl Planner for PruneGreedyDp {
    fn name(&self) -> &'static str {
        "pruneGreedyDP"
    }

    fn on_request(&mut self, state: &mut PlatformState, r: &Request) -> PlannerReplies {
        reply_one(r.id, self.engine.handle(true, state, r))
    }

    fn set_threads(&mut self, threads: usize) {
        self.engine.set_threads(threads);
    }

    // Default `on_cancel`/`on_worker_change` hooks are correct here:
    // decisions are immediate (nothing buffered to withdraw) and every
    // decision re-reads the fleet through the grid index.
}

/// The ablation baseline: `GreedyDP` — identical to [`PruneGreedyDp`]
/// but evaluates the exact insertion for every candidate worker
/// (no Lemma 8 pruning).
#[derive(Debug, Default)]
pub struct GreedyDp {
    engine: DpEngine,
}

impl GreedyDp {
    /// Planner with default configuration (`α = 1`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Planner with an explicit configuration.
    pub fn from_config(cfg: PlannerConfig) -> Self {
        GreedyDp {
            engine: DpEngine::new(cfg),
        }
    }

    /// Default configuration with a `threads`-wide planning fan-out.
    pub fn with_threads(threads: usize) -> Self {
        Self::from_config(PlannerConfig {
            threads,
            ..PlannerConfig::default()
        })
    }
}

impl Planner for GreedyDp {
    fn name(&self) -> &'static str {
        "GreedyDP"
    }

    fn on_request(&mut self, state: &mut PlatformState, r: &Request) -> PlannerReplies {
        reply_one(r.id, self.engine.handle(false, state, r))
    }

    fn set_threads(&mut self, threads: usize) {
        self.engine.set_threads(threads);
    }

    // Default lifecycle hooks: immediate decisions, fleet re-read from
    // the grid index on every request (same rationale as PruneGreedyDp).
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{RequestId, Time, Worker};
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;
    use road_network::oracle::CountingOracle;
    use road_network::VertexId;
    use std::sync::Arc;

    fn line_counting_oracle(n: usize) -> Arc<CountingOracle<MatrixOracle>> {
        let rows: Vec<Vec<u64>> = (0..n)
            .map(|u| (0..n).map(|v| (u.abs_diff(v) as u64) * 150).collect())
            .collect();
        let points = (0..n).map(|k| Point::new(k as f64, 0.0)).collect();
        Arc::new(CountingOracle::new(MatrixOracle::from_matrix(
            &rows, points, 1.0,
        )))
    }

    fn fresh_state(oracle: Arc<CountingOracle<MatrixOracle>>, origins: &[u32]) -> PlatformState {
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
        PlatformState::new(oracle, &ws, 20.0, 0)
    }

    fn request(id: u32, o: u32, d: u32, deadline: Time, penalty: u64) -> Request {
        Request {
            class: Default::default(),
            id: RequestId(id),
            origin: VertexId(o),
            destination: VertexId(d),
            release: 0,
            deadline,
            penalty,
            capacity: 1,
        }
    }

    #[test]
    fn both_planners_pick_nearest_worker() {
        let oracle = line_counting_oracle(100);
        for mk in [0usize, 1] {
            let mut state = fresh_state(oracle.clone(), &[0, 40, 80]);
            let mut planner: Box<dyn Planner> = if mk == 0 {
                Box::new(GreedyDp::new())
            } else {
                Box::new(PruneGreedyDp::new())
            };
            let r = request(1, 42, 50, 100_000, 1_000_000);
            let out = planner.on_request(&mut state, &r);
            assert_eq!(out.len(), 1);
            match out[0].1 {
                Outcome::Assigned { worker, delta } => {
                    assert_eq!(worker, WorkerId(1), "{}", planner.name());
                    assert_eq!(delta, (2 + 8) * 150);
                }
                Outcome::Rejected => panic!("{} rejected", planner.name()),
            }
        }
    }

    #[test]
    fn pruning_saves_queries_with_same_outcomes() {
        let oracle = line_counting_oracle(200);
        let origins: Vec<u32> = (0..40).map(|i| i * 5).collect();

        let run = |prune: bool| -> (Vec<(RequestId, Outcome)>, u64) {
            oracle.reset();
            let mut state = fresh_state(oracle.clone(), &origins);
            let mut greedy = GreedyDp::new();
            let mut pruned = PruneGreedyDp::new();
            let mut outs = Vec::new();
            for (id, o, d) in [
                (1u32, 17u32, 60u32),
                (2, 100, 120),
                (3, 55, 42),
                (4, 199, 150),
            ] {
                let r = request(id, o, d, 1_000_000, u64::MAX / 4);
                let out = if prune {
                    pruned.on_request(&mut state, &r)
                } else {
                    greedy.on_request(&mut state, &r)
                };
                outs.extend(out);
            }
            (outs, oracle.stats().dis)
        };

        let (outs_greedy, q_greedy) = run(false);
        let (outs_pruned, q_pruned) = run(true);
        assert_eq!(outs_greedy, outs_pruned, "Lemma 8 must not change results");
        assert!(
            q_pruned < q_greedy,
            "pruning must save queries: {q_pruned} vs {q_greedy}"
        );
    }

    #[test]
    fn parallel_engine_matches_sequential_outcomes() {
        let oracle = line_counting_oracle(400);
        let origins: Vec<u32> = (0..80).map(|i| (i * 7) % 400).collect();
        let stream: Vec<Request> = (0..30)
            .map(|i| {
                let o = (i * 37) % 390;
                request(i, o, (o + 5 + (i % 7)) % 400, 1_000_000, u64::MAX / 4)
            })
            .collect();

        let run = |prune: bool, threads: usize| -> Vec<(RequestId, Outcome)> {
            let mut state = fresh_state(oracle.clone(), &origins);
            let cfg = PlannerConfig {
                alpha: 1,
                strict_economics: false,
                threads,
            };
            let mut planner: Box<dyn Planner> = if prune {
                Box::new(PruneGreedyDp::from_config(cfg))
            } else {
                Box::new(GreedyDp::from_config(cfg))
            };
            stream
                .iter()
                .flat_map(|r| planner.on_request(&mut state, r))
                .collect()
        };

        for prune in [false, true] {
            let sequential = run(prune, 1);
            // Every decision must be an assignment for the test to be
            // meaningful (all candidates compete).
            assert!(sequential
                .iter()
                .any(|(_, o)| matches!(o, Outcome::Assigned { .. })));
            for threads in [2, 4, 8] {
                assert_eq!(
                    sequential,
                    run(prune, threads),
                    "prune={prune} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn set_threads_reshapes_the_engine() {
        let oracle = line_counting_oracle(100);
        let mut state = fresh_state(oracle, &[0, 40, 80]);
        let mut planner = PruneGreedyDp::new();
        planner.set_threads(4);
        assert_eq!(planner.engine.pool.threads(), 4);
        let r = request(1, 42, 50, 100_000, 1_000_000);
        let out = planner.on_request(&mut state, &r);
        assert!(matches!(out[0].1, Outcome::Assigned { .. }));
        // `0` = one per core (≥ 1 on every platform).
        planner.set_threads(0);
        assert!(planner.engine.pool.threads() >= 1);
    }

    #[test]
    fn cheap_penalty_rejected_in_decision_phase() {
        let oracle = line_counting_oracle(100);
        let mut state = fresh_state(oracle, &[0]);
        let mut planner = PruneGreedyDp::new();
        // Service costs ≥ ~50·150 cs; penalty 10 is cheaper → reject.
        let r = request(1, 50, 55, 1_000_000, 10);
        let out = planner.on_request(&mut state, &r);
        assert_eq!(out[0].1, Outcome::Rejected);
        assert_eq!(state.rejected_count(), 1);
        assert_eq!(state.served_count(), 0);
    }

    #[test]
    fn strict_economics_extension_rejects_at_planning_time() {
        let oracle = line_counting_oracle(100);
        // Euclidean LB equals road distance on this metric? No: road is
        // 150/unit, euclid is 100/unit, so LB < Δ*. Pick a penalty
        // between LB and Δ*: decision accepts, strict planning rejects.
        let mut state = fresh_state(oracle.clone(), &[40]);
        let r = request(1, 50, 55, 1_000_000, 2_000); // LB≈1500+, Δ*=2250
        let mut lax = PruneGreedyDp::new();
        let out = lax.on_request(&mut state, &r);
        assert!(matches!(out[0].1, Outcome::Assigned { .. }));

        let mut state = fresh_state(oracle, &[40]);
        let mut strict = PruneGreedyDp::from_config(PlannerConfig {
            alpha: 1,
            strict_economics: true,
            ..PlannerConfig::default()
        });
        let out = strict.on_request(&mut state, &r);
        assert_eq!(out[0].1, Outcome::Rejected);
    }

    #[test]
    fn congestion_gate_rejects_stretched_infeasible_plans() {
        use road_network::congestion::CongestionProfile;
        let oracle = line_counting_oracle(100);
        for threads in [1usize, 4] {
            let mut state = fresh_state(oracle.clone(), &[0]);
            state.set_congestion(Some(Arc::new(
                CongestionProfile::constant("x2", 2.0).unwrap(),
            )));
            let mut planner = PruneGreedyDp::with_threads(threads);
            // Free-flow delivery at 10·150 + 10·150 = 3000 ≤ 4000, but
            // the 2× profile pushes it to 6000: the gate must reject
            // instead of committing a deadline-violating route.
            let r = request(1, 10, 20, 4_000, u64::MAX / 4);
            let out = planner.on_request(&mut state, &r);
            assert_eq!(out[0].1, Outcome::Rejected, "threads={threads}");
            // With deadline room the same request is served, and the
            // reported Δ stays in free-flow units.
            let r = request(2, 10, 20, 20_000, u64::MAX / 4);
            let out = planner.on_request(&mut state, &r);
            match out[0].1 {
                Outcome::Assigned { delta, .. } => assert_eq!(delta, 3_000, "threads={threads}"),
                Outcome::Rejected => panic!("feasible congested request rejected"),
            }
        }
    }

    #[test]
    fn unreachable_pickup_rejected() {
        let oracle = line_counting_oracle(100);
        let mut state = fresh_state(oracle, &[0]);
        let mut planner = PruneGreedyDp::new();
        // Deadline so tight nobody reaches the pickup.
        let r = request(1, 90, 91, 200, 1_000_000);
        let out = planner.on_request(&mut state, &r);
        assert_eq!(out[0].1, Outcome::Rejected);
    }
}
