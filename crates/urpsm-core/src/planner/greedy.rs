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
//! # The lazily ordered scan
//!
//! A request is planned by one sequential scan on the calling thread
//! (DESIGN.md §5 "The scan"). Lemma 8 usually stops it within a
//! handful of ranks, so `pruneGreedyDP` orders only the first
//! [`FIRST_CHUNK`] ranks of the shortlist before probing. The tail is
//! ordered only if that chunk runs out with `Δ* ≥ LB(last ordered
//! rank)` — every unordered `LB` is at least that one, so the opposite
//! (strict) outcome is exactly "the fully sorted scan would have
//! stopped by now". One request-wide best carries across chunks, and
//! its `Δ` is the pruning bound, so the probe set, the probe order and
//! every `dis` call are those of a scan over the fully sorted list;
//! `GreedyDP` probes everything and orders everything at once.
//!
//! The shortlist grows the same way: candidates are streamed in least
//! key first — an idle grid cell by its nearest point, a busy worker by
//! its route box — and bounded only until the ranks asked for are
//! settled ([`StreamedShortlist`], DESIGN.md §5 "The candidate
//! stream"), so a request bounds the workers its scan can reach, not
//! every one its deadline can.

use road_network::oracle::DistanceOracle;
use road_network::{Cost, INF};
use urpsm_obs::PlanPhase;

use crate::decision::{economic_reject, BoundWork, StreamedShortlist};
use crate::insertion::linear_dp_insertion_with;
use crate::platform::{Outcome, PlatformState};
use crate::route::{InsertionPlan, Route};
use crate::types::{Request, WorkerId};

use super::scratch::PlanScratch;
use super::{reply_one, Planner, PlannerConfig, PlannerReplies};

/// Ranks `pruneGreedyDP` orders before its first probe (the rest only
/// if Lemma 8 has not fired by the end of them). A pure wall-clock
/// heuristic: every value returns the same plan.
const FIRST_CHUNK: usize = 32;

/// The best placement found so far: `(Δ*, worker, plan)`.
type Best = Option<(Cost, WorkerId, InsertionPlan)>;

/// Shared engine for the two DP planners.
#[derive(Debug, Default)]
struct DpEngine {
    cfg: PlannerConfig,
    /// The request's candidates, bounded and ordered ascending by
    /// `(LBΔ*, worker)` a prefix at a time — idle ones streamed in
    /// nearest cell first.
    shortlist: StreamedShortlist,
    /// The probe arena. With the shortlist above this is everything a
    /// steady-state planned insertion needs, so the hot path never
    /// allocates (gated by `tests/alloc_gate.rs`).
    scratch: PlanScratch,
    /// Where the latest `plan` call's wall-clock went, by phase.
    clock: urpsm_obs::PhaseClock,
}

impl DpEngine {
    fn new(cfg: PlannerConfig) -> Self {
        DpEngine {
            cfg,
            ..DpEngine::default()
        }
    }

    fn handle(&mut self, prune: bool, state: &mut PlatformState, r: &Request) -> Outcome {
        let obs_sw = urpsm_obs::Stopwatch::start();
        let (shortlisted, best) = self.plan(prune, state, r);
        let outcome = match best {
            Some((delta, w, plan))
                if !(self.cfg.strict_economics
                    && self.cfg.alpha.saturating_mul(delta) > r.penalty) =>
            {
                state.commit(w, r, &plan);
                Outcome::Assigned { worker: w, delta }
            }
            _ => {
                state.reject(r);
                Outcome::Rejected
            }
        };
        record_plan_obs(&obs_sw, r, shortlisted, &outcome, self);
        outcome
    }

    /// Algo. 4 + Algo. 5 against the read-only platform: the number of
    /// candidates bounded and the winning placement. `None` covers
    /// every rejection — unreachable trip, nobody eligible, the
    /// economic test, no feasible insertion.
    fn plan(&mut self, prune: bool, state: &PlatformState, r: &Request) -> (usize, Best) {
        let DpEngine {
            cfg,
            shortlist,
            scratch,
            clock,
        } = self;
        let oracle = state.oracle_arc();
        let direct = oracle.dis(r.origin, r.destination);
        clock.restart();

        if direct >= INF {
            // No worker can serve an unreachable trip: nothing is keyed.
            shortlist.clear();
            return (0, None);
        }

        // Phase 0 (Algo. 5 line 3): the platform's eligibility seam —
        // grid reachability joined with the class filter. Busy
        // candidates come back keyed by their route boxes, idle ones
        // as the grid cells holding them, in one stream; the engine
        // cannot add a worker to it.
        shortlist.open(state, r, direct);
        clock.lap(PlanPhase::Shortlist);

        // Phase 1 (Algo. 4): lower bounds, the head of the
        // `(LB, worker)` order and the economic test — the bounds and
        // order of `decision_phase`, into `clear()`-reused storage, for
        // only as many candidates as the head needs. No `dis` query.
        let first = if prune { FIRST_CHUNK } else { usize::MAX };
        shortlist.bound_through(state, first);
        clock.lap(PlanPhase::Bounds);
        shortlist.order_through(state, first);
        clock.lap(PlanPhase::Order);
        if economic_reject(cfg.alpha, r, shortlist.min_lb()) {
            return (shortlist.bounded(), None);
        }

        // Phase 2 (Algo. 5 lines 6–10): the exact scan in ascending LB
        // order, one ordered chunk at a time, against one request-wide
        // best.
        let mut best: Best = None;
        let mut start = 0;
        loop {
            let end = shortlist.ordered();
            probe(
                shortlist,
                start..end,
                &mut best,
                scratch,
                prune,
                state,
                r,
                &*oracle,
            );
            clock.lap(PlanPhase::Probe);

            // Lemma 8 across chunks: every LB not yet ordered — bounded
            // or still in the stream — is at least the last ordered one,
            // so a best Δ strictly below that one has already stopped
            // the scan.
            if shortlist.is_exhausted() || (prune && below(&best, shortlist.get(end - 1).0)) {
                break;
            }
            shortlist.bound_through(state, usize::MAX);
            clock.lap(PlanPhase::Bounds);
            shortlist.order_through(state, usize::MAX);
            clock.lap(PlanPhase::Order);
            start = end;
        }
        (shortlist.bounded(), best)
    }
}

/// Lemma 8's strict break: the best `Δ*` found lies below `lb`.
fn below(best: &Best, lb: Cost) -> bool {
    best.as_ref().is_some_and(|(delta, _, _)| *delta < lb)
}

/// Record one planner invocation into the registry: latency,
/// per-phase and shortlist-size histograms, the ranks it ordered,
/// outcome counters, and a `PlanRequest` trace record. The trace's
/// probe word carries the *cumulative* `plan_probes` counter at record
/// time — consumers diff consecutive records to recover per-request
/// probe counts; only concurrent `experiments --parallel` cells can
/// share the counters and blur that diff.
fn record_plan_obs(
    sw: &urpsm_obs::Stopwatch,
    r: &Request,
    shortlist: usize,
    outcome: &Outcome,
    engine: &DpEngine,
) {
    let delta = match outcome {
        Outcome::Assigned { delta, .. } => Some(*delta),
        Outcome::Rejected => None,
    };
    urpsm_obs::with(|m| {
        if let Some(ns) = sw.elapsed_ns() {
            m.plan_latency_ns.record(ns);
        }
        m.plan_requests.inc();
        m.plan_shortlist_len.record(shortlist as u64);
        m.plan_ordered_ranks.add(engine.shortlist.ordered() as u64);
        engine.clock.record_into(&m.plan_phase_ns);
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

/// The planning phase — Algo. 5's loop over the ordered ranks
/// `ranks`: stop on Lemma 8, probe, keep the `(Δ, worker)`-smallest
/// feasible plan in `best`, whose `Δ` is the pruning bound. Between
/// chunks `best` carries over, so the chunked scan probes what one
/// scan over the fully sorted list probes, in the same order.
#[allow(clippy::too_many_arguments)]
fn probe(
    shortlist: &StreamedShortlist,
    ranks: std::ops::Range<usize>,
    best: &mut Best,
    scratch: &mut PlanScratch,
    prune: bool,
    state: &PlatformState,
    r: &Request,
    oracle: &dyn DistanceOracle,
) {
    let PlanScratch { insertion, retimed } = scratch;
    for rank in ranks {
        let (lb, w) = shortlist.get(rank);
        // Lemma 8: every remaining worker's exact Δ* is at least its
        // LB, which already exceeds the best found.
        if prune && below(best, lb) {
            break;
        }
        let (route, capacity) = state.candidate(w, retimed);
        urpsm_obs::with(|m| m.plan_probes.inc());
        let Some(plan) = linear_dp_insertion_with(insertion, route, capacity, r, oracle) else {
            continue;
        };
        // A plan that does not beat the best cannot become the argmin
        // or lower the bound: skipping it leaves the probe set, the
        // probe order and the decision unchanged, and spares it the
        // gate below.
        if best
            .as_ref()
            .is_some_and(|(bd, bw, _)| (plan.delta, w) >= (*bd, *bw))
        {
            continue;
        }
        // Free-flow plans are optimistic under a congestion profile:
        // re-check the stretched schedule before letting the candidate
        // compete (DESIGN.md §7). Free-flow and flat-profile runs skip
        // this branch entirely. Only a *feasible* Δ may become the
        // bound, otherwise an infeasible candidate could prune the
        // true winner.
        if route.time_dependent() && !gate(route, &plan, r, capacity) {
            continue;
        }
        if prune && best.as_ref().is_none_or(|(bd, _, _)| plan.delta < *bd) {
            urpsm_obs::with(|m| m.plan_bound_improvements.inc());
        }
        *best = Some((plan.delta, w, plan));
    }
}

/// The congested insertion gate, [`Route::insertion_feasible`]. A
/// recording build adds the TD distance-cache misses the call caused to
/// `plan_gate_td_misses`, read as the change in the process-wide
/// `td_dis_misses` across it: only a concurrent `experiments
/// --parallel` cell, sharing the process-wide counters, can lend it
/// misses of its own.
fn gate(route: &Route, plan: &InsertionPlan, r: &Request, capacity: u32) -> bool {
    if !urpsm_obs::RECORDING {
        return route.insertion_feasible(plan, r, capacity);
    }
    let misses = || urpsm_obs::registry().td_dis_misses.get();
    let before = misses();
    let feasible = route.insertion_feasible(plan, r, capacity);
    urpsm_obs::with(|m| m.plan_gate_td_misses.add(misses().saturating_sub(before)));
    feasible
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

    /// [`PruneGreedyDp::new`]: the width is a no-op kept for callers
    /// written against the retired per-request fan-out. Every width
    /// runs the one sequential scan.
    pub fn with_threads(_threads: usize) -> Self {
        Self::new()
    }

    /// The exact lower bounds the decision phase computed over every
    /// request this planner handled.
    pub fn bound_work(&self) -> BoundWork {
        self.engine.shortlist.work()
    }
}

impl Planner for PruneGreedyDp {
    fn name(&self) -> &'static str {
        "pruneGreedyDP"
    }

    fn on_request(&mut self, state: &mut PlatformState, r: &Request) -> PlannerReplies {
        reply_one(r.id, self.engine.handle(true, state, r))
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
}

impl Planner for GreedyDp {
    fn name(&self) -> &'static str {
        "GreedyDP"
    }

    fn on_request(&mut self, state: &mut PlatformState, r: &Request) -> PlannerReplies {
        reply_one(r.id, self.engine.handle(false, state, r))
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

    fn fresh_state(oracle: Arc<dyn DistanceOracle>, origins: &[u32]) -> PlatformState {
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

    /// Two river banks joined by one bridge at their `0` ends: bank A
    /// is vertices `0..BANK` at `(k, 0)`, bank B is `BANK..2·BANK` at
    /// `(k, 1)`. A worker across the river is one metre away as the
    /// crow flies (tiny `LB`) and a drive over the bridge away by road
    /// (huge `Δ`) — the shape that keeps a Lemma-8 scan going.
    const BANK: u32 = 150;

    fn river_oracle() -> Arc<CountingOracle<MatrixOracle>> {
        let n = 2 * BANK as usize;
        // Distance to the bridge end of the vertex's own bank.
        let off = |v: usize| (v % BANK as usize) as u64;
        let rows: Vec<Vec<u64>> = (0..n)
            .map(|u| {
                (0..n)
                    .map(|v| {
                        if u / BANK as usize == v / BANK as usize {
                            off(u).abs_diff(off(v)) * 150
                        } else {
                            (off(u) + 1 + off(v)) * 150
                        }
                    })
                    .collect()
            })
            .collect();
        let points = (0..n)
            .map(|v| Point::new(off(v) as f64, (v / BANK as usize) as f64))
            .collect();
        Arc::new(CountingOracle::new(MatrixOracle::from_matrix(
            &rows, points, 1.0,
        )))
    }

    /// 220 idle workers, all in range of every request: ids `0..80` on
    /// one bank-A vertex (a plateau of equal bounds), `80..120` on one
    /// bank-B vertex, `120..220` spread along bank A.
    fn river_fleet() -> Vec<u32> {
        let mut origins = vec![50; 80];
        origins.extend([BANK + 100; 40]);
        origins.extend((0..100).map(|i| (i * 3) % BANK));
        origins
    }

    fn river_stream() -> Vec<Request> {
        let mut stream = vec![
            // (a) 80 workers tie at `LB = Δ = L`: the strict break never
            // fires on the plateau, so the first chunk runs out.
            request(0, 50, 60, 1_000_000, u64::MAX / 4),
            // The 40 workers across the river fill the first chunk with
            // `LB = L + 100`, `Δ = L + 30 150`; the winner, on this
            // bank one vertex away, sits behind them at rank 40.
            request(1, 100, 110, 1_000_000, u64::MAX / 4),
            // (b) cheaper to reject than to serve.
            request(2, 20, 30, 1_000_000, 10),
        ];
        // Then routes fill up: both banks, some deadlines too tight.
        stream.extend((3..40u32).map(|i| {
            let o = (i * 67) % (2 * BANK);
            let d = (o / BANK) * BANK + (o % BANK + 3 + i % 11) % BANK;
            let deadline = if i % 5 == 0 { 2_500 } else { 1_000_000 };
            request(i, o, d, deadline, u64::MAX / 4)
        }));
        stream
    }

    /// Algo. 5 written against the public decision phase: a full sort,
    /// then the ascending scan with the strict Lemma-8 break. Under a
    /// congestion profile every plan found is gated, winner or not, and
    /// only a feasible one competes.
    fn reference_on_request(state: &mut PlatformState, r: &Request) -> Outcome {
        use crate::decision::decision_phase;
        use crate::insertion::linear_dp_insertion;
        let oracle = state.oracle_arc();
        let direct = oracle.dis(r.origin, r.destination);
        let mut buf = crate::platform::CandidateBuf::new();
        let eligible = state.candidate_workers(r, direct, &mut buf);
        let decision = decision_phase(1, state, eligible, r, direct);
        let mut best: Best = None;
        if !decision.reject {
            let mut spare = crate::route::Route::default();
            for (lb, w) in decision.lower_bounds {
                if best.as_ref().is_some_and(|(delta, _, _)| *delta < lb) {
                    break;
                }
                let (route, capacity) = state.candidate(w, &mut spare);
                let plan = linear_dp_insertion(route, capacity, r, &*oracle);
                if let Some(plan) = plan {
                    if route.time_dependent() && !route.insertion_feasible(&plan, r, capacity) {
                        continue;
                    }
                    if best
                        .as_ref()
                        .is_none_or(|(delta, bw, _)| (plan.delta, w) < (*delta, *bw))
                    {
                        best = Some((plan.delta, w, plan));
                    }
                }
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

    #[test]
    fn chunked_scan_equals_the_full_sort_reference_scan() {
        let oracle = river_oracle();
        let stream = river_stream();
        // One decision and its `dis` bill per request.
        let run = |decide: &mut dyn FnMut(&mut PlatformState, &Request) -> Outcome| {
            let mut state = fresh_state(oracle.clone(), &river_fleet());
            stream
                .iter()
                .map(|r| {
                    oracle.reset();
                    let outcome = decide(&mut state, r);
                    (outcome, oracle.stats().dis)
                })
                .collect::<Vec<_>>()
        };
        let engine_at = |threads: usize| {
            let mut planner = PruneGreedyDp::with_threads(threads);
            run(&mut |state, r| planner.on_request(state, r)[0].1)
        };

        let reference = run(&mut reference_on_request);
        // The width is a no-op: every width bills the reference's `dis`
        // calls, request by request.
        for threads in [1, 2, 4] {
            assert_eq!(
                engine_at(threads),
                reference,
                "width {threads}: outcomes and dis counts"
            );
        }

        // The fixture exercises what it claims to.
        assert_eq!(
            reference[0].0,
            Outcome::Assigned {
                worker: WorkerId(0),
                delta: 1_500
            }
        );
        assert!(reference[0].1 >= 80, "the whole plateau is probed");
        let behind_the_river = WorkerId(120 + 33); // bank A, vertex 99
        assert_eq!(
            reference[1].0,
            Outcome::Assigned {
                worker: behind_the_river,
                delta: 1_500 + 150
            }
        );
        assert_eq!(reference[2], (Outcome::Rejected, 1), "(b) one query");
        let served = reference.iter().filter(|(o, _)| *o != Outcome::Rejected);
        assert!((20..stream.len() - 1).contains(&served.count()));
    }

    /// The congested twin of the test above. Under a 2× profile the
    /// engine gates only a plan that beats its best so far, while the
    /// reference gates every plan. At every width the decisions and the
    /// static `dis` bills must be the reference's, while the engine asks
    /// the provider strictly fewer questions.
    #[test]
    fn gating_only_plans_that_can_win_is_exact_and_cheaper() {
        use crate::route::CountingProvider;
        use road_network::congestion::CongestionProfile;
        let oracle = river_oracle();
        let stream = river_stream();
        let provider = Arc::new(CountingProvider::new(
            CongestionProfile::constant("x2", 2.0).expect("valid"),
        ));
        // Decisions with their `dis` bills, and the run's provider calls.
        let run =
            |congested: bool, decide: &mut dyn FnMut(&mut PlatformState, &Request) -> Outcome| {
                let mut state = fresh_state(oracle.clone(), &river_fleet());
                if congested {
                    state.set_congestion(Some(provider.clone()));
                }
                let before = provider.calls();
                let decided = stream
                    .iter()
                    .map(|r| {
                        oracle.reset();
                        let outcome = decide(&mut state, r);
                        (outcome, oracle.stats().dis)
                    })
                    .collect::<Vec<_>>();
                (decided, provider.calls() - before)
            };
        let engine_at = |threads: usize| {
            let mut planner = PruneGreedyDp::with_threads(threads);
            run(true, &mut |state, r| planner.on_request(state, r)[0].1)
        };

        let (reference, reference_calls) = run(true, &mut reference_on_request);
        let (engine, engine_calls) = engine_at(1);
        assert_eq!(engine, reference, "width 1: outcomes and dis counts");
        assert!(
            engine_calls < reference_calls,
            "gating only plans that can win must save provider calls: \
             {engine_calls} vs {reference_calls}"
        );
        for threads in [2, 4] {
            assert_eq!(
                engine_at(threads),
                (engine.clone(), engine_calls),
                "width {threads}: outcomes, dis counts and provider calls"
            );
        }

        // The fixture exercises what it claims to: the gate rejects
        // plans (the stretched schedule changes decisions), yet most
        // requests are still served.
        let (free_flow, _) = run(false, &mut reference_on_request);
        assert_ne!(reference, free_flow, "the 2× profile must bite");
        let served = reference.iter().filter(|(o, _)| *o != Outcome::Rejected);
        assert!(served.count() >= 20);
    }

    #[test]
    fn cheap_penalty_rejected_in_decision_phase() {
        // 80 candidates, and not one is probed: an economic reject
        // costs the one `dis(o_r, d_r)` query and nothing else.
        let origins: Vec<u32> = (0..80).map(|i| i * 2).collect();
        let oracle = line_counting_oracle(200);
        let mut state = fresh_state(oracle.clone(), &origins);
        let mut planner = PruneGreedyDp::new();
        let outs: Vec<(RequestId, Outcome)> = (0..20u32)
            .flat_map(|i| {
                // Service costs ≥ 5 units of road; penalty 10 is
                // cheaper → reject.
                let r = request(i, 20 + i * 7, 25 + i * 7, 1_000_000, 10);
                planner.on_request(&mut state, &r)
            })
            .collect();
        assert!(outs.iter().all(|(_, o)| *o == Outcome::Rejected));
        assert_eq!(state.rejected_count(), 20);
        assert_eq!(state.served_count(), 0);
        assert_eq!(oracle.stats().dis, 20);
    }

    /// Forwards to the line oracle, except that one vertex pair panics.
    struct PoisonedPair {
        inner: Arc<CountingOracle<MatrixOracle>>,
        pair: (VertexId, VertexId),
    }

    impl DistanceOracle for PoisonedPair {
        fn num_vertices(&self) -> usize {
            self.inner.num_vertices()
        }
        fn point(&self, v: VertexId) -> Point {
            self.inner.point(v)
        }
        fn top_speed_mps(&self) -> f64 {
            self.inner.top_speed_mps()
        }
        fn dis(&self, u: VertexId, v: VertexId) -> Cost {
            if (u, v) == self.pair || (v, u) == self.pair {
                panic!("poisoned pair {u:?}–{v:?}");
            }
            self.inner.dis(u, v)
        }
        fn shortest_path(&self, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
            self.inner.shortest_path(u, v)
        }
    }

    #[test]
    fn probe_panic_reaches_the_caller_and_the_engine_stays_usable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // GreedyDP probes every one of the 80 idle candidates, so it is
        // certain to ask for worker 75's approach leg (vertex 150 →
        // pickup 100) and panic mid-scan.
        let origins: Vec<u32> = (0..80).map(|i| i * 2).collect();
        let line = line_counting_oracle(200);
        let poisoned: Arc<dyn DistanceOracle> = Arc::new(PoisonedPair {
            inner: line.clone(),
            pair: (VertexId(150), VertexId(100)),
        });
        let mut state = fresh_state(poisoned, &origins);
        let mut planner = GreedyDp::new();
        let r1 = request(1, 100, 110, 1_000_000, u64::MAX / 4);
        let caught = catch_unwind(AssertUnwindSafe(|| planner.on_request(&mut state, &r1)));
        let payload = caught.expect_err("the probe panic must reach the caller");
        assert!(payload
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("poisoned pair")));
        // Planning is read-only until the commit: nothing was decided.
        assert_eq!(state.served_count() + state.rejected_count(), 0);

        // Same planner, same state, next request: decided exactly as a
        // fresh planner on a fresh platform decides it.
        let r2 = request(2, 60, 70, 1_000_000, u64::MAX / 4);
        let after = planner.on_request(&mut state, &r2);
        let mut clean = fresh_state(line, &origins);
        assert_eq!(after, GreedyDp::new().on_request(&mut clean, &r2));
        assert!(matches!(after[0].1, Outcome::Assigned { .. }));
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
        });
        let out = strict.on_request(&mut state, &r);
        assert_eq!(out[0].1, Outcome::Rejected);
    }

    #[test]
    fn congestion_gate_rejects_stretched_infeasible_plans() {
        use road_network::congestion::CongestionProfile;
        let oracle = line_counting_oracle(100);
        let mut state = fresh_state(oracle, &[0]);
        state.set_congestion(Some(Arc::new(
            CongestionProfile::constant("x2", 2.0).unwrap(),
        )));
        let mut planner = PruneGreedyDp::new();
        // Free-flow delivery at 10·150 + 10·150 = 3000 ≤ 4000, but the
        // 2× profile pushes it to 6000: the gate must reject instead of
        // committing a deadline-violating route.
        let r = request(1, 10, 20, 4_000, u64::MAX / 4);
        let out = planner.on_request(&mut state, &r);
        assert_eq!(out[0].1, Outcome::Rejected);
        // With deadline room the same request is served, and the
        // reported Δ stays in free-flow units.
        let r = request(2, 10, 20, 20_000, u64::MAX / 4);
        let out = planner.on_request(&mut state, &r);
        match out[0].1 {
            Outcome::Assigned { delta, .. } => assert_eq!(delta, 3_000),
            Outcome::Rejected => panic!("feasible congested request rejected"),
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
