//! The decision phase (Algo. 4).
//!
//! For each candidate worker, compute the Euclidean lower bound `LBΔ*`
//! of the increased distance that serving the new request would cost
//! (§5.1, one real `dis` query shared across all workers). The request
//! is rejected outright when its penalty is cheaper than the best
//! possible service cost: `p_r < α · min LB` — serving could only ever
//! cost more than rejecting.
//!
//! The returned list of `(LBΔ*, worker)` pairs, sorted ascending, is
//! reused by the planning phase as the scan order for the pre-ordered
//! pruning of Lemma 8.

use road_network::Cost;

use crate::lower_bound::{idle_lower_bound, insertion_lower_bound};
use crate::platform::{CandidateStream, EligibleCandidates, PlatformState};
use crate::shortlist::Shortlist;
use crate::types::{Request, WorkerId};

/// Output of the decision phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionOutcome {
    /// `(LBΔ*, worker)` sorted ascending by bound then worker id.
    /// Workers for which even the relaxed checks admit no placement
    /// are omitted — no exact placement can exist either.
    pub lower_bounds: Vec<(Cost, WorkerId)>,
    /// `true` when the request should be rejected: either no worker
    /// can possibly serve it, or `p_r < α · min LB`.
    pub reject: bool,
}

impl DecisionOutcome {
    /// The smallest lower bound, if any worker can serve.
    pub fn min_lower_bound(&self) -> Option<Cost> {
        self.lower_bounds.first().map(|(lb, _)| *lb)
    }
}

/// Runs Algo. 4 over the platform's eligibility shortlist. `direct` is
/// `L = dis(o_r, d_r)`, queried once by the caller. Taking the opaque
/// [`EligibleCandidates`] view (rather than raw worker ids) means every
/// caller — in-tree planners and external baselines alike — can only
/// score workers the platform seam cleared. An idle worker is bounded
/// from its head-plane entry ([`idle_lower_bound`]); only a busy one's
/// agent is read.
pub fn decision_phase(
    alpha: u64,
    state: &PlatformState,
    candidates: EligibleCandidates<'_>,
    r: &Request,
    direct: Cost,
) -> DecisionOutcome {
    let oracle = state.oracle();
    let mut lower_bounds = Vec::with_capacity(candidates.len());
    for w in candidates.iter() {
        let head = state.head(w);
        let lb = if head.idle {
            idle_lower_bound(&head, state.now(), r, direct, oracle)
        } else {
            let agent = state.agent(w);
            insertion_lower_bound(&agent.route, head.capacity, r, direct, oracle)
        };
        if let Some(lb) = lb {
            lower_bounds.push((lb, w));
        }
    }
    lower_bounds.sort_unstable();
    let reject = economic_reject(alpha, r, lower_bounds.first().map(|(lb, _)| *lb));
    DecisionOutcome {
        lower_bounds,
        reject,
    }
}

/// Algo. 4 as the DP engine runs it: the `(LBΔ*, worker)` list of
/// [`decision_phase`], grown only as far as the scan reads it
/// (DESIGN.md §5, "The candidate stream"). Candidates are pulled off the
/// platform's [`CandidateStream`] in ascending key order — a busy
/// worker keyed by its route box, bounded alone; an idle cell keyed by
/// its nearest point, bounded a cell at a time. Rank `k` is settled once
/// `k + 1` bounds lie strictly below the next key, which no candidate
/// left in the stream can undercut — so whatever the sequence of
/// [`StreamedShortlist::order_through`] calls, the ordered prefix and
/// [`StreamedShortlist::min_lb`] are those of [`decision_phase`]'s full
/// sort over [`PlatformState::candidate_workers`]. Buffers are reused
/// across requests.
#[derive(Debug, Default)]
pub struct StreamedShortlist {
    shortlist: Shortlist,
    source: CandidateStream,
    /// The settle test's running count, for the request opened last.
    settle: SettleCount,
    /// The exact bounds computed so far, over every request.
    work: BoundWork,
}

/// How many of a shortlist's bounds lie strictly below a key that only
/// rises — the stream's next key — without a rescan per pull: `below`
/// of the first `counted` bounds lie below the key last asked about,
/// and the least of the others is `least_above`. A bound counted above
/// stays above until the key passes `least_above`; then one rescan
/// moves at least that bound below, so a test for `end` ranks rescans
/// at most `end` times.
#[derive(Debug, Default)]
struct SettleCount {
    below: usize,
    counted: usize,
    least_above: Cost,
}

impl SettleCount {
    /// Forgets every bound.
    fn clear(&mut self) {
        *self = SettleCount {
            least_above: Cost::MAX,
            ..SettleCount::default()
        };
    }

    /// How many of `bounds` (in push order, a prefix of them counted
    /// before) lie strictly below `key`, which is no lower than any key
    /// asked about since the last `clear`.
    fn below(&mut self, bounds: &[Cost], key: Cost) -> usize {
        if key > self.least_above {
            self.clear();
        }
        for &lb in &bounds[self.counted..] {
            if lb < key {
                self.below += 1;
            } else {
                self.least_above = self.least_above.min(lb);
            }
        }
        self.counted = bounds.len();
        self.below
    }
}

/// What the decision phase paid for in exact bounds, summed over every
/// request a [`StreamedShortlist`] was opened for. Both are
/// deterministic counts — the work gate (`tests/work_gate.rs`) pins
/// them, so a change to how many candidates the phase bounds is a diff
/// of two constants.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BoundWork {
    /// [`insertion_lower_bound`] evaluations: busy candidates bounded.
    pub exact: u64,
    /// Route positions those evaluations visited (each costs two
    /// `euc` calls).
    pub positions: u64,
}

impl StreamedShortlist {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts the list for `r` (`direct` is `L = dis(o_r, d_r)`): the
    /// platform keys every eligible candidate into one stream. Nothing
    /// is bounded or ordered yet.
    pub fn open(&mut self, state: &PlatformState, r: &Request, direct: Cost) {
        self.clear();
        state.open_candidate_stream(r, direct, &mut self.source);
    }

    /// Empties the list: no candidate is left, none is bounded or
    /// ordered.
    pub fn clear(&mut self) {
        self.shortlist.clear();
        self.settle.clear();
        self.source.clear();
    }

    /// Pulls candidates until ranks `..end` are settled or none is
    /// left.
    pub fn bound_through(&mut self, state: &PlatformState, end: usize) {
        while let Some(bound) = self.source.next_bound() {
            // The `end`-th smallest key is below `bound` exactly when
            // `end` keys are.
            let bounds = self.shortlist.bounds();
            if bounds.len() >= end && self.settle.below(bounds, bound) >= end {
                break;
            }
            state.pull_candidate(&mut self.source, &mut self.shortlist, &mut self.work);
        }
    }

    /// Extends the ordered prefix to ranks `..end`, clamped to the
    /// number of candidates that survive the bounds.
    pub fn order_through(&mut self, state: &PlatformState, end: usize) {
        self.bound_through(state, end);
        self.shortlist.order_through(end);
    }

    /// Number of leading ranks in final ascending `(LB, worker)` order.
    pub fn ordered(&self) -> usize {
        self.shortlist.ordered()
    }

    /// The `rank`-th `(LB, worker)`; `rank` must lie in the ordered
    /// prefix.
    pub fn get(&self, rank: usize) -> (Cost, WorkerId) {
        self.shortlist.get(rank)
    }

    /// The smallest lower bound, `None` when no candidate survived.
    /// Valid once [`StreamedShortlist::order_through`] has run with
    /// `end ≥ 1`.
    pub fn min_lb(&self) -> Option<Cost> {
        self.shortlist.min_lb()
    }

    /// Whether every candidate is bounded and ordered: nothing is left
    /// to scan.
    pub fn is_exhausted(&self) -> bool {
        self.source.next_bound().is_none() && self.ordered() == self.shortlist.len()
    }

    /// Candidates bounded so far: the busy workers pulled, and the
    /// eligible idle workers in visited cells.
    pub fn bounded(&self) -> usize {
        self.source.bounded()
    }

    /// The exact bounds computed so far, over every request.
    pub fn work(&self) -> BoundWork {
        self.work
    }
}

/// The economic rejection test of Algo. 4, shared by the `Vec`-based
/// [`decision_phase`] and the DP engine's SoA shortlist path: reject when
/// no worker can serve at all, or when `p_r < α · min LB` — serving
/// could only ever cost more than rejecting.
pub(crate) fn economic_reject(alpha: u64, r: &Request, min_lb: Option<Cost>) -> bool {
    match min_lb {
        None => true,
        Some(min_lb) => r.penalty < alpha.saturating_mul(min_lb),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{RequestId, Time, Worker};
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;
    use road_network::oracle::DistanceOracle;
    use road_network::VertexId;
    use std::sync::Arc;

    /// Road distances 2× the Euclidean time (so LB < Δ*).
    fn oracle(n: usize) -> Arc<dyn DistanceOracle> {
        let rows: Vec<Vec<u64>> = (0..n)
            .map(|u| (0..n).map(|v| (u.abs_diff(v) as u64) * 200).collect())
            .collect();
        let points = (0..n).map(|k| Point::new(k as f64, 0.0)).collect();
        Arc::new(MatrixOracle::from_matrix(&rows, points, 1.0))
    }

    fn state(worker_vertices: &[u32]) -> PlatformState {
        let o = oracle(100);
        let ws: Vec<Worker> = worker_vertices
            .iter()
            .enumerate()
            .map(|(i, &v)| Worker {
                class: Default::default(),
                id: WorkerId(i as u32),
                origin: VertexId(v),
                capacity: 4,
            })
            .collect();
        PlatformState::new(o, &ws, 10.0, 0)
    }

    fn request(o: u32, d: u32, deadline: Time, penalty: u64) -> Request {
        Request {
            class: Default::default(),
            id: RequestId(0),
            origin: VertexId(o),
            destination: VertexId(d),
            release: 0,
            deadline,
            penalty,
            capacity: 1,
        }
    }

    #[test]
    fn bounds_sorted_and_closest_worker_first() {
        let state = state(&[0, 10, 40]);
        let r = request(12, 20, 100_000, 1_000_000);
        let cands = vec![WorkerId(0), WorkerId(1), WorkerId(2)];
        let direct = state.oracle().dis(r.origin, r.destination);
        let out = decision_phase(1, &state, EligibleCandidates::from_ids(&cands), &r, direct);
        assert!(!out.reject);
        assert_eq!(out.lower_bounds.len(), 3);
        // Worker 1 (at x=10) is nearest the pickup at x=12.
        assert_eq!(out.lower_bounds[0].1, WorkerId(1));
        let lbs: Vec<u64> = out.lower_bounds.iter().map(|(lb, _)| *lb).collect();
        let mut sorted = lbs.clone();
        sorted.sort_unstable();
        assert_eq!(lbs, sorted);
    }

    #[test]
    fn cheap_penalty_triggers_rejection() {
        let state = state(&[0]);
        // Serving costs at least the LB (≈ euclidean 50+8); a penalty of
        // 1 is always cheaper, so reject.
        let r = request(50, 58, 100_000, 1);
        let direct = state.oracle().dis(r.origin, r.destination);
        let out = decision_phase(
            1,
            &state,
            EligibleCandidates::from_ids(&[WorkerId(0)]),
            &r,
            direct,
        );
        assert!(out.reject);
        assert!(out.min_lower_bound().unwrap() > 1);
    }

    #[test]
    fn alpha_zero_never_rejects_by_economics() {
        let state = state(&[0]);
        let r = request(50, 58, 100_000, 1);
        let direct = state.oracle().dis(r.origin, r.destination);
        let out = decision_phase(
            0,
            &state,
            EligibleCandidates::from_ids(&[WorkerId(0)]),
            &r,
            direct,
        );
        assert!(!out.reject, "α = 0 makes any service free in Eq. 1");
    }

    #[test]
    fn no_candidates_rejects() {
        let state = state(&[0]);
        let r = request(5, 6, 100_000, 1_000);
        let out = decision_phase(1, &state, EligibleCandidates::from_ids(&[]), &r, 200);
        assert!(out.reject);
        assert!(out.min_lower_bound().is_none());
    }

    #[test]
    fn impossible_deadline_prunes_worker_from_list() {
        let state = state(&[0, 50]);
        // Pickup at 49 must happen almost immediately: worker 0 (at 0)
        // can't even straight-line there, worker 1 (at 50) can.
        let r = request(49, 50, 300, 1_000_000);
        let direct = state.oracle().dis(r.origin, r.destination); // 200
        let out = decision_phase(
            1,
            &state,
            EligibleCandidates::from_ids(&[WorkerId(0), WorkerId(1)]),
            &r,
            direct,
        );
        assert_eq!(out.lower_bounds.len(), 1);
        assert_eq!(out.lower_bounds[0].1, WorkerId(1));
    }
}
