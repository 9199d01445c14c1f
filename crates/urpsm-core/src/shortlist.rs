//! Cache-conscious candidate shortlist for the planning hot path.
//!
//! The decision phase (Algo. 4) produces, per request, a list of
//! `(LBΔ*, worker)` pairs sorted ascending by bound — the scan order of
//! the pre-ordered pruning of Lemma 8. [`Shortlist`] stores that list
//! as a structure-of-arrays: lower bounds and worker ids live in two
//! parallel arrays and the ascending order is a single sorted
//! permutation over them. The layout serves two masters:
//!
//! * **Zero steady-state allocation** — the arrays are owned by the
//!   planner engine and `clear()`-reused across requests, so after
//!   warm-up a request never grows them.
//! * **Cache behaviour** — the permutation sort touches only `u32`
//!   indices and reads the dense `lbs` column, instead of shuffling
//!   16-byte tuples.
//!
//! Ordering is byte-compatible with the historical
//! `Vec<(Cost, WorkerId)>::sort_unstable()`: the sort key is the pair
//! `(lbs[i], workers[i])`, and worker ids are unique within one
//! request's candidate set, so the key is a total order and the
//! permutation is unique — push order cannot leak into the scan order.

use road_network::Cost;

use crate::types::WorkerId;

/// Sink for the Algo. 4 lower-bound loop
/// (`crate::decision::collect_lower_bounds`): the public decision
/// phase appends to a plain `Vec` (its `DecisionOutcome` contract),
/// while the DP engine appends straight into its reusable
/// [`Shortlist`]. One trait keeps the survivor filter itself
/// shared — it can never diverge between the two representations.
pub(crate) trait LowerBoundSink {
    /// Append one surviving `(LBΔ*, worker)` pair.
    fn push_bound(&mut self, lb: Cost, w: WorkerId);
}

impl LowerBoundSink for Vec<(Cost, WorkerId)> {
    fn push_bound(&mut self, lb: Cost, w: WorkerId) {
        self.push((lb, w));
    }
}

/// The SoA candidate shortlist. See the module docs for layout and
/// ordering guarantees.
#[derive(Debug, Default, Clone)]
pub(crate) struct Shortlist {
    /// Lower bounds, in push order.
    lbs: Vec<Cost>,
    /// Worker ids, in push order (`workers[i]` pairs with `lbs[i]`).
    workers: Vec<WorkerId>,
    /// Ascending `(lb, worker)` order over the two columns; valid
    /// after [`Shortlist::sort_by_bound`].
    perm: Vec<u32>,
}

impl Shortlist {
    /// An empty shortlist (no buffers yet — they grow on first use and
    /// are retained across [`Shortlist::clear`]).
    pub fn new() -> Self {
        Shortlist::default()
    }

    /// Drops all entries but keeps the allocated capacity.
    pub fn clear(&mut self) {
        self.lbs.clear();
        self.workers.clear();
        self.perm.clear();
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.lbs.len()
    }

    /// `true` when no candidate survived the lower-bound filter.
    pub fn is_empty(&self) -> bool {
        self.lbs.is_empty()
    }

    /// Sorts the permutation ascending by `(lb, worker)` — the exact
    /// total order of the historical tuple sort. `sort_unstable` on the
    /// index column is in-place: no allocation on the hot path.
    pub fn sort_by_bound(&mut self) {
        debug_assert_eq!(self.lbs.len(), self.workers.len());
        self.perm.clear();
        self.perm.extend(0..self.lbs.len() as u32);
        let (lbs, workers) = (&self.lbs, &self.workers);
        self.perm
            .sort_unstable_by_key(|&i| (lbs[i as usize], workers[i as usize]));
    }

    /// The `rank`-th entry in ascending `(lb, worker)` order. Only
    /// meaningful after [`Shortlist::sort_by_bound`].
    pub fn get(&self, rank: usize) -> (Cost, WorkerId) {
        let i = self.perm[rank] as usize;
        (self.lbs[i], self.workers[i])
    }

    /// The smallest lower bound (entry 0 of the sorted order), if any
    /// candidate survived. Feeds the economic gate `p_r < α · min LB`.
    pub fn min_lb(&self) -> Option<Cost> {
        if self.is_empty() {
            None
        } else {
            Some(self.get(0).0)
        }
    }

    /// Iterates entries in ascending `(lb, worker)` order.
    #[cfg(test)]
    pub fn iter_sorted(&self) -> impl Iterator<Item = (Cost, WorkerId)> + '_ {
        (0..self.len()).map(move |rank| self.get(rank))
    }
}

impl LowerBoundSink for Shortlist {
    fn push_bound(&mut self, lb: Cost, w: WorkerId) {
        self.lbs.push(lb);
        self.workers.push(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(shortlist: &Shortlist) -> Vec<(Cost, WorkerId)> {
        shortlist.iter_sorted().collect()
    }

    fn extend(shortlist: &mut Shortlist, raw: &[(Cost, WorkerId)]) {
        for &(lb, w) in raw {
            shortlist.push_bound(lb, w);
        }
    }

    #[test]
    fn sorted_order_matches_tuple_sort() {
        let raw = [
            (300u64, WorkerId(7)),
            (100, WorkerId(9)),
            (300, WorkerId(2)),
            (50, WorkerId(4)),
            (100, WorkerId(1)),
        ];
        let mut shortlist = Shortlist::new();
        extend(&mut shortlist, &raw);
        shortlist.sort_by_bound();

        let mut expect = raw.to_vec();
        expect.sort_unstable();
        assert_eq!(pairs(&shortlist), expect);
        assert_eq!(shortlist.min_lb(), Some(50));
        assert_eq!(shortlist.len(), 5);
    }

    #[test]
    fn clear_reuses_capacity() {
        let mut shortlist = Shortlist::new();
        extend(&mut shortlist, &[(10, WorkerId(0)), (20, WorkerId(1))]);
        shortlist.sort_by_bound();
        let caps = (
            shortlist.lbs.capacity(),
            shortlist.workers.capacity(),
            shortlist.perm.capacity(),
        );
        shortlist.clear();
        assert!(shortlist.is_empty());
        assert_eq!(shortlist.min_lb(), None);
        assert_eq!(
            (
                shortlist.lbs.capacity(),
                shortlist.workers.capacity(),
                shortlist.perm.capacity()
            ),
            caps
        );
        extend(&mut shortlist, &[(5, WorkerId(3))]);
        shortlist.sort_by_bound();
        assert_eq!(pairs(&shortlist), vec![(5, WorkerId(3))]);
    }

    #[test]
    fn empty_shortlist_is_well_behaved() {
        let mut shortlist = Shortlist::new();
        shortlist.sort_by_bound();
        assert!(shortlist.is_empty());
        assert_eq!(shortlist.min_lb(), None);
        assert_eq!(pairs(&shortlist), vec![]);
    }
}
