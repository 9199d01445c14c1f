//! Cache-conscious candidate shortlist for the planning hot path.
//!
//! The decision phase (Algo. 4) produces, per request, a list of
//! `(LBΔ*, worker)` pairs scanned ascending by bound — the order of
//! the pre-ordered pruning of Lemma 8. [`Shortlist`] stores that list
//! as a structure-of-arrays: lower bounds and worker ids live in two
//! parallel arrays and the ascending order is a permutation over them.
//! The layout serves three masters:
//!
//! * **Zero steady-state allocation** — the arrays are owned by the
//!   planner engine and `clear()`-reused across requests, so after
//!   warm-up a request never grows them.
//! * **Cache behaviour** — ordering touches only `u32` indices and
//!   reads the dense `lbs` column, instead of shuffling 16-byte tuples.
//! * **Pay for what the scan reads** — the Lemma-8 scan usually stops
//!   within a handful of ranks, so the permutation is ordered lazily:
//!   [`Shortlist::order_through`] extends an ordered *prefix* (a
//!   selection of the smallest keys off the unordered tail, then a sort
//!   of just that chunk) and the tail stays unordered until asked for.
//!
//! Entries may be pushed after ordering began, as long as every new key
//! exceeds the ordered prefix — the DP engine's candidate stream adds
//! the candidates it pulls later that way
//! ([`crate::decision::StreamedShortlist`]).
//!
//! The ordered prefix is byte-compatible with the same-length prefix of
//! the historical `Vec<(Cost, WorkerId)>::sort_unstable()`: the key is
//! the pair `(lbs[i], workers[i])`, and worker ids are unique within
//! one request's candidate set, so the key is a total order and the
//! sorted permutation is unique — neither push order nor the sequence
//! of prefix extensions can leak into the scan order.

use road_network::Cost;

use crate::types::WorkerId;

/// The SoA candidate shortlist. See the module docs for layout and
/// ordering guarantees.
#[derive(Debug, Default, Clone)]
pub(crate) struct Shortlist {
    /// Lower bounds, in push order.
    lbs: Vec<Cost>,
    /// Worker ids, in push order (`workers[i]` pairs with `lbs[i]`).
    workers: Vec<WorkerId>,
    /// A permutation of `0..len` over the two columns whose first
    /// `ordered` entries are the ascending `(lb, worker)` order's.
    perm: Vec<u32>,
    /// Length of the ordered prefix of `perm`; every key in the tail is
    /// greater than every key before it.
    ordered: usize,
}

impl Shortlist {
    /// Appends one surviving `(LBΔ*, worker)` pair to the unordered
    /// tail. Once ordering has begun, only a key above the whole
    /// ordered prefix may join (what the candidate stream guarantees,
    /// DESIGN.md §5), so the prefix stays final.
    pub fn push_bound(&mut self, lb: Cost, w: WorkerId) {
        debug_assert!(
            self.ordered == 0 || self.get(self.ordered - 1) < (lb, w),
            "({lb}, {w}) pushed below the ordered prefix"
        );
        self.perm.push(self.lbs.len() as u32);
        self.lbs.push(lb);
        self.workers.push(w);
    }

    /// Drops all entries but keeps the allocated capacity.
    pub fn clear(&mut self) {
        self.lbs.clear();
        self.workers.clear();
        self.perm.clear();
        self.ordered = 0;
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.lbs.len()
    }

    /// `true` when no candidate survived the lower-bound filter.
    pub fn is_empty(&self) -> bool {
        self.lbs.is_empty()
    }

    /// Number of leading ranks in final ascending `(lb, worker)` order.
    pub fn ordered(&self) -> usize {
        self.ordered
    }

    /// Extends the ordered prefix to ranks `..end` (clamped to `len`):
    /// the smallest missing keys are selected off the unordered tail,
    /// then that chunk alone is sorted — the exact total order of the
    /// historical tuple sort, in place, no allocation on the hot path.
    pub fn order_through(&mut self, end: usize) {
        debug_assert_eq!(self.perm.len(), self.lbs.len());
        let end = end.min(self.len());
        if end <= self.ordered {
            return;
        }
        let (lbs, workers) = (&self.lbs, &self.workers);
        let key = |&i: &u32| (lbs[i as usize], workers[i as usize]);
        let tail = &mut self.perm[self.ordered..];
        let chunk = end - self.ordered;
        if chunk < tail.len() {
            tail.select_nth_unstable_by_key(chunk, key);
        }
        tail[..chunk].sort_unstable_by_key(key);
        self.ordered = end;
    }

    /// The `rank`-th entry in ascending `(lb, worker)` order; `rank`
    /// must lie inside the ordered prefix.
    pub fn get(&self, rank: usize) -> (Cost, WorkerId) {
        debug_assert!(rank < self.ordered, "rank {rank} not ordered yet");
        let i = self.perm[rank] as usize;
        (self.lbs[i], self.workers[i])
    }

    /// The smallest lower bound (rank 0, so the prefix must be
    /// non-empty), if any candidate survived. Feeds the economic gate
    /// `p_r < α · min LB`.
    pub fn min_lb(&self) -> Option<Cost> {
        if self.is_empty() {
            None
        } else {
            Some(self.get(0).0)
        }
    }

    /// The lower bounds, in push order.
    pub fn bounds(&self) -> &[Cost] {
        &self.lbs
    }

    /// Iterates the ordered prefix in ascending `(lb, worker)` order.
    #[cfg(test)]
    pub fn iter_ordered(&self) -> impl Iterator<Item = (Cost, WorkerId)> + '_ {
        (0..self.ordered).map(move |rank| self.get(rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(shortlist: &Shortlist) -> Vec<(Cost, WorkerId)> {
        shortlist.iter_ordered().collect()
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
        let mut shortlist = Shortlist::default();
        extend(&mut shortlist, &raw);
        shortlist.order_through(usize::MAX);

        let mut expect = raw.to_vec();
        expect.sort_unstable();
        assert_eq!(pairs(&shortlist), expect);
        assert_eq!(shortlist.min_lb(), Some(50));
        assert_eq!(shortlist.len(), 5);
    }

    #[test]
    fn clear_reuses_capacity() {
        let mut shortlist = Shortlist::default();
        extend(&mut shortlist, &[(10, WorkerId(0)), (20, WorkerId(1))]);
        shortlist.order_through(usize::MAX);
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
        shortlist.order_through(usize::MAX);
        assert_eq!(pairs(&shortlist), vec![(5, WorkerId(3))]);
    }

    #[test]
    fn empty_shortlist_is_well_behaved() {
        let mut shortlist = Shortlist::default();
        shortlist.order_through(usize::MAX);
        assert!(shortlist.is_empty());
        assert_eq!(shortlist.min_lb(), None);
        assert_eq!(pairs(&shortlist), vec![]);
    }

    #[test]
    fn prefix_extends_in_place_and_never_shrinks() {
        let mut shortlist = Shortlist::default();
        extend(
            &mut shortlist,
            &[
                (9, WorkerId(0)),
                (3, WorkerId(1)),
                (7, WorkerId(2)),
                (3, WorkerId(3)),
            ],
        );
        assert_eq!(shortlist.ordered(), 0);
        shortlist.order_through(2);
        assert_eq!(pairs(&shortlist), vec![(3, WorkerId(1)), (3, WorkerId(3))]);
        shortlist.order_through(1);
        assert_eq!(shortlist.ordered(), 2, "a shorter request is a no-op");
        shortlist.order_through(usize::MAX);
        assert_eq!(shortlist.ordered(), 4);
        assert_eq!(shortlist.get(3), (9, WorkerId(0)));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Whatever the sequence of prefix extensions, the ordered
            /// prefix is the same-length prefix of the tuple sort —
            /// on lists dominated by `lb` ties, where only the worker
            /// id separates neighbours.
            #[test]
            fn ordered_prefix_is_the_tuple_sort_prefix(
                entries in collection::vec((0u64..5, any::<u32>()), 0..160),
                chunks in collection::vec(1usize..170, 1..10),
            ) {
                // Unique worker ids in an order unrelated to push order.
                let mut by_salt: Vec<usize> = (0..entries.len()).collect();
                by_salt.sort_by_key(|&i| (entries[i].1, i));
                let mut raw = vec![(0, WorkerId(0)); entries.len()];
                for (id, &i) in by_salt.iter().enumerate() {
                    raw[i] = (entries[i].0, WorkerId(id as u32));
                }
                let mut expect = raw.clone();
                expect.sort_unstable();

                let mut shortlist = Shortlist::default();
                extend(&mut shortlist, &raw);
                let mut end = 0;
                for chunk in chunks {
                    end = (end + chunk).min(raw.len());
                    shortlist.order_through(end);
                    prop_assert_eq!(shortlist.ordered(), end);
                    prop_assert_eq!(&pairs(&shortlist)[..], &expect[..end]);
                }
                shortlist.order_through(usize::MAX);
                prop_assert_eq!(pairs(&shortlist), expect);
            }
        }
    }
}
