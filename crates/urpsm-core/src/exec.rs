//! Dependency-free scoped-thread fan-out for the planning hot path.
//!
//! The planning phase of Algo. 5 is embarrassingly parallel *per
//! candidate worker*: one independent linear-DP probe per candidate.
//! This module provides the three primitives the parallel engine is
//! built from, using nothing beyond `std`:
//!
//! * [`WorkPool`] — a fixed-width fan-out built on
//!   [`std::thread::scope`], so workers may borrow the platform state
//!   (no `'static` bound, no `unsafe`). Thread 0 is the *calling*
//!   thread: a pool of width `t` spawns only `t − 1` OS threads.
//! * [`IndexFeed`] — an atomic work queue over an index range. Feeding
//!   indices in ascending order is what lets Lemma 8's monotone-bound
//!   argument carry over to the parallel scan (see
//!   [`AtomicMin`]).
//! * [`AtomicMin`] — a shared monotonically decreasing `u64` bound
//!   (`fetch_min`). Used as the parallel best-`Δ` for Lemma 8 pruning.
//!
//! # Determinism
//!
//! Everything here is *extensionally* deterministic: thread scheduling
//! changes which candidates get probed (a stale, too-high bound only
//! ever widens the probe set), but never the reduced result, because
//! the reduction is `min (Δ, worker_id)` over a probe set that provably
//! contains every potential argmin — see the determinism argument in
//! `DESIGN.md` §5 and the differential suite in
//! `tests/parallel_equivalence.rs`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of hardware threads, with a serial fallback when the
/// platform cannot tell.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A fixed-width scoped fan-out: `threads` workers run a closure
/// concurrently, borrowing from the caller's stack.
///
/// Width 1 never touches the thread machinery — it is byte-for-byte
/// the sequential path, which is why `threads = 1` (the default
/// everywhere) reproduces the pre-parallel engine exactly.
#[derive(Debug, Clone)]
pub struct WorkPool {
    threads: usize,
}

impl WorkPool {
    /// A pool of `threads` workers; `0` means
    /// [`available_threads()`].
    pub fn new(threads: usize) -> Self {
        WorkPool {
            threads: if threads == 0 {
                available_threads()
            } else {
                threads
            },
        }
    }

    /// The pool width.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `worker(thread_index)` on every pool thread and returns
    /// the results in thread-index order: [`WorkPool::run_with`]
    /// without per-thread state.
    pub fn run<R, F>(&self, worker: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.run_with(&mut vec![(); self.threads], |i, ()| worker(i))
    }

    /// Runs `worker(i, &mut states[i])` on every pool thread — the
    /// per-thread scratch-buffer pattern (each planner thread owns an
    /// `InsertionScratch`) — and returns the results in thread-index
    /// order. Thread 0 is the caller.
    ///
    /// A worker panic is propagated to the caller after every other
    /// worker has been joined (no detached threads survive the call).
    ///
    /// # Panics
    /// If `states.len() < self.threads()`.
    pub fn run_with<S, R, F>(&self, states: &mut [S], worker: F) -> Vec<R>
    where
        S: Send,
        R: Send,
        F: Fn(usize, &mut S) -> R + Sync,
    {
        assert!(
            states.len() >= self.threads,
            "need one scratch state per pool thread"
        );
        if self.threads <= 1 {
            return vec![worker(0, &mut states[0])];
        }
        std::thread::scope(|scope| {
            let worker = &worker;
            let (head, tail) = states.split_at_mut(1);
            let spawned: Vec<_> = tail
                .iter_mut()
                .take(self.threads - 1)
                .enumerate()
                .map(|(i, s)| scope.spawn(move || worker(i + 1, s)))
                .collect();
            let mut out = Vec::with_capacity(self.threads);
            out.push(worker(0, &mut head[0]));
            for handle in spawned {
                match handle.join() {
                    Ok(r) => out.push(r),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            out
        })
    }
}

/// An atomic work queue over a range of indices, handed out in
/// ascending order.
///
/// Ascending order matters: the planning phase feeds candidates sorted
/// by lower bound, so the *highest index any thread ever pulled* upper-
/// bounds the lower bound of every unprobed candidate — the hinge of
/// the parallel Lemma 8 argument.
#[derive(Debug)]
pub struct IndexFeed {
    next: AtomicUsize,
    end: usize,
}

impl IndexFeed {
    /// A feed over `range` (`0..len` for a whole scan, a rank range
    /// for one chunk of a scan that is ordered a prefix at a time).
    pub fn new(range: std::ops::Range<usize>) -> Self {
        IndexFeed {
            next: AtomicUsize::new(range.start),
            end: range.end,
        }
    }

    /// Claims the next index, or `None` when the feed is drained.
    /// Each index is handed to exactly one caller.
    #[inline]
    pub fn next(&self) -> Option<usize> {
        // Relaxed is enough: `fetch_add` is already atomic, and no
        // other memory is published through this counter.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.end).then_some(i)
    }
}

/// A shared, monotonically decreasing `u64` (starts at `u64::MAX`).
///
/// The parallel planning phase publishes every exact `Δ` it computes;
/// readers use the current value for Lemma 8 pruning. Relaxed ordering
/// is sufficient for *correctness* (not just performance): a reader
/// seeing a stale value sees a *larger* bound, which only makes the
/// pruning less aggressive — the probe set grows, the argmin cannot
/// change.
#[derive(Debug)]
pub struct AtomicMin(AtomicU64);

impl AtomicMin {
    /// A bound at `u64::MAX` (nothing observed yet).
    pub fn new() -> Self {
        AtomicMin(AtomicU64::new(u64::MAX))
    }

    /// The current minimum over all observed values.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Lowers the bound to `v` if `v` is smaller.
    #[inline]
    pub fn observe(&self, v: u64) {
        let prev = self.0.fetch_min(v, Ordering::Relaxed);
        if prev > v {
            urpsm_obs::with(|m| m.plan_bound_improvements.inc());
        }
    }
}

impl Default for AtomicMin {
    fn default() -> Self {
        AtomicMin::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn serial_pool_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let pool = WorkPool::new(1);
        let ids = pool.run(|_| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    fn pool_runs_every_worker_once_in_order() {
        let pool = WorkPool::new(4);
        let out = pool.run(|i| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn run_with_hands_out_disjoint_scratch() {
        let pool = WorkPool::new(3);
        let mut scratch = vec![0u64; 3];
        let out = pool.run_with(&mut scratch, |i, s| {
            *s = i as u64 + 1;
            *s * 100
        });
        assert_eq!(out, vec![100, 200, 300]);
        assert_eq!(scratch, vec![1, 2, 3]);
    }

    #[test]
    fn zero_width_pool_autodetects() {
        let pool = WorkPool::new(0);
        assert!(pool.threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "scratch state per pool thread")]
    fn run_with_rejects_short_scratch() {
        let pool = WorkPool::new(4);
        let mut scratch = vec![0u8; 2];
        let _ = pool.run_with(&mut scratch, |_, _| ());
    }

    #[test]
    fn feed_hands_each_index_exactly_once() {
        let feed = IndexFeed::new(0..1_000);
        let pool = WorkPool::new(4);
        let counted = AtomicUsize::new(0);
        let sums = pool.run(|_| {
            let mut sum = 0usize;
            while let Some(i) = feed.next() {
                sum += i;
                counted.fetch_add(1, Ordering::Relaxed);
            }
            sum
        });
        assert_eq!(counted.load(Ordering::Relaxed), 1_000);
        assert_eq!(sums.iter().sum::<usize>(), 999 * 1_000 / 2);
        assert_eq!(feed.next(), None);
    }

    #[test]
    fn ranged_feed_starts_and_stops_at_its_bounds() {
        let feed = IndexFeed::new(32..35);
        let pulled: Vec<usize> = std::iter::from_fn(|| feed.next()).collect();
        assert_eq!(pulled, vec![32, 33, 34]);
        assert_eq!(IndexFeed::new(7..7).next(), None);
    }

    #[test]
    fn atomic_min_tracks_the_global_minimum() {
        let bound = AtomicMin::new();
        assert_eq!(bound.get(), u64::MAX);
        let pool = WorkPool::new(4);
        pool.run(|i| {
            for k in 0..100u64 {
                bound.observe(1_000 + (i as u64) * 97 + k * 13);
            }
        });
        assert_eq!(bound.get(), 1_000);
        bound.observe(5_000); // larger: no effect
        assert_eq!(bound.get(), 1_000);
    }

    #[test]
    fn worker_panics_propagate() {
        let pool = WorkPool::new(2);
        let caught = std::panic::catch_unwind(|| {
            pool.run(|i| {
                if i == 1 {
                    panic!("boom");
                }
            })
        });
        assert!(caught.is_err());
    }
}
