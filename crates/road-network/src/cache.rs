//! Caching of shortest-distance queries.
//!
//! §6.1: "An LRU cache (ref 25) is maintained for shortest distance and path
//! queries, and is used by all the algorithms." [`LruCachedOracle`] is
//! the decorator that puts a distance cache in front of any
//! [`DistanceOracle`]. Distances are cached under the unordered pair
//! (the network is undirected, so `dis` is symmetric).
//!
//! **No eviction order.** On every benchmark workload the cache never
//! fills: each miss is a first touch, and no entry was ever evicted
//! (DESIGN.md §10, "The caches keep what the traffic asks for"). So the
//! cache is a plain map bounded at its capacity, and a full map is
//! cleared before its next insert (`insert_bounded`), which keeps
//! memory bounded on a long-running server without an LRU list that
//! every hit would relink. The decorator keeps the name §6.1 suggests.
//!
//! Paths are not cached. The hub labels answer a path query with two
//! walks up their own search trees ([`HubLabels::path`]), cheaper than
//! a cache that hit 2–10 % of path queries on the benchmark workloads;
//! [`LruCachedOracle::shortest_path`] forwards to the inner oracle, and
//! `path_capacity` in [`LruCachedOracle::new`] is accepted and ignored.
//!
//! The distance cache is **sharded** [`DIS_SHARDS`] ways by a hash of
//! the symmetric key: concurrent `experiments --parallel` cells share
//! one oracle and issue `dis` queries from many threads at once, and a
//! single mutex in front of the hottest structure in the system would
//! serialize them all. Each shard holds `capacity / DIS_SHARDS` entries.

use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::fxhash::FxHashMap;
use crate::geo::Point;
use crate::graph::RoadNetwork;
use crate::hub_labels::HubLabels;
use crate::oracle::DistanceOracle;
use crate::{Cost, VertexId};

/// Locks `m`, recovering the guard from a poisoned mutex. What these
/// locks guard carries no invariant across calls — memo caches, and
/// search arenas that every query re-initialises before use — so a
/// panic on another thread must not take the oracle down with it.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Inserts `key → value` into a memo map bounded at `capacity` entries
/// (`capacity ≥ 1`). A new key arriving at a full map clears it first.
/// Returns the number of entries cleared, for the eviction counters.
pub(crate) fn insert_bounded<K: Hash + Eq, V>(
    map: &mut FxHashMap<K, V>,
    capacity: usize,
    key: K,
    value: V,
) -> u64 {
    let mut cleared = 0;
    if map.len() >= capacity && !map.contains_key(&key) {
        cleared = map.len() as u64;
        map.clear();
    }
    map.insert(key, value);
    cleared
}

/// One lock's worth of the distance cache: the memo map and its
/// `(hits, misses)` counters.
#[derive(Default)]
struct DisShard {
    map: FxHashMap<(u32, u32), Cost>,
    hits: u64,
    misses: u64,
    /// `(hits, misses)` already published to the metrics registry —
    /// see [`take_stats_delta`](DisShard::take_stats_delta).
    published: (u64, u64),
}

impl DisShard {
    /// `(hits, misses)` accumulated since the last take, for batched
    /// publication to the global metrics registry. Returns `None` — no
    /// publication due — unless `force`d or the unpublished delta has
    /// reached the batch threshold. Keeping the per-query cost to two
    /// subtractions (no atomics, no branches on shared state) is what
    /// lets the hottest structure in the system stay instrumented; the
    /// registry lags the truth by at most one batch per shard.
    fn take_stats_delta(&mut self, force: bool) -> Option<(u64, u64)> {
        const BATCH: u64 = 4096;
        let dh = self.hits - self.published.0;
        let dm = self.misses - self.published.1;
        if dh + dm == 0 || (!force && dh + dm < BATCH) {
            return None;
        }
        self.published = (self.hits, self.misses);
        Some((dh, dm))
    }
}

/// Unordered vertex-pair key: `dis` is symmetric on undirected networks.
///
/// **Soundness caveat.** Collapsing `(u, v)` and `(v, u)` into one slot
/// is only correct for **symmetric static metrics** — free-flow
/// distances on an undirected graph. It is *unsound* for anything
/// departure-time-aware: under a per-region congestion profile
/// `dis_at(u, v, t) ≠ dis_at(v, u, t)` in general (the two directions
/// traverse differently-stretched regions), so a symmetric key would
/// silently serve one direction's distance for the other. Time-dependent
/// queries must go through [`crate::td::TdCachedOracle`], whose key is
/// asymmetric *and* time-bucketed; [`LruCachedOracle::new`] backs this
/// up with debug-build symmetry probes of the wrapped oracle.
#[inline]
fn sym_key(u: VertexId, v: VertexId) -> (u32, u32) {
    if u.0 <= v.0 {
        (u.0, v.0)
    } else {
        (v.0, u.0)
    }
}

/// Number of independently locked distance-cache shards (power of two).
pub const DIS_SHARDS: usize = 16;

/// Shard index for a symmetric key: one Fx-style multiply, taking the
/// *high* bits (the low bits of a multiplicative hash are the weak
/// ones). Same key → same shard, so hit/miss accounting per pair is
/// unchanged by sharding. The shift is derived from [`DIS_SHARDS`] so
/// retuning the constant keeps every shard reachable.
#[inline]
fn shard_of(key: (u32, u32)) -> usize {
    const SHIFT: u32 = 64 - DIS_SHARDS.trailing_zeros();
    let x = (u64::from(key.0) << 32) | u64::from(key.1);
    (x.wrapping_mul(0x517c_c1b7_2722_0a95) >> SHIFT) as usize & (DIS_SHARDS - 1)
}

/// Decorator caching the `dis` results of an inner oracle (exactly
/// one cache per platform as in §6.1), sharded [`DIS_SHARDS`] ways so
/// concurrent callers rarely contend on the same lock — see the module
/// docs. Path queries pass straight through.
pub struct LruCachedOracle<O> {
    inner: O,
    dis_shards: Vec<Mutex<DisShard>>,
    /// Entries one shard holds before it is cleared.
    shard_capacity: usize,
}

impl<O: DistanceOracle> LruCachedOracle<O> {
    /// Wraps `inner` with `dis_capacity` distance entries (split
    /// evenly across [`DIS_SHARDS`] shards, at least one each).
    ///
    /// `path_capacity` is a no-op, kept so existing callers compile:
    /// paths are not cached (see the module docs).
    ///
    /// `inner` must be a **symmetric** metric (see `sym_key`): debug
    /// builds probe a few vertex pairs in both directions at
    /// construction and panic on a mismatch. Time-dependent metrics
    /// belong behind [`crate::td::TdCachedOracle`] instead.
    pub fn new(inner: O, dis_capacity: usize, _path_capacity: usize) -> Self {
        #[cfg(debug_assertions)]
        if inner.num_vertices() >= 2 {
            let n = inner.num_vertices();
            let step = (n / 5).max(1);
            let (mut u, mut v) = (0usize, n - 1);
            while u < v {
                let (a, b) = (VertexId(u as u32), VertexId(v as u32));
                debug_assert_eq!(
                    inner.dis(a, b),
                    inner.dis(b, a),
                    "LruCachedOracle caches under an unordered sym_key, which is \
                     only sound for symmetric metrics; asymmetric (e.g. \
                     time-dependent) distances must use road_network::td::TdCachedOracle"
                );
                u += step;
                v = v.saturating_sub(step);
            }
        }
        LruCachedOracle {
            inner,
            dis_shards: (0..DIS_SHARDS).map(|_| Mutex::default()).collect(),
            shard_capacity: dis_capacity.div_ceil(DIS_SHARDS).max(1),
        }
    }

    /// Distance-cache `(hits, misses)`, summed over all shards.
    pub fn dis_hit_stats(&self) -> (u64, u64) {
        self.dis_shards.iter().fold((0, 0), |(h, m), shard| {
            let shard = lock(shard);
            (h + shard.hits, m + shard.misses)
        })
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: DistanceOracle> DistanceOracle for LruCachedOracle<O> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn point(&self, v: VertexId) -> Point {
        self.inner.point(v)
    }

    fn top_speed_mps(&self) -> f64 {
        self.inner.top_speed_mps()
    }

    // Structural accessors are not queries: no counter bump, no cache.
    fn backing_network(&self) -> Option<&Arc<RoadNetwork>> {
        self.inner.backing_network()
    }

    fn backing_labels(&self) -> Option<&Arc<HubLabels>> {
        self.inner.backing_labels()
    }

    fn dis(&self, u: VertexId, v: VertexId) -> Cost {
        if u == v {
            return 0;
        }
        let key = sym_key(u, v);
        let shard = &self.dis_shards[shard_of(key)];
        {
            let mut shard = lock(shard);
            if let Some(&d) = shard.map.get(&key) {
                shard.hits += 1;
                // Cache hits are the hottest event in the system
                // (thousands per planning request), so the registry is
                // fed in batches: the shard counts under its own lock,
                // and `take_stats_delta` crosses into the shared atomic
                // counters once per batch per shard.
                if urpsm_obs::RECORDING {
                    if let Some((hits, misses)) = shard.take_stats_delta(false) {
                        drop(shard);
                        urpsm_obs::with(|m| {
                            m.dis_cache_hits.add(hits);
                            m.dis_cache_misses.add(misses);
                        });
                    }
                }
                return d;
            }
            shard.misses += 1;
        }
        // The lock is dropped across the inner query: two threads may
        // race to fill the same pair, which costs one duplicate inner
        // query, never a wrong answer (both insert the same value).
        let d = self.inner.dis(u, v);
        let mut shard = lock(shard);
        let cleared = insert_bounded(&mut shard.map, self.shard_capacity, key, d);
        if urpsm_obs::RECORDING {
            // A miss already paid an inner-oracle query, so it always
            // flushes the pending batch — short runs stay visible in
            // the exposition without waiting for a full batch.
            let delta = shard.take_stats_delta(true);
            drop(shard);
            urpsm_obs::with(|m| {
                if cleared > 0 {
                    m.dis_cache_evictions.add(cleared);
                }
                if let Some((hits, misses)) = delta {
                    m.dis_cache_hits.add(hits);
                    m.dis_cache_misses.add(misses);
                }
            });
        }
        d
    }

    fn shortest_path(&self, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        self.inner.shortest_path(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::oracle::{CountingOracle, DijkstraOracle};
    use std::sync::Arc;

    #[test]
    fn lru_stress_against_reference_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Reference model: a Vec of the live entries, emptied when a
        // new key meets a full cache.
        const CAPACITY: usize = 8;
        let mut rng = StdRng::seed_from_u64(99);
        let mut map: FxHashMap<u8, u8> = FxHashMap::default();
        let mut model: Vec<(u8, u8)> = Vec::new();
        let (mut evicted, mut model_evicted) = (0u64, 0u64);
        for _ in 0..5_000 {
            let k = rng.gen_range(0..32u8);
            if rng.gen_bool(0.5) {
                let v = rng.gen();
                evicted += insert_bounded(&mut map, CAPACITY, k, v);
                match model.iter().position(|(mk, _)| *mk == k) {
                    Some(pos) => model[pos].1 = v,
                    None => {
                        if model.len() == CAPACITY {
                            model_evicted += model.len() as u64;
                            model.clear();
                        }
                        model.push((k, v));
                    }
                }
            } else {
                let expect = model.iter().find(|(mk, _)| *mk == k).map(|e| e.1);
                assert_eq!(map.get(&k).copied(), expect);
            }
            assert!(map.len() <= CAPACITY);
            assert_eq!(map.len(), model.len());
            assert_eq!(evicted, model_evicted, "evicted = entries cleared");
        }
        assert!(evicted > 0, "the stress must fill the map");
    }

    fn path_network() -> Arc<crate::graph::RoadNetwork> {
        let mut b = NetworkBuilder::new();
        for i in 0..6 {
            b.add_vertex(Point::new(f64::from(i) * 10.0, 0.0));
        }
        for i in 1..6u32 {
            b.add_edge_with_cost(VertexId(i - 1), VertexId(i), 7)
                .unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn cached_oracle_is_transparent_and_saves_queries() {
        let g = path_network();
        let counting = CountingOracle::new(DijkstraOracle::new(g));
        let cached = LruCachedOracle::new(counting, 64, 0);
        cached.inner().reset(); // drop the debug-build symmetry probes

        let d1 = cached.dis(VertexId(0), VertexId(5));
        let d2 = cached.dis(VertexId(5), VertexId(0)); // symmetric hit
        let d3 = cached.dis(VertexId(0), VertexId(5)); // direct hit
        assert_eq!(d1, 35);
        assert_eq!(d1, d2);
        assert_eq!(d1, d3);
        assert_eq!(cached.inner().stats().dis, 1, "only one real query");
        assert_eq!(cached.dis_hit_stats(), (2, 1));
    }

    #[test]
    fn path_queries_pass_through_uncached() {
        let g = path_network();
        let cached = LruCachedOracle::new(CountingOracle::new(DijkstraOracle::new(g)), 64, 0);
        cached.inner().reset(); // drop the debug-build symmetry probes
        let p = cached.shortest_path(VertexId(0), VertexId(3)).unwrap();
        assert_eq!(p, (0..4).map(VertexId).collect::<Vec<_>>());
        assert_eq!(cached.shortest_path(VertexId(0), VertexId(3)), Some(p));
        assert_eq!(
            cached.shortest_path(VertexId(2), VertexId(2)),
            Some(vec![VertexId(2)])
        );
        assert_eq!(cached.inner().stats().path, 3, "every path query forwarded");
        assert_eq!(cached.inner().stats().dis, 0);
    }

    #[test]
    fn sharding_spreads_keys_and_keeps_them_stable() {
        // Same key always lands on the same shard (hit accounting), and
        // the hash actually uses more than one shard over a realistic
        // key population.
        let mut seen = std::collections::HashSet::new();
        for u in 0..64u32 {
            for v in u..64u32 {
                let k = (u, v);
                let s = shard_of(k);
                assert!(s < DIS_SHARDS);
                assert_eq!(s, shard_of(k));
                seen.insert(s);
            }
        }
        assert!(seen.len() > DIS_SHARDS / 2, "keys bunched: {seen:?}");
    }

    #[test]
    fn concurrent_dis_queries_agree_and_account_exactly() {
        let g = path_network();
        let cached = LruCachedOracle::new(CountingOracle::new(DijkstraOracle::new(g)), 256, 0);
        cached.inner().reset(); // drop the debug-build symmetry probes
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 500;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cached = &cached;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let u = VertexId(((t + i) % 6) as u32);
                        let v = VertexId((i % 6) as u32);
                        let expect = (u.0.abs_diff(v.0) as Cost) * 7;
                        assert_eq!(cached.dis(u, v), expect);
                    }
                });
            }
        });
        // Exact accounting under concurrency: every non-identity query
        // is either a hit or a miss, nothing lost to races.
        let identity = (0..THREADS)
            .flat_map(|t| (0..PER_THREAD).map(move |i| ((t + i) % 6, i % 6)))
            .filter(|(a, b)| a == b)
            .count() as u64;
        let (hits, misses) = cached.dis_hit_stats();
        assert_eq!(hits + misses, THREADS * PER_THREAD - identity);
        // The cache is tiny-keyed here (≤ 30 distinct pairs): almost
        // everything hits, and the inner oracle saw each pair at most a
        // handful of times (racing fills), never per-query.
        assert!(cached.inner().stats().dis <= misses);
    }

    #[test]
    fn cached_oracle_identity_distance_bypasses() {
        let g = path_network();
        let counting = CountingOracle::new(DijkstraOracle::new(g));
        let cached = LruCachedOracle::new(counting, 4, 0);
        cached.inner().reset(); // drop the debug-build symmetry probes
        assert_eq!(cached.dis(VertexId(2), VertexId(2)), 0);
        assert_eq!(cached.inner().stats().dis, 0);
        assert_eq!(cached.dis_hit_stats(), (0, 0));
    }

    /// One slot per shard: almost every query clears its shard, and
    /// the answers and the accounting stay exact.
    #[test]
    fn a_cache_cleared_on_every_insert_stays_exact() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let g = path_network();
        let reference = DijkstraOracle::new(g.clone());
        // A zero capacity rounds up to one slot per shard.
        let cached = LruCachedOracle::new(CountingOracle::new(DijkstraOracle::new(g)), 0, 0);
        cached.inner().reset(); // drop the debug-build symmetry probes
        let mut rng = StdRng::seed_from_u64(5);
        let mut non_identity = 0;
        for _ in 0..200 {
            let u = VertexId(rng.gen_range(0..6));
            let v = VertexId(rng.gen_range(0..6));
            non_identity += u64::from(u != v);
            assert_eq!(cached.dis(u, v), reference.dis(u, v), "dis({u}, {v})");
        }
        let (hits, misses) = cached.dis_hit_stats();
        assert_eq!(hits + misses, non_identity);
        assert_eq!(cached.inner().stats().dis, misses);
        assert!(
            cached.dis_shards.iter().all(|s| lock(s).map.len() <= 1),
            "one slot per shard"
        );
    }
}
