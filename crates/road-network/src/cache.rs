//! LRU caching of shortest-distance queries.
//!
//! §6.1: "An LRU cache (ref 25) is maintained for shortest distance and path
//! queries, and is used by all the algorithms." [`LruCache`] is a
//! from-scratch map + intrusive doubly-linked-list implementation (the
//! classic O(1) design); [`LruCachedOracle`] is the decorator that puts
//! it in front of any [`DistanceOracle`]. Distances are cached under the
//! unordered pair (the network is undirected, so `dis` is symmetric).
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
//! serialize them all.
//! Sharding trades exact global recency for per-shard recency (each
//! shard runs its own LRU over `capacity / DIS_SHARDS` entries), which
//! leaves single-threaded hit statistics essentially unchanged — the
//! hash spreads hot pairs uniformly.

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

/// A fixed-capacity least-recently-used cache with O(1) operations.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: FxHashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// Most recently used slot, `NIL` when empty.
    head: usize,
    /// Least recently used slot, `NIL` when empty.
    tail: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    /// `(hits, misses)` already published to the metrics registry —
    /// see [`take_stats_delta`](LruCache::take_stats_delta).
    published: (u64, u64),
}

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl<K: std::hash::Hash + Eq + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// If `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache {
            map: FxHashMap::default(),
            slots: Vec::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            published: (0, 0),
        }
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses)` since construction (gets only).
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// `(hits, misses)` accumulated since the last take, for batched
    /// publication to the global metrics registry. Returns `None` — no
    /// publication due — unless `force`d or the unpublished delta has
    /// reached the batch threshold. Keeping the per-query cost to two
    /// subtractions (no atomics, no branches on shared state) is what
    /// lets the hottest structure in the system stay instrumented; the
    /// registry lags the truth by at most one batch per shard.
    pub fn take_stats_delta(&mut self, force: bool) -> Option<(u64, u64)> {
        const BATCH: u64 = 4096;
        let dh = self.hits - self.published.0;
        let dm = self.misses - self.published.1;
        if dh + dm == 0 || (!force && dh + dm < BATCH) {
            return None;
        }
        self.published = (self.hits, self.misses);
        Some((dh, dm))
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.hits += 1;
                if self.head != i {
                    self.unlink(i);
                    self.push_front(i);
                }
                Some(&self.slots[i].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or overwrites) `key`, evicting the least recently used
    /// entry when full. Returns the evicted `(key, value)`, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return None;
        }
        if self.map.len() < self.capacity {
            let i = self.slots.len();
            self.slots.push(Slot {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, i);
            self.push_front(i);
            None
        } else {
            // Reuse the tail slot.
            let i = self.tail;
            self.unlink(i);
            let old_key = std::mem::replace(&mut self.slots[i].key, key.clone());
            let old_val = std::mem::replace(&mut self.slots[i].value, value);
            self.map.remove(&old_key);
            self.map.insert(key, i);
            self.push_front(i);
            Some((old_key, old_val))
        }
    }

    /// Rough heap footprint in bytes (slots + map buckets).
    pub fn mem_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<K, V>>()
            + self.map.capacity() * (std::mem::size_of::<K>() + std::mem::size_of::<usize>() + 8)
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
    dis_shards: Vec<Mutex<LruCache<(u32, u32), Cost>>>,
}

impl<O: DistanceOracle> LruCachedOracle<O> {
    /// Wraps `inner` with `dis_capacity` distance entries (split
    /// evenly across [`DIS_SHARDS`] shards).
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
        let per_shard = dis_capacity.div_ceil(DIS_SHARDS).max(1);
        LruCachedOracle {
            inner,
            dis_shards: (0..DIS_SHARDS)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
        }
    }

    /// Distance-cache `(hits, misses)`, summed over all shards.
    pub fn dis_hit_stats(&self) -> (u64, u64) {
        self.dis_shards.iter().fold((0, 0), |(h, m), shard| {
            let (sh, sm) = lock(shard).hit_stats();
            (h + sh, m + sm)
        })
    }

    /// Approximate memory used by the distance cache.
    pub fn mem_bytes(&self) -> usize {
        self.dis_shards.iter().map(|s| lock(s).mem_bytes()).sum()
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
            let mut cache = lock(shard);
            if let Some(&d) = cache.get(&key) {
                // Cache hits are the hottest event in the system
                // (thousands per planning request), so the registry is
                // fed in batches: the cache already counts under its
                // own lock, and `take_stats_delta` crosses into the
                // shared atomic counters once per batch per shard.
                if urpsm_obs::RECORDING {
                    if let Some((hits, misses)) = cache.take_stats_delta(false) {
                        drop(cache);
                        urpsm_obs::with(|m| {
                            m.dis_cache_hits.add(hits);
                            m.dis_cache_misses.add(misses);
                        });
                    }
                }
                return d;
            }
        }
        // The lock is dropped across the inner query: two threads may
        // race to fill the same pair, which costs one duplicate inner
        // query, never a wrong answer (both insert the same value).
        let d = self.inner.dis(u, v);
        let mut cache = lock(shard);
        let evicted = cache.insert(key, d).is_some();
        if urpsm_obs::RECORDING {
            // A miss already paid an inner-oracle query, so it always
            // flushes the pending batch — short runs stay visible in
            // the exposition without waiting for a full batch.
            let delta = cache.take_stats_delta(true);
            drop(cache);
            urpsm_obs::with(|m| {
                if evicted {
                    m.dis_cache_evictions.inc();
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
    fn lru_basic_eviction_order() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(&10)); // 1 now MRU
        let evicted = c.insert(3, 30); // evicts 2 (LRU)
        assert_eq!(evicted, Some((2, 20)));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), Some(&30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_overwrite_does_not_grow() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1), Some(&11));
    }

    #[test]
    fn lru_hit_miss_accounting() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        c.insert(1, 1);
        c.get(&1);
        c.get(&2);
        c.get(&1);
        assert_eq!(c.hit_stats(), (2, 1));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn lru_zero_capacity_rejected() {
        let _ = LruCache::<u32, u32>::new(0);
    }

    #[test]
    fn lru_stress_against_reference_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Reference model: Vec kept in recency order.
        let mut rng = StdRng::seed_from_u64(99);
        let mut c: LruCache<u8, u8> = LruCache::new(8);
        let mut model: Vec<(u8, u8)> = Vec::new();
        for _ in 0..5_000 {
            let k = rng.gen_range(0..32u8);
            if rng.gen_bool(0.5) {
                let v = rng.gen();
                c.insert(k, v);
                if let Some(pos) = model.iter().position(|(mk, _)| *mk == k) {
                    model.remove(pos);
                }
                model.insert(0, (k, v));
                if model.len() > 8 {
                    model.pop();
                }
            } else {
                let got = c.get(&k).copied();
                let expect = model.iter().position(|(mk, _)| *mk == k).map(|pos| {
                    let e = model.remove(pos);
                    model.insert(0, e);
                    e.1
                });
                assert_eq!(got, expect);
            }
            assert_eq!(c.len(), model.len());
        }
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
        let cached = LruCachedOracle::new(counting, 64, 16);
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
        let cached = LruCachedOracle::new(CountingOracle::new(DijkstraOracle::new(g)), 64, 16);
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
        let cached = LruCachedOracle::new(CountingOracle::new(DijkstraOracle::new(g)), 256, 16);
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
        let cached = LruCachedOracle::new(counting, 4, 4);
        cached.inner().reset(); // drop the debug-build symmetry probes
        assert_eq!(cached.dis(VertexId(2), VertexId(2)), 0);
        assert_eq!(cached.inner().stats().dis, 0);
        assert_eq!(cached.dis_hit_stats(), (0, 0));
    }
}
