//! Departure-time-aware shortest distances: the time-dependent oracle.
//!
//! PR 5 layered congestion multipliers over a *static* oracle: rush
//! hour stretches schedules, but the path a worker drives is still the
//! free-flow shortest path. This module pushes time-dependence into the
//! metric itself. A [`TdDijkstra`] searches the road network with
//! per-edge **stretched costs**: an edge of free-flow cost `c` entered
//! at absolute time `t` takes `CongestionProfile::leg_time(x, c, t)`,
//! where `x` is the edge's tail (the same per-region semantics routes
//! already use). Because every profile is FIFO by construction
//! (DESIGN.md §7), arrival times along a path are non-decreasing in the
//! departure time, and plain label-setting Dijkstra over earliest
//! arrivals is exact — no label correcting needed.
//!
//! A naive time-dependent Dijkstra per query would be orders of
//! magnitude slower than `HubLabels::distance`, so three layers make it
//! fast:
//!
//! 1. **Goal-directed pruning.** The static hub-label distance
//!    `HubLabels::distance(v, t)` is a *free-flow* lower bound on any
//!    stretched cost (every multiplier is ≥ 1), so it is an admissible
//!    A\* potential. It is also **consistent**: for any edge `(x, y)`
//!    with static cost `c`, `h(x) ≤ c + h(y) ≤ stretched(x, y, ·) +
//!    h(y)` by the triangle inequality of the static metric. Consistent
//!    potentials keep the search label-setting — every vertex settles
//!    once, and the first pop of the target is optimal.
//! 2. **A time-bucketed duration cache** ([`TdCachedOracle`]). The
//!    profile is piecewise-constant per bucket, so trips that start
//!    *and finish* inside one bucket see a constant-cost graph; caching
//!    those durations under `(u, v, bucket(depart))` makes within-bucket
//!    reuse **exact**, not approximate (see the cache docs for the
//!    argument). The key is deliberately *asymmetric* and time-keyed —
//!    `dis_at(u, v, t)` and `dis_at(v, u, t)` differ under per-region
//!    profiles, so the static cache's `sym_key` trick would be unsound
//!    here. Paths are not cached: a path cache served 5 % of path
//!    queries on the benchmark, so every path query searches.
//! 3. **One reusable search arena.** The engine owns one
//!    generation-stamped arena (dist / parent / potential columns plus
//!    a reusable heap), so steady-state queries allocate nothing once
//!    it is warm — the same discipline `bench alloc` enforces for
//!    planned insertions.
//!
//! **One owner.** A provider is built per service, so per shard
//! (DESIGN.md §10), and nothing hands it to a second thread. The engine
//! keeps its arena and counters behind one `Mutex`, the cache keeps
//! its duration map and hit/miss counters behind another: the types
//! stay `Sync`, and a second thread would queue, not race.
//!
//! [`TdTravelTimeProvider`] packages the oracle as a
//! [`TravelTimeProvider`], overriding `leg_time_between` / `td_expand`
//! so committed routes **reroute** under congestion instead of merely
//! stretching. With a flat profile every stretched cost equals its
//! static cost, so the TD search degenerates to static Dijkstra and the
//! whole stack is byte-identical to the static oracle — the
//! non-negotiable gate `tests/td_equivalence.rs` pins end-to-end.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

use crate::cache::{insert_bounded, lock};
use crate::congestion::{CongestionProfile, TravelTimeProvider};
use crate::fxhash::FxHashMap;
use crate::graph::RoadNetwork;
use crate::hub_labels::HubLabels;
use crate::{cost_add, Cost, VertexId, INF};

/// Departure-time-aware distance / path oracle.
///
/// `dis_at(u, v, t)` is the minimum travel *duration* of any `u → v`
/// path departing at absolute time `t`, under the installed congestion
/// profile; `shortest_path_at` is a path achieving it. Unlike the
/// static [`crate::oracle::DistanceOracle`], the answers here are
/// **asymmetric** (per-region profiles stretch the two directions
/// differently) and depend on `t` — callers must never cache them under
/// a symmetric or time-free key.
pub trait TimeDependentOracle: Send + Sync {
    /// Minimum travel duration `u → v` when departing at `depart`
    /// (absolute centiseconds). [`INF`] when unreachable.
    fn dis_at(&self, u: VertexId, v: VertexId, depart: u64) -> Cost;

    /// A concrete duration-minimal path (inclusive of both endpoints)
    /// when departing at `depart`; `None` when unreachable.
    fn shortest_path_at(&self, u: VertexId, v: VertexId, depart: u64) -> Option<Vec<VertexId>>;

    /// Path and its duration in one query. The default issues two
    /// queries; engines that compute both in one search override it.
    fn path_and_duration_at(
        &self,
        u: VertexId,
        v: VertexId,
        depart: u64,
    ) -> Option<(Cost, Vec<VertexId>)> {
        let p = self.shortest_path_at(u, v, depart)?;
        Some((self.dis_at(u, v, depart), p))
    }
}

/// Cumulative search counters of a [`TdDijkstra`] (the oracle-td bench
/// reports these; the ≥5× node-expansion claim is `settled` ratios).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TdSearchStats {
    /// Point-to-point searches run (identity queries excluded).
    pub queries: u64,
    /// Vertices settled (popped non-stale) across all searches — the
    /// "node expansions" goal-directed pruning reduces.
    pub settled: u64,
    /// Edge relaxations that improved a label.
    pub relaxed: u64,
}

impl TdSearchStats {
    /// Difference `self − earlier`, for per-phase accounting.
    pub fn since(&self, earlier: &TdSearchStats) -> TdSearchStats {
        TdSearchStats {
            queries: self.queries - earlier.queries,
            settled: self.settled - earlier.settled,
            relaxed: self.relaxed - earlier.relaxed,
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// The generation-stamped search arena: dist / parent / potential
/// columns cleared in O(1) via an epoch counter, a reusable binary
/// heap, and the counters of every search run in it. A [`TdDijkstra`]
/// owns exactly one.
#[derive(Debug, Default)]
struct SearchState {
    /// Duration label: earliest arrival minus departure.
    dist: Vec<Cost>,
    parent: Vec<u32>,
    /// Memoized A* potential (static hub-label distance to the target).
    pot: Vec<Cost>,
    epoch: Vec<u32>,
    pot_epoch: Vec<u32>,
    current_epoch: u32,
    /// `(f = duration + potential, !duration, vertex)`, min-first.
    /// The `!duration` component breaks `f`-ties toward the *deepest*
    /// label: with a tight potential the search then walks essentially
    /// only the optimal corridor instead of sweeping every equal-`f`
    /// plateau node — correctness is untouched (any tie order pops
    /// optimal labels under a consistent potential), expansion counts
    /// drop sharply.
    heap: BinaryHeap<Reverse<(Cost, Cost, u32)>>,
    stats: TdSearchStats,
}

impl SearchState {
    fn ensure(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, INF);
            self.parent.resize(n, NO_PARENT);
            self.pot.resize(n, 0);
            self.epoch.resize(n, 0);
            self.pot_epoch.resize(n, 0);
        }
    }

    #[inline]
    fn touch(&mut self, i: usize) {
        if self.epoch[i] != self.current_epoch {
            self.epoch[i] = self.current_epoch;
            self.dist[i] = INF;
            self.parent[i] = NO_PARENT;
        }
    }

    #[inline]
    fn potential(&mut self, labels: Option<&HubLabels>, i: usize, target: VertexId) -> Cost {
        match labels {
            None => 0,
            Some(l) => {
                if self.pot_epoch[i] != self.current_epoch {
                    self.pot_epoch[i] = self.current_epoch;
                    self.pot[i] = l.distance(VertexId(i as u32), target);
                }
                self.pot[i]
            }
        }
    }

    /// Label-setting time-dependent A*; returns the duration label of
    /// `t` ([`INF`] when unreachable) with parents filled for
    /// [`SearchState::path_to`]. `s != t` is the caller's invariant.
    fn run(
        &mut self,
        g: &RoadNetwork,
        profile: &CongestionProfile,
        labels: Option<&HubLabels>,
        s: VertexId,
        t: VertexId,
        depart: u64,
    ) -> Cost {
        self.stats.queries += 1;
        self.ensure(g.num_vertices());
        self.current_epoch = self.current_epoch.wrapping_add(1);
        if self.current_epoch == 0 {
            self.epoch.fill(0);
            self.pot_epoch.fill(0);
            self.current_epoch = 1;
        }
        self.heap.clear();
        self.touch(s.idx());
        self.dist[s.idx()] = 0;
        let f0 = self.potential(labels, s.idx(), t);
        if f0 >= INF {
            return INF; // statically disconnected ⇒ TD-disconnected
        }
        self.heap.push(Reverse((f0, !0, s.0)));
        while let Some(Reverse((f, _, v))) = self.heap.pop() {
            let vi = v as usize;
            let d = self.dist[vi];
            // Stale entry: a better label was pushed after this one.
            // `pot` is memoized for every vertex ever pushed this epoch,
            // so reading it here needs no epoch check.
            let pot_v = if labels.is_some() { self.pot[vi] } else { 0 };
            if f > cost_add(d, pot_v) {
                continue;
            }
            self.stats.settled += 1;
            if v == t.0 {
                return d;
            }
            let lo = g.offsets[vi] as usize;
            let hi = g.offsets[vi + 1] as usize;
            for k in lo..hi {
                let n = g.targets[k] as usize;
                let stretched = profile.leg_time(VertexId(v), g.costs[k], depart.saturating_add(d));
                let nd = cost_add(d, stretched);
                self.touch(n);
                if nd < self.dist[n] {
                    self.dist[n] = nd;
                    self.parent[n] = v;
                    let h = self.potential(labels, n, t);
                    self.heap.push(Reverse((cost_add(nd, h), !nd, n as u32)));
                    self.stats.relaxed += 1;
                }
            }
        }
        INF
    }

    /// Reconstructs the path to `t` after [`SearchState::run`].
    fn path_to(&self, t: VertexId) -> Option<Vec<VertexId>> {
        if self.epoch[t.idx()] != self.current_epoch || self.dist[t.idx()] >= INF {
            return None;
        }
        let mut path = vec![t];
        let mut cur = t.0;
        while self.parent[cur as usize] != NO_PARENT {
            cur = self.parent[cur as usize];
            path.push(VertexId(cur));
        }
        path.reverse();
        Some(path)
    }
}

/// Time-dependent point-to-point engine over a [`RoadNetwork`] and a
/// [`CongestionProfile`], optionally goal-directed via static hub-label
/// potentials (see the module docs for why those are admissible *and*
/// consistent).
pub struct TdDijkstra {
    g: Arc<RoadNetwork>,
    profile: Arc<CongestionProfile>,
    labels: Option<Arc<HubLabels>>,
    state: Mutex<SearchState>,
}

impl TdDijkstra {
    /// An undirected (no-potential) TD-Dijkstra — the baseline the
    /// oracle-td bench compares goal-directed search against.
    pub fn new(g: Arc<RoadNetwork>, profile: Arc<CongestionProfile>) -> Self {
        Self::build(g, profile, None)
    }

    /// A goal-directed TD-A*: static hub-label distances to the target
    /// are the admissible free-flow potentials.
    pub fn goal_directed(
        g: Arc<RoadNetwork>,
        profile: Arc<CongestionProfile>,
        labels: Arc<HubLabels>,
    ) -> Self {
        Self::build(g, profile, Some(labels))
    }

    fn build(
        g: Arc<RoadNetwork>,
        profile: Arc<CongestionProfile>,
        labels: Option<Arc<HubLabels>>,
    ) -> Self {
        TdDijkstra {
            g,
            profile,
            labels,
            state: Mutex::default(),
        }
    }

    /// The underlying road network.
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.g
    }

    /// The installed congestion profile.
    pub fn profile(&self) -> &Arc<CongestionProfile> {
        &self.profile
    }

    /// Cumulative search counters.
    pub fn stats(&self) -> TdSearchStats {
        lock(&self.state).stats
    }

    fn search<R>(
        &self,
        u: VertexId,
        v: VertexId,
        depart: u64,
        extract: impl FnOnce(Cost, &SearchState) -> R,
    ) -> R {
        let mut state = lock(&self.state);
        let settled_before = state.stats.settled;
        let d = state.run(&self.g, &self.profile, self.labels.as_deref(), u, v, depart);
        urpsm_obs::with(|m| {
            m.td_queries.inc();
            m.td_settled.add(state.stats.settled - settled_before);
        });
        extract(d, &state)
    }
}

impl TimeDependentOracle for TdDijkstra {
    fn dis_at(&self, u: VertexId, v: VertexId, depart: u64) -> Cost {
        if u == v {
            return 0;
        }
        // Flat profile ⇒ stretched costs equal static costs exactly, so
        // the hub labels already hold the answer: flat TD runs stay
        // near-free and bit-identical to the search this replaces.
        if self.profile.is_flat() {
            if let Some(labels) = &self.labels {
                return labels.distance(u, v);
            }
        }
        self.search(u, v, depart, |d, _| d)
    }

    fn shortest_path_at(&self, u: VertexId, v: VertexId, depart: u64) -> Option<Vec<VertexId>> {
        if u == v {
            return Some(vec![u]);
        }
        self.search(u, v, depart, |_, state| state.path_to(v))
    }

    fn path_and_duration_at(
        &self,
        u: VertexId,
        v: VertexId,
        depart: u64,
    ) -> Option<(Cost, Vec<VertexId>)> {
        if u == v {
            return Some((0, vec![u]));
        }
        self.search(u, v, depart, |d, state| {
            if d >= INF {
                None
            } else {
                state.path_to(v).map(|p| (d, p))
            }
        })
    }
}

/// Cache key for [`TdCachedOracle`]: `(u, v, depart / bucket_len)` —
/// asymmetric source/target pair plus the absolute bucket index.
type TdCacheKey = (u32, u32, u64);

/// Everything a [`TdCachedOracle`] mutates, under its one lock.
#[derive(Default)]
struct TdCache {
    dis: FxHashMap<TdCacheKey, Cost>,
    /// Semantic duration-cache counters (see
    /// [`TdCachedOracle::dis_hit_stats`]).
    dis_hits: u64,
    dis_misses: u64,
}

/// Time-bucketed caching decorator for a [`TimeDependentOracle`].
///
/// Distances are cached under the **asymmetric** key `(u, v,
/// depart / bucket_len)` (absolute bucket index — day wraps map to
/// fresh keys, trading a sliver of hit rate for a trivially correct
/// key). The map is bounded at its capacity and cleared when a new key
/// finds it full, as the static cache is (`cache.rs`). The map and the
/// hit/miss counters sit behind one `Mutex`, held for the whole query,
/// inner search included: the oracle has one owner (see the module
/// docs), so the lock is never contended. Path queries are forwarded
/// to the inner oracle uncached.
///
/// **Exactness.** The profile is piecewise-constant per bucket and
/// every region switches buckets at the same boundaries, so a trip that
/// departs at `t` and arrives by the bucket end sees every edge at its
/// constant in-bucket cost `⌈c·m/1000⌉` — a static graph that does not
/// depend on *where inside the bucket* the trip starts. Hence:
///
/// * **Insert rule**: cache duration `d` computed at `t₁` only when
///   `t₁ + d ≤ bucket_end` — then `d` is the in-bucket shortest, and
///   optimal overall (any spilling path arrives after the bucket end
///   `≥ t₁ + d`).
/// * **Hit rule**: reuse `d` at `t₂` in the same bucket only when
///   `t₂ + d ≤ bucket_end` — the same constant graph gives the same
///   in-bucket shortest `d`, and the same spilling argument makes it
///   optimal at `t₂` too. Entries failing the check recompute (counted
///   as misses): within-bucket reuse is **exact**, never approximate.
pub struct TdCachedOracle<O> {
    inner: O,
    bucket_len: u64,
    /// Entries the duration map holds before it is cleared.
    dis_capacity: usize,
    cache: Mutex<TdCache>,
}

impl<O: TimeDependentOracle> TdCachedOracle<O> {
    /// Wraps `inner` with `dis_capacity` duration entries (at least
    /// one), bucketed by `profile`'s piecewise-constant grid.
    pub fn new(inner: O, profile: &CongestionProfile, dis_capacity: usize) -> Self {
        TdCachedOracle {
            inner,
            bucket_len: profile.bucket_len(),
            dis_capacity: dis_capacity.max(1),
            cache: Mutex::default(),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Duration-cache `(hits, misses)`. A cached entry that fails the
    /// in-bucket reuse check counts as a miss — these are *semantic*
    /// stats (exact answers served from cache), not raw map probes.
    pub fn dis_hit_stats(&self) -> (u64, u64) {
        let cache = lock(&self.cache);
        (cache.dis_hits, cache.dis_misses)
    }

    #[inline]
    fn bucket_of(&self, depart: u64) -> (u64, u64) {
        let bucket = depart / self.bucket_len;
        let end = bucket.saturating_add(1).saturating_mul(self.bucket_len);
        (bucket, end)
    }
}

impl<O: TimeDependentOracle> TimeDependentOracle for TdCachedOracle<O> {
    fn dis_at(&self, u: VertexId, v: VertexId, depart: u64) -> Cost {
        if u == v {
            return 0;
        }
        let (bucket, bucket_end) = self.bucket_of(depart);
        let key = (u.0, v.0, bucket);
        let mut cache = lock(&self.cache);
        if let Some(&d) = cache.dis.get(&key) {
            if depart.saturating_add(d) <= bucket_end {
                cache.dis_hits += 1;
                urpsm_obs::with(|m| {
                    m.td_dis_hits.inc();
                    m.ring.record(
                        urpsm_obs::TraceKind::TdCache,
                        1,
                        u64::from(u.0),
                        u64::from(v.0),
                        bucket,
                    );
                });
                return d;
            }
        }
        cache.dis_misses += 1;
        urpsm_obs::with(|m| {
            m.td_dis_misses.inc();
            m.ring.record(
                urpsm_obs::TraceKind::TdCache,
                0,
                u64::from(u.0),
                u64::from(v.0),
                bucket,
            );
        });
        let d = self.inner.dis_at(u, v, depart);
        if depart.saturating_add(d) <= bucket_end {
            let cleared = insert_bounded(&mut cache.dis, self.dis_capacity, key, d);
            if cleared > 0 {
                urpsm_obs::with(|m| m.td_evictions.add(cleared));
            }
        }
        d
    }

    fn shortest_path_at(&self, u: VertexId, v: VertexId, depart: u64) -> Option<Vec<VertexId>> {
        self.path_and_duration_at(u, v, depart).map(|(_, p)| p)
    }

    fn path_and_duration_at(
        &self,
        u: VertexId,
        v: VertexId,
        depart: u64,
    ) -> Option<(Cost, Vec<VertexId>)> {
        if u != v {
            urpsm_obs::with(|m| m.td_path_queries.inc());
        }
        self.inner.path_and_duration_at(u, v, depart)
    }
}

/// Smallest static cost of a direct edge `x → y` (`None` when the edge
/// does not exist). With parallel edges the minimum static cost is also
/// the minimum stretched cost — stretching is monotone in the base — so
/// this recovers exactly the edge the TD search relaxed.
fn min_edge_cost(g: &RoadNetwork, x: VertexId, y: VertexId) -> Option<Cost> {
    let mut best: Option<Cost> = None;
    for (n, c) in g.neighbors(x) {
        if n == y {
            best = Some(best.map_or(c, |b| b.min(c)));
        }
    }
    best
}

/// A [`TravelTimeProvider`] backed by the true time-dependent oracle:
/// committed routes *reroute* under congestion instead of stretching
/// along the free-flow path.
///
/// * `leg_time` keeps the PR-5 overlay semantics (it times a free-flow
///   *offset*, used for mid-leg interpolation on static paths).
/// * `leg_time_between` answers with the **rerouted** duration
///   `max(base, dis_at(from, to, depart))` — the clamp keeps the
///   conservation contract (`≥ base`) for callers whose `base` is not
///   exactly the static `dis(from, to)`, and all four provider
///   contracts hold (FIFO of `dis_at` survives the max with a
///   constant).
/// * `td_expand` emits the rerouted leg's concrete vertices with their
///   arrival times, with cumulative free-flow offsets *normalized* so
///   the last triple carries exactly `base` — the driven ledger
///   (`driven == Σ planned`, in free-flow units) stays exact even
///   though the driven path's static length may exceed `base`.
///
/// With a flat profile every method degenerates to the identity /
/// static behavior, bit for bit.
pub struct TdTravelTimeProvider {
    g: Arc<RoadNetwork>,
    profile: Arc<CongestionProfile>,
    oracle: TdCachedOracle<TdDijkstra>,
    name: String,
}

/// Default capacity of the time-keyed duration cache.
pub const TD_DIS_CACHE: usize = 1 << 18;

impl TdTravelTimeProvider {
    /// Builds the provider over `g` and `profile`; pass the oracle's
    /// hub labels to make the searches goal-directed (strongly
    /// recommended — this is the ≥5× node-expansion layer).
    pub fn new(
        g: Arc<RoadNetwork>,
        profile: Arc<CongestionProfile>,
        labels: Option<Arc<HubLabels>>,
    ) -> Self {
        let engine = match labels {
            Some(l) => TdDijkstra::goal_directed(g.clone(), profile.clone(), l),
            None => TdDijkstra::new(g.clone(), profile.clone()),
        };
        let oracle = TdCachedOracle::new(engine, &profile, TD_DIS_CACHE);
        let name = format!("td:{}", TravelTimeProvider::name(profile.as_ref()));
        TdTravelTimeProvider {
            g,
            profile,
            oracle,
            name,
        }
    }

    /// The cached TD oracle (hit rates, search stats).
    pub fn oracle(&self) -> &TdCachedOracle<TdDijkstra> {
        &self.oracle
    }

    /// The wrapped congestion profile.
    pub fn profile(&self) -> &Arc<CongestionProfile> {
        &self.profile
    }

    #[inline]
    fn static_case(&self, base: Cost, depart: u64) -> bool {
        base == 0 || base >= INF || depart >= INF || self.profile.is_flat()
    }
}

impl TravelTimeProvider for TdTravelTimeProvider {
    fn leg_time(&self, from: VertexId, base: Cost, depart: u64) -> Cost {
        self.profile.leg_time(from, base, depart)
    }

    fn is_flat(&self) -> bool {
        self.profile.is_flat()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn leg_time_between(&self, from: VertexId, to: VertexId, base: Cost, depart: u64) -> Cost {
        if self.static_case(base, depart) || from == to {
            // Identity / clamp cases, including the flat profile: the
            // overlay is the identity there, which is what the flat
            // byte-identity gate requires.
            return self.profile.leg_time(from, base, depart);
        }
        let d = self.oracle.dis_at(from, to, depart);
        d.max(base).min(INF)
    }

    fn td_expand(
        &self,
        from: VertexId,
        to: VertexId,
        base: Cost,
        depart: u64,
        emit: &mut dyn FnMut(VertexId, u64, Cost),
    ) -> bool {
        if self.static_case(base, depart) || from == to {
            return false; // static expansion is exact here
        }
        let Some((dur, path)) = self.oracle.path_and_duration_at(from, to, depart) else {
            return false;
        };
        if path.len() < 2 || path[0] != from || *path.last().expect("non-empty") != to {
            return false;
        }
        // Pre-validate every edge so emission never starts on a path
        // we cannot finish walking.
        let mut static_total: Cost = 0;
        for pair in path.windows(2) {
            match min_edge_cost(&self.g, pair[0], pair[1]) {
                Some(c) => static_total = cost_add(static_total, c),
                None => return false,
            }
        }
        let arrival = depart.saturating_add(dur.max(base).min(INF));
        let mut t = depart;
        let mut prefix: Cost = 0;
        let last = path.len() - 2;
        for (i, pair) in path.windows(2).enumerate() {
            let c = min_edge_cost(&self.g, pair[0], pair[1]).expect("validated above");
            t = t.saturating_add(self.profile.leg_time(pair[0], c, t));
            prefix = cost_add(prefix, c);
            if i == last {
                // The contract pins the final triple exactly.
                emit(to, arrival, base);
            } else {
                // Cumulative free-flow offsets scaled so they end at
                // `base` even when the rerouted path is statically
                // longer: monotone, and the ledger credits exactly
                // `base` for the whole leg.
                let off = if static_total == 0 {
                    0
                } else {
                    ((u128::from(base) * u128::from(prefix)) / u128::from(static_total)) as u64
                };
                emit(pair[1], t, off.min(base));
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::geo::Point;
    use crate::hub_labels::HubLabels;
    use crate::oracle::DistanceOracle;
    use crate::oracle::HubLabelOracle;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Time-expanded reference: label-correcting Bellman–Ford over
    /// earliest arrivals. Algorithmically disjoint from the engine
    /// under test (no heap, no potentials, no early exit).
    fn reference_dis_at(
        g: &RoadNetwork,
        profile: &CongestionProfile,
        s: VertexId,
        t: VertexId,
        depart: u64,
    ) -> Cost {
        const UNSEEN: u64 = u64::MAX;
        let mut arr = vec![UNSEEN; g.num_vertices()];
        arr[s.idx()] = depart;
        loop {
            let mut changed = false;
            for v in 0..g.num_vertices() {
                if arr[v] == UNSEEN {
                    continue;
                }
                let tv = arr[v];
                for (w, c) in g.neighbors(VertexId(v as u32)) {
                    let a = tv.saturating_add(profile.leg_time(VertexId(v as u32), c, tv));
                    if a < arr[w.idx()] {
                        arr[w.idx()] = a;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        if arr[t.idx()] == UNSEEN {
            INF
        } else {
            (arr[t.idx()] - depart).min(INF)
        }
    }

    fn random_network(rng: &mut StdRng, n: usize, extra_edges: usize) -> Arc<RoadNetwork> {
        let mut b = NetworkBuilder::new();
        for i in 0..n {
            b.add_vertex(Point::new(
                (i % 8) as f64 * 50.0 + rng.gen_range(0.0..10.0),
                (i / 8) as f64 * 50.0 + rng.gen_range(0.0..10.0),
            ));
        }
        // Spanning chain keeps it connected; extra random chords.
        for i in 1..n as u32 {
            let j = rng.gen_range(0..i);
            b.add_edge_with_cost(VertexId(i), VertexId(j), rng.gen_range(50..2_000))
                .unwrap();
        }
        for _ in 0..extra_edges {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                let _ = b.add_edge_with_cost(VertexId(u), VertexId(v), rng.gen_range(50..2_000));
            }
        }
        Arc::new(b.finish().unwrap())
    }

    fn random_profile(rng: &mut StdRng, n_vertices: usize) -> Arc<CongestionProfile> {
        let buckets = rng.gen_range(1..6usize);
        let bucket_len = rng.gen_range(1..40u64) * 100;
        let regions = rng.gen_range(1..4usize);
        let tables: Vec<Vec<u32>> = (0..regions)
            .map(|_| (0..buckets).map(|_| rng.gen_range(1000..3000)).collect())
            .collect();
        let vertex_region: Vec<u16> = (0..n_vertices)
            .map(|_| rng.gen_range(0..regions as u16))
            .collect();
        Arc::new(CongestionProfile::per_region("prop", bucket_len, tables, vertex_region).unwrap())
    }

    #[test]
    fn td_dijkstra_matches_time_expanded_reference() {
        let mut rng = StdRng::seed_from_u64(0xD15_7A9CE);
        for case in 0..25 {
            let n = rng.gen_range(6..28usize);
            let g = random_network(&mut rng, n, n / 2);
            let profile = random_profile(&mut rng, n);
            let plain = TdDijkstra::new(g.clone(), profile.clone());
            for _ in 0..12 {
                let u = VertexId(rng.gen_range(0..n as u32));
                let v = VertexId(rng.gen_range(0..n as u32));
                let depart = rng.gen_range(0..4 * profile.period());
                let got = plain.dis_at(u, v, depart);
                let want = reference_dis_at(&g, &profile, u, v, depart);
                assert_eq!(got, want, "case {case}: dis_at({u},{v},{depart})");
            }
        }
    }

    #[test]
    fn goal_directed_matches_plain_with_fewer_expansions() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 120;
        let g = random_network(&mut rng, n, n);
        let profile = random_profile(&mut rng, n);
        let labels = Arc::new(HubLabels::build(&g));
        let plain = TdDijkstra::new(g.clone(), profile.clone());
        let astar = TdDijkstra::goal_directed(g.clone(), profile.clone(), labels);
        for _ in 0..80 {
            let u = VertexId(rng.gen_range(0..n as u32));
            let v = VertexId(rng.gen_range(0..n as u32));
            let depart = rng.gen_range(0..2 * profile.period());
            assert_eq!(
                plain.dis_at(u, v, depart),
                astar.dis_at(u, v, depart),
                "distances must agree ({u},{v},{depart})"
            );
        }
        let (p, a) = (plain.stats(), astar.stats());
        assert_eq!(p.queries, a.queries);
        assert!(
            a.settled < p.settled,
            "goal-directed search must expand fewer nodes ({} vs {})",
            a.settled,
            p.settled
        );
    }

    #[test]
    fn td_paths_realize_their_durations() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 40;
        let g = random_network(&mut rng, n, n);
        let profile = random_profile(&mut rng, n);
        let engine = TdDijkstra::new(g.clone(), profile.clone());
        for _ in 0..60 {
            let u = VertexId(rng.gen_range(0..n as u32));
            let v = VertexId(rng.gen_range(0..n as u32));
            let depart = rng.gen_range(0..2 * profile.period());
            let Some((d, path)) = engine.path_and_duration_at(u, v, depart) else {
                continue;
            };
            assert_eq!(*path.first().unwrap(), u);
            assert_eq!(*path.last().unwrap(), v);
            // Walking the path edge by edge reproduces the duration.
            let mut t = depart;
            for pair in path.windows(2) {
                let c = min_edge_cost(&g, pair[0], pair[1]).expect("path edge exists");
                t += profile.leg_time(pair[0], c, t);
            }
            assert_eq!(t - depart, d, "path walk must realize dis_at");
        }
    }

    #[test]
    fn flat_profile_equals_static_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 48;
        let g = random_network(&mut rng, n, n);
        let flat = Arc::new(CongestionProfile::flat());
        let labels = Arc::new(HubLabels::build(&g));
        let plain = TdDijkstra::new(g.clone(), flat.clone());
        let astar = TdDijkstra::goal_directed(g.clone(), flat.clone(), labels.clone());
        let cached = TdCachedOracle::new(
            TdDijkstra::goal_directed(g.clone(), flat.clone(), labels.clone()),
            &flat,
            1 << 10,
        );
        let static_oracle = HubLabelOracle::build(g.clone());
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                let (u, v) = (VertexId(u), VertexId(v));
                let want = static_oracle.dis(u, v);
                for depart in [0u64, 123_456, 3 * crate::congestion::HOUR_CS] {
                    assert_eq!(plain.dis_at(u, v, depart), want);
                    assert_eq!(astar.dis_at(u, v, depart), want);
                    assert_eq!(cached.dis_at(u, v, depart), want);
                }
            }
        }
    }

    #[test]
    fn cache_reuse_is_exact_and_time_keyed() {
        // Two regions with different evening multipliers make dis_at
        // asymmetric — the very case `sym_key` caching would corrupt.
        let mut b = NetworkBuilder::new();
        let a = b.add_vertex(Point::new(0.0, 0.0));
        let c = b.add_vertex(Point::new(100.0, 0.0));
        b.add_edge_with_cost(a, c, 10_000).unwrap();
        let g = Arc::new(b.finish().unwrap());
        let profile = Arc::new(
            CongestionProfile::per_region(
                "asym",
                crate::congestion::HOUR_CS,
                vec![vec![1000, 2000], vec![1000, 4000]],
                vec![0, 1],
            )
            .unwrap(),
        );
        let cached =
            TdCachedOracle::new(TdDijkstra::new(g.clone(), profile.clone()), &profile, 256);
        let h = crate::congestion::HOUR_CS;
        // Second bucket: a→c stretches by region 0 (2×), c→a by region 1 (4×).
        assert_eq!(cached.dis_at(a, c, h), 20_000);
        assert_eq!(cached.dis_at(c, a, h), 40_000);
        assert_eq!(cached.dis_hit_stats(), (0, 2), "distinct asymmetric keys");
        // Same bucket, in-bucket completion: exact hits.
        assert_eq!(cached.dis_at(a, c, h + 1_000), 20_000);
        assert_eq!(cached.dis_at(c, a, h + 1_000), 40_000);
        assert_eq!(cached.dis_hit_stats(), (2, 2));
        // Departure whose cached duration would spill past the bucket
        // end: the hit is refused and the trip recomputed exactly.
        let late = 2 * h - 10_000; // 20_000 > 10_000 remaining
        let exact = cached.dis_at(a, c, late);
        let engine = TdDijkstra::new(g.clone(), profile.clone());
        assert_eq!(exact, engine.dis_at(a, c, late));
        assert_eq!(cached.dis_hit_stats(), (2, 3), "spilling reuse refused");
        // Different bucket: different key, fresh computation.
        assert_eq!(cached.dis_at(a, c, 0), 10_000);
        assert_eq!(cached.dis_hit_stats(), (2, 4));
    }

    /// Paths are not cached: every non-trivial path query runs one
    /// search of the inner engine, and its duration is `dis_at`'s.
    #[test]
    fn every_path_query_reaches_the_engine() {
        let mut rng = StdRng::seed_from_u64(29);
        let n = 30;
        let g = random_network(&mut rng, n, n / 2);
        let profile = random_profile(&mut rng, n);
        let cached = TdCachedOracle::new(TdDijkstra::new(g, profile.clone()), &profile, 1 << 10);
        let hot: Vec<u32> = (0..4).map(|_| rng.gen_range(0..n as u32)).collect();
        let mut searched = 0;
        for _ in 0..60 {
            let u = VertexId(hot[rng.gen_range(0..hot.len())]);
            let v = VertexId(hot[rng.gen_range(0..hot.len())]);
            let depart = rng.gen_range(0..profile.period() / 4);
            let before = cached.inner().stats().queries;
            let (d, path) = cached
                .path_and_duration_at(u, v, depart)
                .expect("connected");
            let ran = cached.inner().stats().queries - before;
            assert_eq!(ran, u64::from(u != v), "path({u},{v},{depart})");
            searched += ran;
            assert_eq!((path[0], *path.last().unwrap()), (u, v));
            assert_eq!(d, cached.dis_at(u, v, depart), "dis_at({u},{v},{depart})");
            assert_eq!(
                d,
                cached.dis_at(u, v, depart),
                "cached dis_at({u},{v},{depart})"
            );
        }
        assert!(searched > 30, "test must exercise real paths");
        assert!(cached.dis_hit_stats().0 > 0, "the repeats must hit");
    }

    #[test]
    fn provider_contracts_hold() {
        let mut rng = StdRng::seed_from_u64(23);
        let n = 30;
        let g = random_network(&mut rng, n, n / 2);
        let profile = random_profile(&mut rng, n);
        let labels = Arc::new(HubLabels::build(&g));
        let p = TdTravelTimeProvider::new(g.clone(), profile.clone(), Some(labels));
        let static_dis = |u: VertexId, v: VertexId| {
            let mut e = crate::dijkstra::DijkstraEngine::for_network(&g);
            e.distance(&g, u, v)
        };
        for _ in 0..40 {
            let u = VertexId(rng.gen_range(0..n as u32));
            let v = VertexId(rng.gen_range(0..n as u32));
            if u == v {
                continue;
            }
            let base = static_dis(u, v);
            // Identity at zero and INF pass-through.
            assert_eq!(p.leg_time_between(u, v, 0, 500), 0);
            assert_eq!(p.leg_time_between(u, v, INF, 500), INF);
            // Conservation + FIFO across a day of departures.
            let mut last_arrival = 0u64;
            let mut t = 0u64;
            while t < 2 * profile.period() {
                let lt = p.leg_time_between(u, v, base, t);
                assert!(lt >= base, "conservation broke at t={t}");
                let arrival = t + lt;
                assert!(arrival >= last_arrival, "FIFO broke at t={t}");
                last_arrival = arrival;
                t += 997;
            }
        }
    }

    #[test]
    fn td_expand_emits_a_consistent_leg() {
        let mut rng = StdRng::seed_from_u64(31);
        let n = 36;
        let g = random_network(&mut rng, n, n);
        let profile = random_profile(&mut rng, n);
        let p = TdTravelTimeProvider::new(g.clone(), profile.clone(), None);
        let mut checked = 0;
        for _ in 0..60 {
            let u = VertexId(rng.gen_range(0..n as u32));
            let v = VertexId(rng.gen_range(0..n as u32));
            if u == v {
                continue;
            }
            let mut e = crate::dijkstra::DijkstraEngine::for_network(&g);
            let base = e.distance(&g, u, v);
            if base == 0 || base >= INF {
                continue;
            }
            let depart = rng.gen_range(0..2 * profile.period());
            let mut triples: Vec<(VertexId, u64, Cost)> = Vec::new();
            let ok = p.td_expand(u, v, base, depart, &mut |w, at, off| {
                triples.push((w, at, off));
            });
            assert!(ok, "non-degenerate legs must expand");
            let lt = p.leg_time_between(u, v, base, depart);
            let last = *triples.last().unwrap();
            assert_eq!(last.0, v);
            assert_eq!(last.1, depart + lt, "final arrival pins the schedule");
            assert_eq!(last.2, base, "final offset pins the ledger");
            let mut prev_at = depart;
            let mut prev_off = 0;
            for &(_, at, off) in &triples {
                assert!(at >= prev_at, "arrivals must be monotone");
                assert!(off >= prev_off, "offsets must be monotone");
                assert!(off <= base);
                prev_at = at;
                prev_off = off;
            }
            checked += 1;
        }
        assert!(checked > 10, "test must exercise real legs");
    }

    /// The oracle has one owner, but the types stay `Sync`: two threads
    /// sharing one cached engine queue on its locks and get exactly the
    /// single-threaded answers, with every duration query counted once.
    /// A barrier before each query makes both threads issue the same
    /// query at once, so they contend for the same key every time.
    #[test]
    fn two_threads_sharing_one_cached_oracle_get_the_reference_answers() {
        let mut rng = StdRng::seed_from_u64(19);
        let n = 40;
        let g = random_network(&mut rng, n, n);
        let profile = random_profile(&mut rng, n);
        // Few endpoints and clustered departures, so the cache really
        // hits.
        let hot: Vec<u32> = (0..5).map(|_| rng.gen_range(0..n as u32)).collect();
        let queries: Vec<(VertexId, VertexId, u64)> = (0..150)
            .map(|_| {
                let u = VertexId(hot[rng.gen_range(0..hot.len())]);
                let v = VertexId(hot[rng.gen_range(0..hot.len())]);
                (u, v, rng.gen_range(0..profile.period() / 4))
            })
            .collect();
        let reference = TdDijkstra::new(g.clone(), profile.clone());
        let want: Vec<Cost> = queries
            .iter()
            .map(|&(u, v, t)| reference.dis_at(u, v, t))
            .collect();
        let shared = TdCachedOracle::new(
            TdDijkstra::new(g.clone(), profile.clone()),
            &profile,
            1 << 10,
        );
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for (&(u, v, t), &d) in queries.iter().zip(&want) {
                        barrier.wait();
                        assert_eq!(shared.dis_at(u, v, t), d, "dis_at({u},{v},{t})");
                        let (pd, path) = shared.path_and_duration_at(u, v, t).expect("connected");
                        assert_eq!(pd, d, "path duration ({u},{v},{t})");
                        assert_eq!((path[0], *path.last().unwrap()), (u, v));
                        let mut at = t;
                        for pair in path.windows(2) {
                            let c = min_edge_cost(&g, pair[0], pair[1]).expect("path edge");
                            at += profile.leg_time(pair[0], c, at);
                        }
                        assert_eq!(at - t, d, "path walk ({u},{v},{t})");
                    }
                });
            }
        });
        let non_trivial = queries.iter().filter(|&&(u, v, _)| u != v).count() as u64;
        let (hits, misses) = shared.dis_hit_stats();
        assert_eq!(hits + misses, 2 * non_trivial, "one count per query");
        assert!(hits > 0 && misses > 0, "({hits}, {misses})");
    }

    #[test]
    fn flat_provider_never_expands_or_stretches() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_network(&mut rng, 12, 6);
        let flat = Arc::new(CongestionProfile::flat());
        let p = TdTravelTimeProvider::new(g.clone(), flat, None);
        assert!(p.is_flat());
        assert_eq!(p.leg_time_between(VertexId(0), VertexId(5), 777, 123), 777);
        let expanded = p.td_expand(VertexId(0), VertexId(5), 777, 123, &mut |_, _, _| {
            panic!("flat provider must not emit")
        });
        assert!(!expanded, "flat falls back to static expansion");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// TD-Dijkstra (plain and goal-directed) is exactly the
            /// time-expanded reference on random graphs × random FIFO
            /// profiles, and pruning never expands more nodes.
            #[test]
            fn td_search_equals_reference(
                seed in 0u64..1_000_000,
                n in 5usize..24,
                queries in 2usize..8,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let g = random_network(&mut rng, n, n / 2);
                let profile = random_profile(&mut rng, n);
                let labels = Arc::new(HubLabels::build(&g));
                let plain = TdDijkstra::new(g.clone(), profile.clone());
                let astar =
                    TdDijkstra::goal_directed(g.clone(), profile.clone(), labels);
                for _ in 0..queries {
                    let u = VertexId(rng.gen_range(0..n as u32));
                    let v = VertexId(rng.gen_range(0..n as u32));
                    let depart = rng.gen_range(0..3 * profile.period());
                    let want = reference_dis_at(&g, &profile, u, v, depart);
                    prop_assert_eq!(plain.dis_at(u, v, depart), want);
                    prop_assert_eq!(astar.dis_at(u, v, depart), want);
                }
                let (p, a) = (plain.stats(), astar.stats());
                prop_assert!(a.settled <= p.settled);
            }

            /// The time-bucketed cache is transparent: cached answers
            /// equal uncached answers for arbitrary query interleavings.
            #[test]
            fn td_cache_is_transparent(
                seed in 0u64..1_000_000,
                n in 5usize..20,
                queries in 4usize..24,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let g = random_network(&mut rng, n, n / 2);
                let profile = random_profile(&mut rng, n);
                let reference = TdDijkstra::new(g.clone(), profile.clone());
                let cached = TdCachedOracle::new(
                    TdDijkstra::new(g.clone(), profile.clone()),
                    &profile,
                    64,
                );
                // Few distinct endpoints + clustered departures force
                // plenty of genuine cache reuse.
                let hot: Vec<u32> =
                    (0..4).map(|_| rng.gen_range(0..n as u32)).collect();
                for _ in 0..queries {
                    let u = VertexId(hot[rng.gen_range(0..hot.len())]);
                    let v = VertexId(hot[rng.gen_range(0..hot.len())]);
                    let depart = rng.gen_range(0..2 * profile.period());
                    for dt in [0u64, 1, 50, 1_000] {
                        let t = depart + dt;
                        prop_assert_eq!(
                            cached.dis_at(u, v, t),
                            reference.dis_at(u, v, t),
                            "cache must be transparent at t={}", t
                        );
                    }
                }
            }
        }
    }
}
