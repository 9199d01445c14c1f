//! The distance-oracle abstraction and its decorators.
//!
//! Every URPSM algorithm is written against [`DistanceOracle`], which
//! answers the three primitives the paper uses:
//!
//! * `dis(u, v)` — shortest travel time (the paper's `dis(·,·)`),
//! * `euc(u, v)` — the Euclidean travel-time *lower bound* of §5.1
//!   (coordinate arithmetic only, **not** counted as a distance query),
//! * `shortest_path(u, v)` — concrete vertex path, used only when a
//!   route is committed or simulated (§5.3 notes 2–4 path queries per
//!   accepted request); `shortest_path_offsets(u, v, out)` writes the
//!   same path, with each vertex's travel time from `u`, into a buffer
//!   the caller owns: the form worker motion expands a leg from, into
//!   one buffer it keeps (DESIGN.md §8).
//!
//! [`HubLabelOracle`] answers `dis` and both path queries from one
//! hub-label index ([`HubLabels::distance`], [`HubLabels::path`],
//! [`HubLabels::path_with_offsets`]). It holds no search state and
//! takes no lock, so any number of threads query it at once.
//!
//! [`CountingOracle`] wraps any oracle with atomic query counters; this
//! is how we reproduce the paper's "tens of billions of saved shortest
//! distance queries" statistics (§6.2).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::cache::lock;
use crate::dijkstra::DijkstraEngine;
use crate::geo::Point;
use crate::graph::{euclidean_cost, RoadNetwork};
use crate::hub_labels::HubLabels;
use crate::{cost_add, Cost, VertexId};

/// Shortest-distance / shortest-path oracle over a road network.
///
/// Implementations must be thread-safe (`Send + Sync`) so experiment
/// sweeps can share one oracle across worker threads.
pub trait DistanceOracle: Send + Sync {
    /// Number of vertices of the underlying network.
    fn num_vertices(&self) -> usize;

    /// Planar coordinates of `v` (for Euclidean bounds and grids).
    fn point(&self, v: VertexId) -> Point;

    /// Fastest road speed (m/s), the speed assumed by [`Self::euc`].
    fn top_speed_mps(&self) -> f64;

    /// Exact shortest travel time between `u` and `v` ([`crate::INF`]
    /// when disconnected).
    fn dis(&self, u: VertexId, v: VertexId) -> Cost;

    /// The concrete shortest path, inclusive of both endpoints.
    fn shortest_path(&self, u: VertexId, v: VertexId) -> Option<Vec<VertexId>>;

    /// Clears `out` and writes [`Self::shortest_path`] into it, each
    /// vertex with its travel time from `u` along the path; the last
    /// offset is the path's cost. Returns `false`, leaving `out` empty,
    /// when there is no path. Worker motion expands a leg from this one
    /// call, into a buffer it keeps.
    ///
    /// The default costs the path with one [`Self::dis`] per edge.
    /// [`HubLabelOracle`] reads the offsets off the label walk that
    /// finds the path ([`HubLabels::path_with_offsets`]) and issues no
    /// `dis`; the caching decorators forward to their inner oracle.
    fn shortest_path_offsets(
        &self,
        u: VertexId,
        v: VertexId,
        out: &mut Vec<(VertexId, Cost)>,
    ) -> bool {
        out.clear();
        let Some(path) = self.shortest_path(u, v) else {
            return false;
        };
        let mut offset: Cost = 0;
        for (i, &x) in path.iter().enumerate() {
            if i > 0 {
                offset = cost_add(offset, self.dis(path[i - 1], x));
            }
            out.push((x, offset));
        }
        true
    }

    /// Euclidean travel-time lower bound: straight-line meters at the
    /// network's top speed, rounded down. Guaranteed `<= dis(u, v)`.
    #[inline]
    fn euc(&self, u: VertexId, v: VertexId) -> Cost {
        let d = self.point(u).euclidean_m(&self.point(v));
        euclidean_cost(d, self.top_speed_mps())
    }

    /// The road network this oracle answers over, when it is
    /// graph-backed. Matrix-style oracles return `None` (the default).
    /// The mobility service uses this to stand up the time-dependent
    /// oracle ([`crate::td`]) on the *same* graph; decorators forward.
    fn backing_network(&self) -> Option<&Arc<RoadNetwork>> {
        None
    }

    /// The static hub-label index behind this oracle, if any — reused
    /// as the free-flow A\* potentials of goal-directed TD search
    /// ([`crate::td::TdDijkstra::goal_directed`]). Decorators forward.
    fn backing_labels(&self) -> Option<&Arc<HubLabels>> {
        None
    }
}

/// Oracle backed by plain Dijkstra searches. Exact but slow — intended
/// for tests, tiny graphs and as the reference in oracle benchmarks.
pub struct DijkstraOracle {
    g: Arc<RoadNetwork>,
    engine: Mutex<DijkstraEngine>,
}

impl DijkstraOracle {
    /// Creates an oracle over `g`.
    pub fn new(g: Arc<RoadNetwork>) -> Self {
        let engine = Mutex::new(DijkstraEngine::for_network(&g));
        DijkstraOracle { g, engine }
    }
}

impl DistanceOracle for DijkstraOracle {
    fn num_vertices(&self) -> usize {
        self.g.num_vertices()
    }

    fn point(&self, v: VertexId) -> Point {
        self.g.point(v)
    }

    fn top_speed_mps(&self) -> f64 {
        self.g.top_speed_mps()
    }

    fn dis(&self, u: VertexId, v: VertexId) -> Cost {
        lock(&self.engine).distance(&self.g, u, v)
    }

    fn shortest_path(&self, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        lock(&self.engine).shortest_path(&self.g, u, v)
    }

    fn backing_network(&self) -> Option<&Arc<RoadNetwork>> {
        Some(&self.g)
    }
}

/// Oracle backed by hub labels for distances and paths alike (§6.1 of
/// the paper).
pub struct HubLabelOracle {
    g: Arc<RoadNetwork>,
    labels: Arc<HubLabels>,
}

impl HubLabelOracle {
    /// Builds the labels for `g` (one-off preprocessing; excluded from
    /// response-time measurements, as in the paper).
    pub fn build(g: Arc<RoadNetwork>) -> Self {
        let labels = Arc::new(HubLabels::build(&g));
        HubLabelOracle { g, labels }
    }

    /// Wraps prebuilt labels.
    pub fn from_labels(g: Arc<RoadNetwork>, labels: HubLabels) -> Self {
        HubLabelOracle {
            g,
            labels: Arc::new(labels),
        }
    }
}

impl DistanceOracle for HubLabelOracle {
    fn num_vertices(&self) -> usize {
        self.g.num_vertices()
    }

    fn point(&self, v: VertexId) -> Point {
        self.g.point(v)
    }

    fn top_speed_mps(&self) -> f64 {
        self.g.top_speed_mps()
    }

    fn dis(&self, u: VertexId, v: VertexId) -> Cost {
        self.labels.distance(u, v)
    }

    fn shortest_path(&self, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        urpsm_obs::with(|m| m.path_queries.inc());
        self.labels.path(u, v)
    }

    fn shortest_path_offsets(
        &self,
        u: VertexId,
        v: VertexId,
        out: &mut Vec<(VertexId, Cost)>,
    ) -> bool {
        urpsm_obs::with(|m| m.path_queries.inc());
        self.labels.path_with_offsets(u, v, out)
    }

    fn backing_network(&self) -> Option<&Arc<RoadNetwork>> {
        Some(&self.g)
    }

    fn backing_labels(&self) -> Option<&Arc<HubLabels>> {
        Some(&self.labels)
    }
}

/// Query counters observed through a [`CountingOracle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Shortest-distance queries (`dis`).
    pub dis: u64,
    /// Shortest-path queries.
    pub path: u64,
    /// Euclidean bound evaluations (coordinate math; tracked for
    /// completeness, the paper does not count these as queries).
    pub euc: u64,
}

/// Decorator that counts queries flowing into an inner oracle.
pub struct CountingOracle<O> {
    inner: O,
    dis: AtomicU64,
    path: AtomicU64,
    euc: AtomicU64,
}

impl<O: DistanceOracle> CountingOracle<O> {
    /// Wraps `inner` with fresh counters.
    pub fn new(inner: O) -> Self {
        CountingOracle {
            inner,
            dis: AtomicU64::new(0),
            path: AtomicU64::new(0),
            euc: AtomicU64::new(0),
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> QueryStats {
        QueryStats {
            dis: self.dis.load(Ordering::Relaxed),
            path: self.path.load(Ordering::Relaxed),
            euc: self.euc.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.dis.store(0, Ordering::Relaxed);
        self.path.store(0, Ordering::Relaxed);
        self.euc.store(0, Ordering::Relaxed);
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: DistanceOracle> DistanceOracle for CountingOracle<O> {
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
        self.dis.fetch_add(1, Ordering::Relaxed);
        self.inner.dis(u, v)
    }

    fn shortest_path(&self, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        self.path.fetch_add(1, Ordering::Relaxed);
        self.inner.shortest_path(u, v)
    }

    fn euc(&self, u: VertexId, v: VertexId) -> Cost {
        self.euc.fetch_add(1, Ordering::Relaxed);
        self.inner.euc(u, v)
    }

    // Structural accessors are not queries: no counter bump.
    fn backing_network(&self) -> Option<&Arc<RoadNetwork>> {
        self.inner.backing_network()
    }

    fn backing_labels(&self) -> Option<&Arc<HubLabels>> {
        self.inner.backing_labels()
    }
}

// Blanket forwarding so `&O`, `Box<dyn ...>` and `Arc<dyn ...>` are
// oracles too; planners can then hold whatever ownership suits them.
macro_rules! forward_oracle {
    ($ty:ty) => {
        impl<O: DistanceOracle + ?Sized> DistanceOracle for $ty {
            fn num_vertices(&self) -> usize {
                (**self).num_vertices()
            }
            fn point(&self, v: VertexId) -> Point {
                (**self).point(v)
            }
            fn top_speed_mps(&self) -> f64 {
                (**self).top_speed_mps()
            }
            fn dis(&self, u: VertexId, v: VertexId) -> Cost {
                (**self).dis(u, v)
            }
            fn shortest_path(&self, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
                (**self).shortest_path(u, v)
            }
            fn shortest_path_offsets(
                &self,
                u: VertexId,
                v: VertexId,
                out: &mut Vec<(VertexId, Cost)>,
            ) -> bool {
                (**self).shortest_path_offsets(u, v, out)
            }
            fn euc(&self, u: VertexId, v: VertexId) -> Cost {
                (**self).euc(u, v)
            }
            fn backing_network(&self) -> Option<&Arc<RoadNetwork>> {
                (**self).backing_network()
            }
            fn backing_labels(&self) -> Option<&Arc<HubLabels>> {
                (**self).backing_labels()
            }
        }
    };
}

forward_oracle!(&O);
forward_oracle!(Box<O>);
forward_oracle!(Arc<O>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::geo::Point;

    fn square() -> Arc<RoadNetwork> {
        // 0 - 1
        // |   |
        // 3 - 2   square with 23 m sides, all cost 100 (= straight-line
        //         travel time at top speed, so the Euclidean bound is tight).
        let mut b = NetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 23.0));
        let v1 = b.add_vertex(Point::new(23.0, 23.0));
        let v2 = b.add_vertex(Point::new(23.0, 0.0));
        let v3 = b.add_vertex(Point::new(0.0, 0.0));
        for (u, v) in [(v0, v1), (v1, v2), (v2, v3), (v3, v0)] {
            b.add_edge_with_cost(u, v, 100).unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn dijkstra_and_hub_label_oracles_agree() {
        let g = square();
        let d = DijkstraOracle::new(g.clone());
        let h = HubLabelOracle::build(g.clone());
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(d.dis(u, v), h.dis(u, v), "({u},{v})");
            }
        }
        // Opposite corners: two hops.
        assert_eq!(d.dis(VertexId(0), VertexId(2)), 200);
    }

    #[test]
    fn euclid_is_lower_bound() {
        let g = square();
        let h = HubLabelOracle::build(g);
        for u in 0..4u32 {
            for v in 0..4u32 {
                let (u, v) = (VertexId(u), VertexId(v));
                assert!(h.euc(u, v) <= h.dis(u, v), "euc > dis for ({u},{v})");
            }
        }
    }

    #[test]
    fn counting_decorator_counts() {
        let g = square();
        let c = CountingOracle::new(DijkstraOracle::new(g));
        assert_eq!(c.stats(), QueryStats::default());
        c.dis(VertexId(0), VertexId(2));
        c.dis(VertexId(1), VertexId(3));
        c.euc(VertexId(0), VertexId(1));
        c.shortest_path(VertexId(0), VertexId(2));
        let s = c.stats();
        assert_eq!(s.dis, 2);
        assert_eq!(s.euc, 1);
        assert_eq!(s.path, 1);
        c.reset();
        assert_eq!(c.stats(), QueryStats::default());
    }

    #[test]
    fn counting_stays_exact_under_concurrency() {
        // Concurrent experiment cells hammer one shared oracle from
        // many threads; the §6.2 query statistics must stay *exact*,
        // not approximately right.
        let g = square();
        let c = CountingOracle::new(DijkstraOracle::new(g));
        const THREADS: usize = 8;
        const PER_THREAD: usize = 250;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let u = VertexId(((t + i) % 4) as u32);
                        let v = VertexId((i % 4) as u32);
                        c.dis(u, v);
                        c.euc(u, v);
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.dis, (THREADS * PER_THREAD) as u64);
        assert_eq!(s.euc, (THREADS * PER_THREAD) as u64);
        assert_eq!(s.path, 0);
    }

    #[test]
    fn trait_object_forwarding() {
        let g = square();
        let boxed: Box<dyn DistanceOracle> = Box::new(DijkstraOracle::new(g.clone()));
        assert_eq!(boxed.dis(VertexId(0), VertexId(2)), 200);
        let arced: Arc<dyn DistanceOracle> = Arc::new(DijkstraOracle::new(g));
        assert_eq!(arced.dis(VertexId(0), VertexId(2)), 200);
        let by_ref: &dyn DistanceOracle = &*arced;
        assert_eq!(by_ref.num_vertices(), 4);
    }

    /// The trait default (`shortest_path` plus one `dis` per edge, kept
    /// by the Dijkstra and matrix oracles) and the label walk's override
    /// agree on a graph whose shortest paths are unique: every edge
    /// cost is a distinct power of two, so no two paths cost the same.
    /// One buffer, junk to start with, serves every query of every
    /// oracle: nothing a query leaves behind leaks into the next.
    #[test]
    fn default_offsets_agree_with_the_label_walk() {
        use crate::matrix::MatrixOracle;
        let n = 12u32;
        let mut b = NetworkBuilder::new();
        for i in 0..n {
            b.add_vertex(Point::new(f64::from(i), f64::from(i * i % 7)));
        }
        let mut cost = 1;
        let mut edge = |b: &mut NetworkBuilder, u: u32, v: u32| {
            b.add_edge_with_cost(VertexId(u), VertexId(v), cost)
                .unwrap();
            cost *= 2;
        };
        for i in 1..n {
            edge(&mut b, i - 1, i);
        }
        for (u, v) in [(0, 5), (2, 9), (3, 11), (4, 7), (1, 10), (6, 11)] {
            edge(&mut b, u, v);
        }
        let g = Arc::new(b.finish().unwrap());
        let labels = HubLabelOracle::build(g.clone());
        let defaults: [&dyn DistanceOracle; 2] = [
            &DijkstraOracle::new(g.clone()),
            &MatrixOracle::from_network(&g),
        ];
        let mut out = vec![(VertexId(7), 99); 40];
        for u in g.vertices() {
            for v in g.vertices() {
                assert!(labels.shortest_path_offsets(u, v, &mut out));
                let walk = out.clone();
                assert_eq!(walk.last().unwrap().1, labels.dis(u, v), "({u},{v})");
                for oracle in defaults {
                    assert!(oracle.shortest_path_offsets(u, v, &mut out));
                    assert_eq!(out, walk, "({u},{v})");
                }
            }
        }
    }

    /// A pair with no path answers `false` and leaves the buffer empty,
    /// on the label walk and on the trait default alike.
    #[test]
    fn an_unreachable_pair_leaves_the_buffer_empty() {
        use crate::matrix::MatrixOracle;
        let mut b = NetworkBuilder::new();
        let v: Vec<VertexId> = (0..4)
            .map(|i| b.add_vertex(Point::new(f64::from(i), 0.0)))
            .collect();
        b.add_edge_with_cost(v[0], v[1], 3).unwrap();
        b.add_edge_with_cost(v[2], v[3], 4).unwrap();
        let g = Arc::new(b.finish().unwrap());
        let oracles: [&dyn DistanceOracle; 3] = [
            &HubLabelOracle::build(g.clone()),
            &DijkstraOracle::new(g.clone()),
            &MatrixOracle::from_network(&g),
        ];
        let mut out = vec![(v[3], 5)];
        for oracle in oracles {
            assert!(!oracle.shortest_path_offsets(v[0], v[3], &mut out));
            assert!(out.is_empty());
            assert!(oracle.shortest_path_offsets(v[0], v[1], &mut out));
            assert_eq!(out, [(v[0], 0), (v[1], 3)]);
        }
    }

    #[test]
    fn shortest_path_endpoints() {
        let g = square();
        let h = HubLabelOracle::build(g);
        let p = h.shortest_path(VertexId(0), VertexId(2)).unwrap();
        assert_eq!(*p.first().unwrap(), VertexId(0));
        assert_eq!(*p.last().unwrap(), VertexId(2));
        assert_eq!(p.len(), 3);
    }
}
