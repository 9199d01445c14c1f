//! A reusable Dijkstra engine for distances, paths and full searches.
//!
//! The engine owns its working arrays and resets them in `O(1)` between
//! searches with an epoch counter, so repeated queries (the common case
//! in planners and in hub-label construction) never reallocate — a
//! "workhorse buffer" in the sense of the Rust performance guide.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::RoadNetwork;
use crate::{Cost, VertexId, INF};

/// Reusable single-source shortest path engine over a [`RoadNetwork`].
#[derive(Debug)]
pub struct DijkstraEngine {
    dist: Vec<Cost>,
    parent: Vec<u32>,
    epoch: Vec<u32>,
    current_epoch: u32,
    heap: BinaryHeap<Reverse<(Cost, u32)>>,
}

const NO_PARENT: u32 = u32::MAX;

impl DijkstraEngine {
    /// Creates an engine for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        DijkstraEngine {
            dist: vec![INF; n],
            parent: vec![NO_PARENT; n],
            epoch: vec![0; n],
            current_epoch: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Creates an engine sized for `g`.
    pub fn for_network(g: &RoadNetwork) -> Self {
        Self::new(g.num_vertices())
    }

    #[inline]
    fn begin(&mut self, s: VertexId) {
        self.current_epoch = self.current_epoch.wrapping_add(1);
        if self.current_epoch == 0 {
            // Extremely rare wrap: hard reset.
            self.epoch.fill(0);
            self.current_epoch = 1;
        }
        self.heap.clear();
        self.touch(s.idx());
        self.dist[s.idx()] = 0;
        self.heap.push(Reverse((0, s.0)));
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
    fn seen_dist(&self, i: usize) -> Cost {
        if self.epoch[i] == self.current_epoch {
            self.dist[i]
        } else {
            INF
        }
    }

    /// Point-to-point distance with early termination at `t`.
    /// Returns [`INF`] if `t` is unreachable.
    pub fn distance(&mut self, g: &RoadNetwork, s: VertexId, t: VertexId) -> Cost {
        if s == t {
            return 0;
        }
        self.begin(s);
        while let Some(Reverse((d, v))) = self.heap.pop() {
            if d > self.seen_dist(v as usize) {
                continue; // stale entry
            }
            if v == t.0 {
                return d;
            }
            self.relax_neighbors(g, v, d);
        }
        INF
    }

    /// Full single-source search; afterwards [`Self::dist_to`] and
    /// [`Self::path_to`] answer for any target.
    pub fn sssp(&mut self, g: &RoadNetwork, s: VertexId) {
        self.begin(s);
        while let Some(Reverse((d, v))) = self.heap.pop() {
            if d > self.seen_dist(v as usize) {
                continue;
            }
            self.relax_neighbors(g, v, d);
        }
    }

    /// Full single-source search that also writes the settle order into
    /// `settled` (cleared first): every reached vertex once, each after
    /// its tree parent ([`Self::parent_of`]).
    pub fn sssp_settled(&mut self, g: &RoadNetwork, s: VertexId, settled: &mut Vec<VertexId>) {
        settled.clear();
        self.begin(s);
        while let Some(Reverse((d, v))) = self.heap.pop() {
            if d > self.seen_dist(v as usize) {
                continue;
            }
            settled.push(VertexId(v));
            self.relax_neighbors(g, v, d);
        }
    }

    /// The predecessor of `v` on its shortest path from the last search's
    /// source; `None` for the source and for unreached vertices.
    #[inline]
    pub fn parent_of(&self, v: VertexId) -> Option<VertexId> {
        if self.epoch[v.idx()] != self.current_epoch || self.parent[v.idx()] == NO_PARENT {
            return None;
        }
        Some(VertexId(self.parent[v.idx()]))
    }

    #[inline]
    fn relax_neighbors(&mut self, g: &RoadNetwork, v: u32, d: Cost) {
        let lo = g.offsets[v as usize] as usize;
        let hi = g.offsets[v as usize + 1] as usize;
        for k in lo..hi {
            let n = g.targets[k] as usize;
            let nd = d + g.costs[k];
            self.touch(n);
            if nd < self.dist[n] {
                self.dist[n] = nd;
                self.parent[n] = v;
                self.heap.push(Reverse((nd, n as u32)));
            }
        }
    }

    /// Distance to `t` after [`Self::sssp`].
    #[inline]
    pub fn dist_to(&self, t: VertexId) -> Cost {
        self.seen_dist(t.idx())
    }

    /// Reconstructs the shortest path `s -> t` (inclusive of both
    /// endpoints) after [`Self::sssp`]. Returns `None` if unreachable.
    pub fn path_to(&self, t: VertexId) -> Option<Vec<VertexId>> {
        if self.seen_dist(t.idx()) >= INF {
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

    /// Point-to-point shortest path (runs a fresh search).
    pub fn shortest_path(
        &mut self,
        g: &RoadNetwork,
        s: VertexId,
        t: VertexId,
    ) -> Option<Vec<VertexId>> {
        if s == t {
            return Some(vec![s]);
        }
        self.begin(s);
        while let Some(Reverse((d, v))) = self.heap.pop() {
            if d > self.seen_dist(v as usize) {
                continue;
            }
            if v == t.0 {
                return self.path_to(t);
            }
            self.relax_neighbors(g, v, d);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::geo::Point;

    /// 0 -2- 1 -2- 2
    /// |           |
    /// 10          1
    /// |           |
    /// 3 ----------4   (3-4 cost 2)
    fn sample() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        for i in 0..5 {
            b.add_vertex(Point::new(f64::from(i), 0.0));
        }
        let v = |i: u32| VertexId(i);
        b.add_edge_with_cost(v(0), v(1), 2).unwrap();
        b.add_edge_with_cost(v(1), v(2), 2).unwrap();
        b.add_edge_with_cost(v(0), v(3), 10).unwrap();
        b.add_edge_with_cost(v(2), v(4), 1).unwrap();
        b.add_edge_with_cost(v(3), v(4), 2).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn point_to_point_distances() {
        let g = sample();
        let mut e = DijkstraEngine::for_network(&g);
        assert_eq!(e.distance(&g, VertexId(0), VertexId(0)), 0);
        assert_eq!(e.distance(&g, VertexId(0), VertexId(2)), 4);
        // 0-1-2-4-3 = 2+2+1+2 = 7 beats direct 10.
        assert_eq!(e.distance(&g, VertexId(0), VertexId(3)), 7);
        assert_eq!(e.distance(&g, VertexId(3), VertexId(0)), 7);
    }

    #[test]
    fn engine_reuse_across_searches() {
        let g = sample();
        let mut e = DijkstraEngine::for_network(&g);
        for _ in 0..100 {
            assert_eq!(e.distance(&g, VertexId(0), VertexId(3)), 7);
            assert_eq!(e.distance(&g, VertexId(4), VertexId(1)), 3);
        }
    }

    #[test]
    fn sssp_and_paths() {
        let g = sample();
        let mut e = DijkstraEngine::for_network(&g);
        e.sssp(&g, VertexId(0));
        assert_eq!(e.dist_to(VertexId(4)), 5);
        let p = e.path_to(VertexId(3)).unwrap();
        assert_eq!(
            p,
            vec![
                VertexId(0),
                VertexId(1),
                VertexId(2),
                VertexId(4),
                VertexId(3)
            ]
        );
        // Path endpoints and step-wise consistency.
        assert_eq!(*p.first().unwrap(), VertexId(0));
        assert_eq!(*p.last().unwrap(), VertexId(3));
    }

    #[test]
    fn shortest_path_trivial_and_unreachable() {
        let g = sample();
        let mut e = DijkstraEngine::for_network(&g);
        assert_eq!(
            e.shortest_path(&g, VertexId(2), VertexId(2)),
            Some(vec![VertexId(2)])
        );

        let mut b = NetworkBuilder::new();
        let a = b.add_vertex(Point::new(0.0, 0.0));
        let c = b.add_vertex(Point::new(1.0, 0.0));
        b.add_vertex(Point::new(2.0, 0.0)); // island vertex 2
        b.add_edge_with_cost(a, c, 1).unwrap();
        let g2 = b.finish().unwrap();
        let mut e2 = DijkstraEngine::for_network(&g2);
        assert_eq!(e2.distance(&g2, a, VertexId(2)), INF);
        assert_eq!(e2.shortest_path(&g2, a, VertexId(2)), None);
    }

    #[test]
    fn distances_match_between_sssp_and_p2p() {
        let g = sample();
        let mut e = DijkstraEngine::for_network(&g);
        e.sssp(&g, VertexId(1));
        let from_sssp: Vec<Cost> = g.vertices().map(|v| e.dist_to(v)).collect();
        for v in g.vertices() {
            assert_eq!(e.distance(&g, VertexId(1), v), from_sssp[v.idx()]);
        }
    }
}
