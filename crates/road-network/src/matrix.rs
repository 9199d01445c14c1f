//! Dense all-pairs oracle for tests, worked examples and tiny graphs.
//!
//! The paper's worked examples (Examples 1–3, Table 3) are specified by
//! concrete pairwise distances rather than an edge list; [`MatrixOracle`]
//! lets tests pin those numbers exactly. It also supports building from a
//! [`RoadNetwork`] via Floyd–Warshall with next-hop reconstruction, which
//! gives real `shortest_path` answers on small graphs.

use crate::geo::Point;
use crate::graph::RoadNetwork;
use crate::oracle::DistanceOracle;
use crate::{Cost, VertexId, INF};

/// An explicit `n × n` shortest-distance matrix with coordinates.
#[derive(Debug, Clone)]
pub struct MatrixOracle {
    n: usize,
    dist: Vec<Cost>,
    /// `next[u*n + v]` = first hop on the shortest path `u -> v`
    /// (`u32::MAX` when unknown/unreachable).
    next: Vec<u32>,
    points: Vec<Point>,
    top_speed_mps: f64,
}

const NO_HOP: u32 = u32::MAX;

impl MatrixOracle {
    /// Builds from an explicit symmetric distance matrix (row-major,
    /// `dist[u][v]`); `points` supply coordinates for Euclidean bounds.
    ///
    /// Paths degrade to `[u, v]` (no intermediate vertices known).
    ///
    /// # Panics
    /// If the matrix is not square/symmetric, has a nonzero diagonal, or
    /// violates the triangle inequality — such a "metric" would break
    /// the insertion DP's correctness guarantees, so tests fail fast.
    pub fn from_matrix(dist_rows: &[Vec<Cost>], points: Vec<Point>, top_speed_mps: f64) -> Self {
        let me = Self::from_matrix_unchecked(dist_rows, points, top_speed_mps);
        let (n, dist) = (me.n, &me.dist);
        let row = |u: usize| &dist[u * n..(u + 1) * n];
        // Every triple `(u, w, v)`, row against row: a hop `u → w` that
        // does not exist bounds nothing, so its whole row is skipped.
        for u in 0..n {
            for (w, &duw) in row(u).iter().enumerate() {
                if duw >= INF {
                    continue;
                }
                for (v, (&duv, &dwv)) in row(u).iter().zip(row(w)).enumerate() {
                    if dwv < INF {
                        assert!(
                            duv <= duw + dwv,
                            "triangle inequality violated at ({u},{w},{v})"
                        );
                    }
                }
            }
        }
        me
    }

    /// Like [`MatrixOracle::from_matrix`] but without the triangle
    /// inequality audit (symmetry and a zero diagonal are still
    /// enforced).
    ///
    /// Exists for one purpose: the paper's worked Example 2 publishes
    /// distances that are *not* a metric (`dis(v1,v3) = 9` exceeds
    /// `dis(v1,v2) + dis(v2,v3) = 8`), which no real road network could
    /// produce; the golden tests reproduce the published trace on the
    /// raw numbers anyway. Do not use this for anything else.
    pub fn from_matrix_unchecked(
        dist_rows: &[Vec<Cost>],
        points: Vec<Point>,
        top_speed_mps: f64,
    ) -> Self {
        let n = dist_rows.len();
        assert_eq!(points.len(), n, "one point per vertex");
        let mut dist = vec![INF; n * n];
        for (u, row) in dist_rows.iter().enumerate() {
            assert_eq!(row.len(), n, "matrix must be square");
            for (v, &d) in row.iter().enumerate() {
                dist[u * n + v] = d;
            }
        }
        for u in 0..n {
            assert_eq!(dist[u * n + u], 0, "diagonal must be zero");
            for v in 0..n {
                assert_eq!(dist[u * n + v], dist[v * n + u], "must be symmetric");
            }
        }
        let mut next = vec![NO_HOP; n * n];
        for u in 0..n {
            for v in 0..n {
                if u != v && dist[u * n + v] < INF {
                    next[u * n + v] = v as u32;
                }
            }
        }
        MatrixOracle {
            n,
            dist,
            next,
            points,
            top_speed_mps,
        }
    }

    /// Builds the full all-pairs matrix from a road network via
    /// Floyd–Warshall (`O(|V|^3)`, use only on small graphs).
    pub fn from_network(g: &RoadNetwork) -> Self {
        let n = g.num_vertices();
        let mut dist = vec![INF; n * n];
        let mut next = vec![NO_HOP; n * n];
        for u in 0..n {
            dist[u * n + u] = 0;
        }
        for u in g.vertices() {
            for (v, c) in g.neighbors(u) {
                let slot = u.idx() * n + v.idx();
                if c < dist[slot] {
                    dist[slot] = c;
                    next[slot] = v.0;
                }
            }
        }
        for k in 0..n {
            for u in 0..n {
                let duk = dist[u * n + k];
                if duk >= INF {
                    continue;
                }
                for v in 0..n {
                    let alt = duk + dist[k * n + v];
                    if alt < dist[u * n + v] {
                        dist[u * n + v] = alt;
                        next[u * n + v] = next[u * n + k];
                    }
                }
            }
        }
        let points = g.vertices().map(|v| g.point(v)).collect();
        MatrixOracle {
            n,
            dist,
            next,
            points,
            top_speed_mps: g.top_speed_mps(),
        }
    }
}

impl DistanceOracle for MatrixOracle {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn point(&self, v: VertexId) -> Point {
        self.points[v.idx()]
    }

    fn top_speed_mps(&self) -> f64 {
        self.top_speed_mps
    }

    #[inline]
    fn dis(&self, u: VertexId, v: VertexId) -> Cost {
        self.dist[u.idx() * self.n + v.idx()]
    }

    fn shortest_path(&self, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        if u == v {
            return Some(vec![u]);
        }
        if self.dis(u, v) >= INF {
            return None;
        }
        let mut path = vec![u];
        let mut cur = u;
        while cur != v {
            let hop = self.next[cur.idx() * self.n + v.idx()];
            if hop == NO_HOP {
                // Explicit-matrix construction: no intermediate info.
                path.push(v);
                return Some(path);
            }
            cur = VertexId(hop);
            path.push(cur);
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::dijkstra::DijkstraEngine;

    fn line_graph(n: u32) -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        for i in 0..n {
            b.add_vertex(Point::new(f64::from(i) * 100.0, 0.0));
        }
        for i in 1..n {
            b.add_edge_with_cost(VertexId(i - 1), VertexId(i), 10)
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn floyd_warshall_matches_dijkstra() {
        let g = line_graph(8);
        let m = MatrixOracle::from_network(&g);
        let mut e = DijkstraEngine::for_network(&g);
        for u in g.vertices() {
            e.sssp(&g, u);
            for v in g.vertices() {
                assert_eq!(m.dis(u, v), e.dist_to(v));
            }
        }
    }

    #[test]
    fn next_hop_paths_are_real_paths() {
        let g = line_graph(6);
        let m = MatrixOracle::from_network(&g);
        let p = m.shortest_path(VertexId(0), VertexId(5)).unwrap();
        assert_eq!(p.len(), 6);
        for (i, v) in p.iter().enumerate() {
            assert_eq!(*v, VertexId(i as u32));
        }
    }

    #[test]
    fn explicit_matrix_roundtrip() {
        let rows = vec![vec![0, 5, 9], vec![5, 0, 4], vec![9, 4, 0]];
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(90.0, 0.0),
        ];
        let m = MatrixOracle::from_matrix(&rows, pts, 23.0);
        assert_eq!(m.dis(VertexId(0), VertexId(2)), 9);
        assert_eq!(m.dis(VertexId(2), VertexId(1)), 4);
        assert_eq!(
            m.shortest_path(VertexId(0), VertexId(2)),
            Some(vec![VertexId(0), VertexId(2)])
        );
    }

    #[test]
    #[should_panic(expected = "triangle inequality")]
    fn rejects_non_metric_matrix() {
        let rows = vec![vec![0, 1, 100], vec![1, 0, 1], vec![100, 1, 0]];
        let pts = vec![Point::default(); 3];
        MatrixOracle::from_matrix(&rows, pts, 23.0);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn rejects_asymmetric_matrix() {
        let rows = vec![vec![0, 1], vec![2, 0]];
        let pts = vec![Point::default(); 2];
        MatrixOracle::from_matrix(&rows, pts, 23.0);
    }

    #[test]
    fn disconnected_matrix_from_network() {
        let mut b = NetworkBuilder::new();
        let a = b.add_vertex(Point::new(0.0, 0.0));
        let c = b.add_vertex(Point::new(1.0, 0.0));
        b.add_vertex(Point::new(2.0, 0.0)); // island
        b.add_edge_with_cost(a, c, 3).unwrap();
        let g = b.finish().unwrap();
        let m = MatrixOracle::from_network(&g);
        assert_eq!(m.dis(a, VertexId(2)), INF);
        assert_eq!(m.shortest_path(a, VertexId(2)), None);
    }
}
