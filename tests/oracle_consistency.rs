//! Cross-oracle consistency on generated cities: hub labels, Dijkstra
//! and the dense matrix must agree exactly; the LRU decorator must be
//! transparent, its paths symmetric; Euclidean bounds must hold
//! everywhere.

use std::sync::Arc;

use urpsm::network::cache::LruCachedOracle;
use urpsm::network::matrix::MatrixOracle;
use urpsm::network::oracle::{CountingOracle, DijkstraOracle, DistanceOracle, HubLabelOracle};
use urpsm::network::VertexId;
use urpsm::workloads::network_gen::{grid_city, ring_radial_city};

#[test]
fn hub_labels_match_dijkstra_and_matrix_on_grid() {
    let g = Arc::new(grid_city(9, 9, 350.0, 5));
    let hub = HubLabelOracle::build(g.clone());
    let dij = DijkstraOracle::new(g.clone());
    let mat = MatrixOracle::from_network(&g);
    for u in g.vertices() {
        for v in g.vertices() {
            let d = dij.dis(u, v);
            assert_eq!(hub.dis(u, v), d, "hub vs dijkstra at ({u},{v})");
            assert_eq!(mat.dis(u, v), d, "matrix vs dijkstra at ({u},{v})");
        }
    }
}

#[test]
fn hub_labels_match_dijkstra_on_ring_city() {
    let g = Arc::new(ring_radial_city(6, 14, 500.0));
    let hub = HubLabelOracle::build(g.clone());
    let dij = DijkstraOracle::new(g.clone());
    for u in g.vertices().step_by(3) {
        for v in g.vertices().step_by(5) {
            assert_eq!(hub.dis(u, v), dij.dis(u, v), "({u},{v})");
        }
    }
}

#[test]
fn euclidean_bound_holds_on_generated_cities() {
    for g in [grid_city(10, 10, 420.0, 9), ring_radial_city(5, 12, 700.0)] {
        let g = Arc::new(g);
        let hub = HubLabelOracle::build(g.clone());
        for u in g.vertices().step_by(7) {
            for v in g.vertices().step_by(3) {
                assert!(hub.euc(u, v) <= hub.dis(u, v), "euc > dis at ({u},{v})");
            }
        }
    }
}

#[test]
fn triangle_inequality_on_sampled_triples() {
    let g = Arc::new(grid_city(8, 8, 400.0, 2));
    let hub = HubLabelOracle::build(g.clone());
    let n = g.num_vertices() as u32;
    for a in (0..n).step_by(5) {
        for b in (0..n).step_by(7) {
            for c in (0..n).step_by(11) {
                let (a, b, c) = (VertexId(a), VertexId(b), VertexId(c));
                assert!(
                    hub.dis(a, c) <= hub.dis(a, b) + hub.dis(b, c),
                    "triangle violated at ({a},{b},{c})"
                );
            }
        }
    }
}

#[test]
fn lru_decorator_is_transparent_and_reduces_backend_traffic() {
    let g = Arc::new(grid_city(7, 7, 300.0, 3));
    let counting = Arc::new(CountingOracle::new(DijkstraOracle::new(g.clone())));
    let cached = LruCachedOracle::new(counting.clone(), 4_096, 0);
    counting.reset(); // drop the debug-build symmetry probes
    let reference = DijkstraOracle::new(g.clone());

    // Query a repeated pattern twice.
    let queries: Vec<(u32, u32)> = (0..40)
        .flat_map(|i| [(i, (i * 3) % 49), ((i * 5) % 49, i)])
        .collect();
    for &(u, v) in queries.iter().chain(queries.iter()) {
        let (u, v) = (VertexId(u), VertexId(v));
        assert_eq!(cached.dis(u, v), reference.dis(u, v));
    }
    let backend = counting.stats().dis;
    assert!(
        backend <= queries.len() as u64,
        "second pass should be all cache hits: {backend} backend queries"
    );
    let (hits, misses) = cached.dis_hit_stats();
    assert!(
        hits >= queries.len() as u64 / 2,
        "hits {hits} misses {misses}"
    );

    // Paths pass through to the labels: the reverse query is the exact
    // reverse path, and its length is `dis`.
    let cached = LruCachedOracle::new(HubLabelOracle::build(g.clone()), 4_096, 0);
    let p1 = cached.shortest_path(VertexId(0), VertexId(48)).unwrap();
    let mut p2r = cached.shortest_path(VertexId(48), VertexId(0)).unwrap();
    p2r.reverse();
    assert_eq!(p1, p2r, "path(t, s) must be path(s, t) reversed");
    let d: u64 = p1.windows(2).map(|w| cached.dis(w[0], w[1])).sum();
    assert_eq!(
        d,
        reference.dis(VertexId(0), VertexId(48)),
        "path length = dis"
    );
}

#[test]
fn shortest_paths_are_edge_walks() {
    // Every consecutive path pair must be an actual edge of the graph.
    let g = Arc::new(grid_city(8, 8, 400.0, 13));
    let hub = HubLabelOracle::build(g.clone());
    let p = hub.shortest_path(VertexId(0), VertexId(63)).unwrap();
    for w in p.windows(2) {
        assert!(
            g.neighbors(w[0]).any(|(v, _)| v == w[1]),
            "path hop {}->{} is not an edge",
            w[0],
            w[1]
        );
    }
}
