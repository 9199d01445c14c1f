//! Hub labels are exact and deterministic in the coverage order, and
//! that order keeps them small.
//!
//! Pruned landmark labeling is exact for any vertex order, so the
//! coverage order may change only the size of the index. This suite
//! checks, on random graphs with several components, equal-cost ties
//! and down to one vertex, that
//!
//! * `HubLabels::build` answers every pair exactly as Dijkstra does;
//! * `HubLabels::coverage_order` is a permutation of the vertices;
//! * two builds of the same graph are identical entry for entry;
//!
//! and, on the Chengdu preset's ring city, that the labels stay under
//! a size a poor order (degree order gives 189.4 entries per vertex)
//! cannot reach.

use proptest::prelude::*;
use urpsm::network::builder::NetworkBuilder;
use urpsm::network::dijkstra::DijkstraEngine;
use urpsm::network::geo::Point;
use urpsm::network::graph::RoadNetwork;
use urpsm::network::hub_labels::HubLabels;
use urpsm::network::{Cost, VertexId};
use urpsm::workloads::network_gen::ring_radial_city;

/// A graph on `n` vertices with the given edges; self-loops are
/// skipped, parallel edges keep the cheapest.
fn graph(n: u32, edges: &[(u32, u32, Cost)]) -> RoadNetwork {
    let mut b = NetworkBuilder::new();
    for i in 0..n {
        b.add_vertex(Point::new(f64::from(i), 0.0));
    }
    for &(u, v, c) in edges {
        if u % n != v % n {
            b.add_edge_with_cost(VertexId(u % n), VertexId(v % n), c)
                .unwrap();
        }
    }
    b.finish().unwrap()
}

/// 1–40 vertices and up to twice as many edges with costs 1–3: sparse
/// draws fall apart into components, and small costs tie often.
fn graph_strategy() -> impl Strategy<Value = RoadNetwork> {
    (1u32..41).prop_flat_map(|n| {
        collection::vec((0..n, 0..n, 1u64..4), 0..2 * n as usize + 1)
            .prop_map(move |edges| graph(n, &edges))
    })
}

fn check_exact(g: &RoadNetwork) -> Result<(), TestCaseError> {
    let hl = HubLabels::build(g);
    let mut e = DijkstraEngine::for_network(g);
    for u in g.vertices() {
        e.sssp(g, u);
        for v in g.vertices() {
            prop_assert_eq!(hl.distance(u, v), e.dist_to(v), "pair ({}, {})", u, v);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Every pair, connected or not, matches Dijkstra.
    #[test]
    fn labels_equal_dijkstra_on_every_pair(g in graph_strategy()) {
        check_exact(&g)?;
    }

    /// The coverage order names every vertex exactly once.
    #[test]
    fn coverage_order_is_a_permutation(g in graph_strategy()) {
        let mut order = HubLabels::coverage_order(&g);
        prop_assert_eq!(order.len(), g.num_vertices());
        order.sort();
        prop_assert!(order.iter().copied().eq(g.vertices()), "not a permutation: {:?}", order);
    }

    /// The order depends on the graph alone, so the labels do too.
    #[test]
    fn two_builds_are_identical(g in graph_strategy()) {
        prop_assert_eq!(HubLabels::coverage_order(&g), HubLabels::coverage_order(&g));
        prop_assert_eq!(HubLabels::build(&g), HubLabels::build(&g));
    }
}

#[test]
fn one_and_two_vertex_graphs_are_exact() {
    for g in [graph(1, &[]), graph(2, &[]), graph(2, &[(0, 1, 5)])] {
        check_exact(&g).unwrap();
        assert_eq!(HubLabels::coverage_order(&g).len(), g.num_vertices());
    }
}

#[test]
fn labels_on_the_chengdu_ring_city_stay_small() {
    let g = ring_radial_city(24, 48, 600.0);
    let avg = HubLabels::build(&g).avg_label_size();
    assert!(
        avg <= 100.0,
        "{avg:.1} entries per vertex on the 24×48 ring city; the coverage order gives ≈ 57"
    );
}
