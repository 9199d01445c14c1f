//! Shortest paths from the hub labels against an independent reference.
//!
//! `HubLabels::path` walks the labels' own pruned search trees, so it
//! is checked here against plain Dijkstra on the same random graphs as
//! `tests/hub_label_order_props.rs` (1–40 vertices, several components,
//! costs 1–3 so that equal-cost paths are common), under the coverage
//! order and under an arbitrary permutation. For every pair:
//!
//! * the path is an edge walk whose cost equals Dijkstra's distance;
//! * `path(t, s)` is exactly `path(s, t)` reversed;
//! * the path is `None` exactly when the distance is `INF`;
//! * `path(s, s)` is `[s]`.
//!
//! `HubLabels::path_with_offsets` is checked on the same graphs, for
//! every ordered pair, so in both directions: its vertices are
//! `path`'s, each offset is the sum of the per-edge distances up to its
//! vertex, and the last offset is `dis(s, t)`.
//!
//! The tie-break between equal-cost paths is pinned on a 4-cycle, and
//! the ring city of the Chengdu preset is checked from 32 sources.

use proptest::prelude::*;
use urpsm::network::builder::NetworkBuilder;
use urpsm::network::dijkstra::DijkstraEngine;
use urpsm::network::geo::Point;
use urpsm::network::graph::RoadNetwork;
use urpsm::network::hub_labels::HubLabels;
use urpsm::network::{Cost, VertexId, INF};
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

/// A random graph as in `hub_label_order_props.rs`, and a random
/// permutation of its vertices (sorted by a random key, ties by id).
fn graph_and_order() -> impl Strategy<Value = (RoadNetwork, Vec<VertexId>)> {
    (1u32..41).prop_flat_map(|n| {
        (
            collection::vec((0..n, 0..n, 1u64..4), 0..2 * n as usize + 1),
            collection::vec(any::<u32>(), n as usize),
        )
            .prop_map(move |(edges, keys)| {
                let mut order: Vec<VertexId> = (0..n).map(VertexId).collect();
                order.sort_by_key(|v| (keys[v.idx()], v.0));
                (graph(n, &edges), order)
            })
    })
}

/// The cost of `path` as a walk over `g`'s edges; `None` if some hop is
/// not an edge.
fn walk_cost(g: &RoadNetwork, path: &[VertexId]) -> Option<Cost> {
    path.windows(2).try_fold(0, |sum, hop| {
        g.neighbors(hop[0])
            .filter(|&(v, _)| v == hop[1])
            .map(|(_, c)| c)
            .min()
            .map(|c| sum + c)
    })
}

/// Every pair's label path against Dijkstra, plus symmetry.
fn check_paths(g: &RoadNetwork, hl: &HubLabels) -> Result<(), TestCaseError> {
    let mut e = DijkstraEngine::for_network(g);
    for s in g.vertices() {
        e.sssp(g, s);
        prop_assert_eq!(hl.path(s, s), Some(vec![s]));
        for t in g.vertices() {
            let d = e.dist_to(t);
            let Some(p) = hl.path(s, t) else {
                prop_assert_eq!(d, INF, "no path for the connected pair ({}, {})", s, t);
                continue;
            };
            prop_assert!(d < INF, "a path for the disconnected pair ({}, {})", s, t);
            prop_assert_eq!((p.first(), p.last()), (Some(&s), Some(&t)));
            prop_assert_eq!(walk_cost(g, &p), Some(d), "({}, {}): {:?}", s, t, p);
            let mut back = hl.path(t, s).expect("the reverse pair is connected too");
            back.reverse();
            prop_assert_eq!(
                back,
                p,
                "path({}, {}) is not path({}, {}) reversed",
                t,
                s,
                s,
                t
            );
        }
    }
    Ok(())
}

/// Every pair's label offsets against `path` costed with one
/// `distance` per edge, the loop the offsets replace in worker motion.
fn check_offsets(g: &RoadNetwork, hl: &HubLabels) -> Result<(), TestCaseError> {
    let mut walk = Vec::new();
    for s in g.vertices() {
        for t in g.vertices() {
            let found = hl.path_with_offsets(s, t, &mut walk);
            let Some(path) = hl.path(s, t) else {
                prop_assert!(
                    !found && walk.is_empty(),
                    "offsets for the disconnected pair ({}, {})",
                    s,
                    t
                );
                continue;
            };
            let mut offset = 0;
            let mut want = vec![(s, 0)];
            for hop in path.windows(2) {
                offset += hl.distance(hop[0], hop[1]);
                want.push((hop[1], offset));
            }
            prop_assert_eq!(offset, hl.distance(s, t), "({}, {})", s, t);
            prop_assert!(found, "({}, {})", s, t);
            prop_assert_eq!(&walk, &want, "({}, {})", s, t);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Offsets under both orders; `graph` keeps the cheapest of the
    /// parallel edges the strategy draws, and costs 1–3 tie often.
    #[test]
    fn label_offsets_are_the_per_edge_distances(case in graph_and_order()) {
        let (g, order) = case;
        check_offsets(&g, &HubLabels::build(&g))?;
        check_offsets(&g, &HubLabels::build_with_order(&g, &order))?;
    }

    /// The coverage order every oracle builds with, and an arbitrary
    /// order: the walk's exactness does not lean on the coverage order.
    #[test]
    fn label_paths_are_shortest_and_symmetric(case in graph_and_order()) {
        let (g, order) = case;
        check_paths(&g, &HubLabels::build(&g))?;
        check_paths(&g, &HubLabels::build_with_order(&g, &order))?;
    }
}

/// The 4-cycle 0–1–2–3–0 with unit costs has two shortest paths between
/// each pair of opposite corners. The label walk takes the lowest-rank
/// hub attaining the distance and that hub's tree path, whose parents
/// are fixed by which settle relaxes a vertex first (smaller id on
/// equal distances). In id order, hub 0 attains both diagonals; its
/// tree reaches 2 through 1, so 0–2 goes through 1, and 1–3 through 0.
#[test]
fn the_tie_break_on_a_square_is_pinned() {
    let g = graph(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]);
    let v = |ids: &[u32]| ids.iter().copied().map(VertexId).collect::<Vec<_>>();

    let by_id = HubLabels::build_with_order(&g, &v(&[0, 1, 2, 3]));
    assert_eq!(by_id.path(VertexId(0), VertexId(2)), Some(v(&[0, 1, 2])));
    assert_eq!(by_id.path(VertexId(2), VertexId(0)), Some(v(&[2, 1, 0])));
    assert_eq!(by_id.path(VertexId(1), VertexId(3)), Some(v(&[1, 0, 3])));
    assert_eq!(by_id.path(VertexId(3), VertexId(1)), Some(v(&[3, 0, 1])));

    // The sampled trees break the same ties towards small ids, so 0 and
    // 1 score 9 and 2 and 3 score 7: the coverage order is the id order
    // and `build` takes the same paths.
    assert_eq!(HubLabels::coverage_order(&g), v(&[0, 1, 2, 3]));
    assert_eq!(HubLabels::build(&g), by_id);

    // In the order [1, 3, 0, 2] both 0 and 2 carry hubs 1 and 3 at
    // distance 1: two hubs attain the diagonal, and the lower rank, 1,
    // takes it.
    let middles_first = HubLabels::build_with_order(&g, &v(&[1, 3, 0, 2]));
    assert_eq!(
        middles_first.path(VertexId(0), VertexId(2)),
        Some(v(&[0, 1, 2]))
    );
    assert_eq!(
        middles_first.path(VertexId(2), VertexId(0)),
        Some(v(&[2, 1, 0]))
    );
}

#[test]
fn label_paths_on_the_chengdu_ring_city_are_shortest() {
    let g = ring_radial_city(24, 48, 600.0);
    let hl = HubLabels::build(&g);
    let n = g.num_vertices() as u32;
    let mut e = DijkstraEngine::for_network(&g);
    for s in (0..32).map(|k| VertexId(k * n / 32)) {
        e.sssp(&g, s);
        for t in g.vertices() {
            let p = hl.path(s, t).expect("the ring city is connected");
            assert_eq!((p[0], p[p.len() - 1]), (s, t));
            assert_eq!(walk_cost(&g, &p), Some(e.dist_to(t)), "({s}, {t})");
        }
    }
}
