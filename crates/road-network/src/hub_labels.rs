//! Exact hub labeling via pruned landmark labeling (PLL).
//!
//! §6.1 of the paper answers shortest-distance queries with "a hub-based
//! labeling algorithm implemented for road network [Abraham et al. 2011]".
//! We implement the equivalent exact scheme of Akiba et al.'s pruned
//! landmark labeling: vertices are processed in importance order, each
//! running a *pruned* Dijkstra that appends `(hub, dist)` entries to the
//! labels of every vertex it settles; a settle is pruned when the
//! already-built labels certify an equal or shorter distance. A query
//! takes the minimum over the hubs two labels share, through a
//! rank-indexed table ([`HubLabels::distance`]).
//!
//! The importance order is the *coverage order*
//! ([`HubLabels::coverage_order`]): vertices that lie on many sampled
//! shortest paths first. Degree order, the textbook default, is close to
//! id order on road-like graphs (almost every vertex has degree 3–4) and
//! gives labels several times larger (DESIGN.md §10 "The label order").
//! The labels are exact for *any* order; the order only sets their size.
//!
//! The result is exact on undirected graphs and answers queries in
//! `O(|label|)` — effectively the paper's "O(1) shortest distance query"
//! assumption at city scale.
//!
//! Each entry also records the vertex's parent in its hub's pruned
//! shortest-path tree, so the same index answers path queries
//! ([`HubLabels::path`]): two walks up those trees to the hub that
//! attains the distance. The label distances those walks read are each
//! vertex's offset along the path ([`HubLabels::path_with_offsets`]),
//! so a path comes with its costs (DESIGN.md §10 "Paths from the
//! labels").

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::dijkstra::DijkstraEngine;
use crate::graph::RoadNetwork;
use crate::{Cost, VertexId, INF};

/// Shortest-path trees [`HubLabels::coverage_order`] samples, from roots
/// spread evenly over the vertex ids.
const COVERAGE_ROOTS: usize = 64;

thread_local! {
    /// [`HubLabels::distance`]'s working table: a distance per hub rank, all
    /// [`INF`] between queries, grown to the largest index queried on
    /// this thread.
    static RANK_TABLE: Cell<Vec<Cost>> = const { Cell::new(Vec::new()) };
}

/// An exact two-hop distance and path index over a [`RoadNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HubLabels {
    /// CSR offsets into `hubs`/`dists`/`parents`, one slot per vertex.
    offsets: Vec<u32>,
    /// Hub *ranks* (position in the construction order), ascending per
    /// vertex.
    hubs: Vec<u32>,
    /// Distance from the vertex to each hub, aligned with `hubs`.
    dists: Vec<Cost>,
    /// The vertex's parent in each hub's pruned Dijkstra tree, aligned
    /// with `hubs`: the vertex whose relaxation first set the final
    /// distance. The hub itself is its own parent.
    parents: Vec<u32>,
}

impl HubLabels {
    /// Builds labels for `g` in [`Self::coverage_order`].
    pub fn build(g: &RoadNetwork) -> Self {
        let order = Self::coverage_order(g);
        Self::build_with_order(g, &order)
    }

    /// Builds labels with an explicit vertex order (highest importance
    /// first). Exposed for tests and order experiments.
    ///
    /// # Panics
    ///
    /// If `order` is not a permutation of `g`'s vertices: a repeated
    /// vertex would silently make some distances wrong.
    pub fn build_with_order(g: &RoadNetwork, order: &[VertexId]) -> Self {
        let n = g.num_vertices();
        assert_eq!(order.len(), n, "order must cover every vertex");
        let mut seen = vec![false; n];
        for &v in order {
            assert!(
                v.idx() < n && !std::mem::replace(&mut seen[v.idx()], true),
                "order must be a permutation of the vertices: {v} is out of range or repeated"
            );
        }
        // Temporary per-vertex `(rank, dist, parent)` labels, flattened
        // at the end.
        let mut labels: Vec<Vec<(u32, Cost, u32)>> = vec![Vec::new(); n];

        // Workhorse arrays for the pruned Dijkstra.
        let mut dist = vec![INF; n];
        let mut parent = vec![0u32; n];
        let mut epoch = vec![0u32; n];
        let mut cur_epoch = 0u32;
        let mut heap: BinaryHeap<Reverse<(Cost, u32)>> = BinaryHeap::new();
        // Scratch: distances from the current hub according to existing
        // labels, indexed by hub rank (for O(1) prune checks).
        let mut hub_dist: Vec<Cost> = vec![INF; n];

        for (rank, &root) in order.iter().enumerate() {
            let rank = rank as u32;
            cur_epoch += 1;
            heap.clear();

            // Load the root's current label into the rank-indexed table
            // so prune checks are O(|label(root)|) total, not per-settle.
            for &(h, d, _) in &labels[root.idx()] {
                hub_dist[h as usize] = d;
            }

            dist[root.idx()] = 0;
            parent[root.idx()] = root.0;
            epoch[root.idx()] = cur_epoch;
            heap.push(Reverse((0, root.0)));

            while let Some(Reverse((d, v))) = heap.pop() {
                let vi = v as usize;
                if epoch[vi] != cur_epoch || d > dist[vi] {
                    continue;
                }
                // Prune: can existing labels already certify dist(root, v) <= d?
                let mut certified = INF;
                for &(h, dv, _) in &labels[vi] {
                    let via = hub_dist[h as usize];
                    if via < INF {
                        certified = certified.min(via + dv);
                    }
                }
                if certified <= d {
                    continue;
                }
                labels[vi].push((rank, d, parent[vi]));

                let lo = g.offsets[vi] as usize;
                let hi = g.offsets[vi + 1] as usize;
                for k in lo..hi {
                    let t = g.targets[k] as usize;
                    let nd = d + g.costs[k];
                    if epoch[t] != cur_epoch {
                        epoch[t] = cur_epoch;
                        dist[t] = INF;
                    }
                    if nd < dist[t] {
                        dist[t] = nd;
                        parent[t] = v;
                        heap.push(Reverse((nd, t as u32)));
                    }
                }
            }

            // Unload the rank table.
            for &(h, _, _) in &labels[root.idx()] {
                hub_dist[h as usize] = INF;
            }
        }

        // Flatten into CSR (labels are already rank-ascending: each
        // vertex is appended to in increasing rank order).
        let total: usize = labels.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut hubs = Vec::with_capacity(total);
        let mut dists = Vec::with_capacity(total);
        let mut parents = Vec::with_capacity(total);
        offsets.push(0u32);
        for l in &labels {
            debug_assert!(l.windows(2).all(|w| w[0].0 < w[1].0));
            for &(h, d, p) in l {
                hubs.push(h);
                dists.push(d);
                parents.push(p);
            }
            offsets.push(csr_offset(hubs.len()));
        }
        HubLabels {
            offsets,
            hubs,
            dists,
            parents,
        }
    }

    /// Coverage construction order: vertices on many shortest paths
    /// first, ties by id.
    ///
    /// Grows a shortest-path tree from each of 64 roots
    /// spaced evenly over the vertex ids and scores every vertex by the
    /// sum of its subtree sizes over those trees — the number of sampled
    /// shortest paths through it, an approximate betweenness. A vertex
    /// no tree reaches scores 0. The order depends on the graph alone.
    pub fn coverage_order(g: &RoadNetwork) -> Vec<VertexId> {
        let n = g.num_vertices();
        let roots = COVERAGE_ROOTS.min(n);
        let mut score = vec![0u64; n];
        let mut subtree = vec![0u64; n];
        let mut settled = Vec::with_capacity(n);
        let mut engine = DijkstraEngine::for_network(g);
        for k in 0..roots {
            let root = VertexId((k * n / roots) as u32);
            engine.sssp_settled(g, root, &mut settled);
            // Children settle after their parent, so a reverse walk
            // finishes every subtree before it is added to its parent.
            for &v in settled.iter().rev() {
                let size = subtree[v.idx()] + 1;
                subtree[v.idx()] = 0;
                score[v.idx()] += size;
                if let Some(p) = engine.parent_of(v) {
                    subtree[p.idx()] += size;
                }
            }
        }
        let mut order: Vec<VertexId> = g.vertices().collect();
        order.sort_by_key(|v| (Reverse(score[v.idx()]), v.0));
        order
    }

    /// Exact shortest distance between `u` and `v`; [`INF`] when
    /// disconnected.
    ///
    /// The minimum of `d(u, h) + d(h, v)` over the hubs `h` the two
    /// labels share, found through a rank-indexed table rather than a
    /// merge-join: the shorter label is written into the calling
    /// thread's table, the longer one reads it, and the written slots
    /// are reset. Every step is a plain load or store. A merge-join
    /// branches on every step, and under the coverage order the two
    /// labels' ranks interleave too finely for the branch to predict,
    /// so the join cost 1.4–2.3× as much (DESIGN.md §10 "The label
    /// order").
    #[inline]
    pub fn distance(&self, u: VertexId, v: VertexId) -> Cost {
        if u == v {
            return 0;
        }
        // An unset slot holds INF, and INF + d stays above INF, so a hub
        // only the longer label has never beats `best`.
        self.with_rank_table(u, v, |long, table| {
            long.0
                .iter()
                .zip(long.1)
                .fold(INF, |best, (&h, &d)| best.min(table[h as usize] + d))
        })
    }

    /// A shortest path from `s` to `t`, inclusive of both endpoints;
    /// `None` when the two share no hub (disconnected).
    ///
    /// Picks the lowest-rank hub `h` attaining `dis(s, t)` through the
    /// same rank table as [`Self::distance`], then walks parents from
    /// `s` up to `h` and from `t` up to `h`, and joins the two walks.
    /// Each step is one binary search of a rank-sorted label. The walk
    /// is exact because `L(s,h) + L(h,t) = dis(s,t)` forces both entries
    /// to be true distances, and every ancestor in `h`'s pruned tree was
    /// expanded, so it carries `h` in its label with a true distance
    /// too. The hub choice and both walks ignore the direction, so
    /// `path(t, s)` is `path(s, t)` reversed (DESIGN.md §10 "Paths from
    /// the labels").
    pub fn path(&self, s: VertexId, t: VertexId) -> Option<Vec<VertexId>> {
        let mut path = Vec::new();
        self.walk(s, t, &mut path, |v, _| v).then_some(path)
    }

    /// Clears `out` and writes [`Self::path`] into it, each vertex with
    /// its distance from `s` along the path: the last offset is
    /// `dis(s, t)`. Returns `false`, leaving `out` empty, when the two
    /// share no hub.
    ///
    /// The offsets are the label distances the walks already read. On
    /// `s`'s walk to the hub `h`, vertex `x` sits at `L(s,h) − L(x,h)`;
    /// on `t`'s walk, at `L(s,h) + L(x,h)`. Both are exact: every entry
    /// on either walk is a true distance to `h`, so each tree edge costs
    /// the difference of two consecutive entries, which is also its
    /// `dis` (DESIGN.md §10 "Paths from the labels").
    pub fn path_with_offsets(
        &self,
        s: VertexId,
        t: VertexId,
        out: &mut Vec<(VertexId, Cost)>,
    ) -> bool {
        self.walk(s, t, out, |v, offset| (v, offset))
    }

    /// The one path engine behind [`Self::path`] and
    /// [`Self::path_with_offsets`]: clears `out`, then pushes
    /// `item(x, offset)` for every vertex `x` from `s` to `t`, where
    /// `offset` is `x`'s distance from `s` along the path. Returns
    /// `false`, leaving `out` empty, when the two share no hub.
    fn walk<T>(
        &self,
        s: VertexId,
        t: VertexId,
        out: &mut Vec<T>,
        item: impl Fn(VertexId, Cost) -> T,
    ) -> bool {
        out.clear();
        if s == t {
            out.push(item(s, 0));
            return true;
        }
        // Ranks ascend along the label and only a strictly smaller sum
        // replaces the best, so ties go to the lowest rank.
        let (best, hub) = self.with_rank_table(s, t, |long, table| {
            long.0
                .iter()
                .zip(long.1)
                .fold((INF, 0), |(best, hub), (&h, &d)| {
                    let sum = table[h as usize] + d;
                    if sum < best {
                        (sum, h)
                    } else {
                        (best, hub)
                    }
                })
        });
        if best >= INF {
            return false;
        }
        // The first vertex of s's walk is s itself, with L(s, h).
        let mut to_hub = None;
        self.walk_to_hub(s, hub, |x, d| {
            let from_s = *to_hub.get_or_insert(d);
            out.push(item(x, from_s - d));
        });
        let from_s = to_hub.expect("a walk visits its start");
        let up_from_s = out.len();
        self.walk_to_hub(t, hub, |x, d| out.push(item(x, from_s + d)));
        // `out` is s … h t … h: drop the second copy of the hub and
        // turn t's walk around.
        out.pop();
        out[up_from_s..].reverse();
        true
    }

    /// Visits `v`, its parent in `hub`'s tree, and so on up to `hub`
    /// itself, each with its label distance to `hub`.
    fn walk_to_hub(&self, mut v: VertexId, hub: u32, mut visit: impl FnMut(VertexId, Cost)) {
        loop {
            let k = self
                .label(v)
                .0
                .binary_search(&hub)
                .expect("every vertex on a walk to a hub carries it in its label");
            let entry = self.offsets[v.idx()] as usize + k;
            visit(v, self.dists[entry]);
            let parent = self.parents[entry];
            if parent == v.0 {
                return;
            }
            v = VertexId(parent);
        }
    }

    /// Writes the shorter of `u`'s and `v`'s labels into the calling
    /// thread's rank table, hands `read` the longer label and the
    /// table, and resets the written slots.
    ///
    /// Forced inline: left as a call, it made [`Self::distance`] 4–8 %
    /// slower on the ring cities.
    #[inline(always)]
    fn with_rank_table<R>(
        &self,
        u: VertexId,
        v: VertexId,
        read: impl FnOnce((&[u32], &[Cost]), &[Cost]) -> R,
    ) -> R {
        let (mut short, mut long) = (self.label(u), self.label(v));
        if short.0.len() > long.0.len() {
            std::mem::swap(&mut short, &mut long);
        }
        // Taken, not borrowed: a panic while the table is out drops it
        // rather than leave stale slots for the next query.
        let mut table = RANK_TABLE.take();
        let n = self.offsets.len() - 1;
        if table.len() < n {
            table.resize(n, INF);
        }
        for (&h, &d) in short.0.iter().zip(short.1) {
            table[h as usize] = d;
        }
        let result = read(long, &table);
        for &h in short.0 {
            table[h as usize] = INF;
        }
        RANK_TABLE.set(table);
        result
    }

    /// `v`'s label: hub ranks (ascending) and the distances to them.
    #[inline]
    fn label(&self, v: VertexId) -> (&[u32], &[Cost]) {
        let range = self.offsets[v.idx()] as usize..self.offsets[v.idx() + 1] as usize;
        (&self.hubs[range.clone()], &self.dists[range])
    }

    /// Total number of label entries (index size).
    pub fn num_entries(&self) -> usize {
        self.hubs.len()
    }

    /// Mean label entries per vertex.
    pub fn avg_label_size(&self) -> f64 {
        if self.offsets.len() <= 1 {
            return 0.0;
        }
        self.num_entries() as f64 / (self.offsets.len() - 1) as f64
    }

    /// Rough heap footprint in bytes, the parent column included.
    pub fn mem_bytes(&self) -> usize {
        self.offsets.len() * 4 + self.hubs.len() * 4 + self.dists.len() * 8 + self.parents.len() * 4
    }
}

/// A CSR offset: the label entries written so far, which must fit the
/// `u32` offsets.
fn csr_offset(entries: usize) -> u32 {
    u32::try_from(entries).expect("hub label index exceeds u32::MAX entries")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::dijkstra::DijkstraEngine;
    use crate::geo::Point;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_connected_graph(n: u32, extra_edges: u32, seed: u64) -> RoadNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetworkBuilder::new();
        for i in 0..n {
            b.add_vertex(Point::new(f64::from(i), 0.0));
        }
        // Random spanning tree keeps it connected.
        for i in 1..n {
            let p = rng.gen_range(0..i);
            b.add_edge_with_cost(VertexId(i), VertexId(p), rng.gen_range(1..100))
                .unwrap();
        }
        for _ in 0..extra_edges {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                b.add_edge_with_cost(VertexId(u), VertexId(v), rng.gen_range(1..100))
                    .unwrap();
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in 0..5 {
            let g = random_connected_graph(60, 90, seed);
            let hl = HubLabels::build(&g);
            let mut e = DijkstraEngine::for_network(&g);
            for u in 0..60u32 {
                e.sssp(&g, VertexId(u));
                for v in 0..60u32 {
                    assert_eq!(
                        hl.distance(VertexId(u), VertexId(v)),
                        e.dist_to(VertexId(v)),
                        "seed {seed}, pair ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn disconnected_pairs_are_inf() {
        let mut b = NetworkBuilder::new();
        let a = b.add_vertex(Point::new(0.0, 0.0));
        let c = b.add_vertex(Point::new(1.0, 0.0));
        let d = b.add_vertex(Point::new(2.0, 0.0));
        let e = b.add_vertex(Point::new(3.0, 0.0));
        b.add_edge_with_cost(a, c, 3).unwrap();
        b.add_edge_with_cost(d, e, 4).unwrap();
        let g = b.finish().unwrap();
        let hl = HubLabels::build(&g);
        assert_eq!(hl.distance(a, c), 3);
        assert_eq!(hl.distance(d, e), 4);
        assert_eq!(hl.distance(a, d), INF);
        assert_eq!(hl.distance(c, e), INF);
    }

    #[test]
    fn self_distance_zero_and_symmetry() {
        let g = random_connected_graph(40, 60, 42);
        let hl = HubLabels::build(&g);
        for u in 0..40u32 {
            assert_eq!(hl.distance(VertexId(u), VertexId(u)), 0);
            for v in 0..40u32 {
                assert_eq!(
                    hl.distance(VertexId(u), VertexId(v)),
                    hl.distance(VertexId(v), VertexId(u))
                );
            }
        }
    }

    #[test]
    fn pruning_keeps_labels_small_on_a_path() {
        // On a path graph with the mid vertex ranked first, labels stay
        // tiny; this guards against a regression that disables pruning.
        let n = 101u32;
        let mut b = NetworkBuilder::new();
        for i in 0..n {
            b.add_vertex(Point::new(f64::from(i), 0.0));
        }
        for i in 1..n {
            b.add_edge_with_cost(VertexId(i - 1), VertexId(i), 1)
                .unwrap();
        }
        let g = b.finish().unwrap();
        let mut order: Vec<VertexId> = vec![VertexId(n / 2)];
        order.extend((0..n).filter(|&i| i != n / 2).map(VertexId));
        let hl = HubLabels::build_with_order(&g, &order);
        // Without pruning the total label count would be Θ(n²) ≈ 10k;
        // with the mid hub first the analysis gives ≈ n + 2·(n/2)²/2 ≈ 2.7k.
        assert!(
            hl.num_entries() < 5_000,
            "labels too large: {}",
            hl.num_entries()
        );
        // And still exact.
        assert_eq!(hl.distance(VertexId(0), VertexId(100)), 100);
        assert_eq!(hl.distance(VertexId(10), VertexId(60)), 50);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn a_repeated_vertex_in_the_order_is_refused() {
        // On a–b–c the order [a, a, a] never roots a search at b or c,
        // and used to answer distance(b, c) = 3 (via a) instead of 1.
        let mut b = NetworkBuilder::new();
        let a = b.add_vertex(Point::new(0.0, 0.0));
        let v = b.add_vertex(Point::new(1.0, 0.0));
        let c = b.add_vertex(Point::new(2.0, 0.0));
        b.add_edge_with_cost(a, v, 1).unwrap();
        b.add_edge_with_cost(v, c, 1).unwrap();
        let g = b.finish().unwrap();
        HubLabels::build_with_order(&g, &[a, a, a]);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn an_out_of_range_vertex_in_the_order_is_refused() {
        let g = random_connected_graph(3, 0, 1);
        HubLabels::build_with_order(&g, &[VertexId(0), VertexId(1), VertexId(3)]);
    }

    #[test]
    fn csr_offsets_are_checked() {
        assert_eq!(csr_offset(u32::MAX as usize), u32::MAX);
        let past = std::panic::catch_unwind(|| csr_offset(u32::MAX as usize + 1));
        assert!(past.is_err(), "an offset past u32::MAX must not wrap");
    }

    #[test]
    fn coverage_order_ranks_a_path_from_its_middle() {
        // Every sampled tree on a path passes through its middle, so the
        // middle vertex covers the most and the ends the least.
        let n = 101u32;
        let mut b = NetworkBuilder::new();
        for i in 0..n {
            b.add_vertex(Point::new(f64::from(i), 0.0));
        }
        for i in 1..n {
            b.add_edge_with_cost(VertexId(i - 1), VertexId(i), 1)
                .unwrap();
        }
        let g = b.finish().unwrap();
        let order = HubLabels::coverage_order(&g);
        assert_eq!(order[0], VertexId(n / 2));
        assert!(order[n as usize - 2..].contains(&VertexId(0)));
        assert!(order[n as usize - 2..].contains(&VertexId(n - 1)));
    }

    #[test]
    fn mem_and_avg_size_reporting() {
        let g = random_connected_graph(30, 30, 7);
        let hl = HubLabels::build(&g);
        assert!(hl.num_entries() >= 30); // at least the self entries
        assert!(hl.avg_label_size() >= 1.0);
        assert!(hl.mem_bytes() >= hl.num_entries() * 16);
    }
}
