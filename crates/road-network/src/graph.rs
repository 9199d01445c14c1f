//! Compact road-network graphs (Def. 1 of the paper).
//!
//! A [`RoadNetwork`] is an undirected graph `G = (V, E)` with a travel
//! cost per edge, stored in CSR (compressed sparse row) form for cache
//! friendly traversal, plus planar coordinates per vertex so the
//! Euclidean lower bound of §5.1 can be computed.

use crate::geo::{BoundingBox, Point};
use crate::grid::{GridIndex, ItemId};
use crate::{Cost, VertexId};

/// Functional road classes with their assumed driving speeds.
///
/// §6.1: "we assign a constant speed for each type of road i.e., 80% of
/// the maximum legal speed limit"; the paper quotes 23 m/s on motorways
/// and 6 m/s on residential streets. The intermediate classes interpolate
/// typical urban limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadClass {
    /// Grade-separated highway (~100 km/h limit).
    Motorway,
    /// Major arterial (~70 km/h limit).
    Primary,
    /// Collector street (~50 km/h limit).
    Secondary,
    /// Residential street (~30 km/h limit).
    Residential,
}

impl RoadClass {
    /// Assumed driving speed in meters per second (80% of the limit).
    #[inline]
    pub fn speed_mps(self) -> f64 {
        match self {
            RoadClass::Motorway => 23.0,
            RoadClass::Primary => 15.5,
            RoadClass::Secondary => 11.0,
            RoadClass::Residential => 6.0,
        }
    }

    /// The fastest class; defines the speed used by the Euclidean
    /// travel-time lower bound.
    pub const FASTEST_MPS: f64 = 23.0;

    /// All classes, fastest first.
    pub const ALL: [RoadClass; 4] = [
        RoadClass::Motorway,
        RoadClass::Primary,
        RoadClass::Secondary,
        RoadClass::Residential,
    ];
}

/// Converts a length in meters driven at `speed_mps` into a [`Cost`]
/// (centiseconds), rounding **up** so edge costs never undercut the
/// Euclidean bound.
#[inline]
pub fn travel_cost(length_m: f64, speed_mps: f64) -> Cost {
    debug_assert!(length_m >= 0.0 && speed_mps > 0.0);
    ((length_m / speed_mps) * 100.0).ceil() as Cost
}

/// Converts a straight-line length in meters into the travel-time lower
/// bound at the network's top speed, rounding **down** (a lower bound
/// must never overshoot).
///
/// The rounding is the `as` cast alone, with no `floor`: for every
/// `f64` the cast equals `floor` followed by the cast — truncation is
/// flooring on `x ≥ 0`, negative values and NaN cast to 0 either way,
/// and `+∞` and everything from 2⁶⁴ up saturate to `u64::MAX` either
/// way — and on the default x86-64 target `floor` is a call into libm,
/// paid on every Euclidean bound. A test compares the two bit for bit.
#[inline]
pub fn euclidean_cost(length_m: f64, top_speed_mps: f64) -> Cost {
    debug_assert!(length_m >= 0.0 && top_speed_mps > 0.0);
    ((length_m / top_speed_mps) * 100.0) as Cost
}

/// An undirected road network in CSR form.
///
/// Build one with [`crate::builder::NetworkBuilder`]; the struct itself
/// is immutable after construction, so it can be shared freely across
/// threads.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    pub(crate) coords: Vec<Point>,
    /// CSR offsets, `offsets.len() == num_vertices() + 1`.
    pub(crate) offsets: Vec<u32>,
    /// Heads of half-edges (each undirected edge appears twice).
    pub(crate) targets: Vec<u32>,
    /// Travel cost of each half-edge, aligned with `targets`.
    pub(crate) costs: Vec<Cost>,
    /// Number of undirected edges.
    pub(crate) undirected_edges: usize,
    /// Fastest speed present, used for Euclidean travel-time bounds.
    pub(crate) top_speed_mps: f64,
}

impl RoadNetwork {
    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.coords.len()
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.undirected_edges
    }

    /// Coordinates of `v`.
    #[inline]
    pub fn point(&self, v: VertexId) -> Point {
        self.coords[v.idx()]
    }

    /// Iterates over `(neighbor, edge_cost)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Cost)> + '_ {
        let lo = self.offsets[v.idx()] as usize;
        let hi = self.offsets[v.idx() + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .zip(&self.costs[lo..hi])
            .map(|(&t, &c)| (VertexId(t), c))
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v.idx() + 1] - self.offsets[v.idx()]) as usize
    }

    /// The fastest road speed in the network (m/s).
    #[inline]
    pub fn top_speed_mps(&self) -> f64 {
        self.top_speed_mps
    }

    /// Euclidean travel-time lower bound between two vertices.
    #[inline]
    pub fn euc(&self, u: VertexId, v: VertexId) -> Cost {
        let d = self.point(u).euclidean_m(&self.point(v));
        euclidean_cost(d, self.top_speed_mps)
    }

    /// Tight bounding box of all vertex coordinates.
    pub fn bounding_box(&self) -> BoundingBox {
        BoundingBox::around(self.coords.iter().copied())
    }

    /// All vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.coords.len() as u32).map(VertexId)
    }

    /// Whether the network is connected (BFS from vertex 0).
    pub fn is_connected(&self) -> bool {
        if self.coords.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.num_vertices()];
        let mut queue = std::collections::VecDeque::from([VertexId(0)]);
        seen[0] = true;
        let mut count = 1usize;
        while let Some(v) = queue.pop_front() {
            for (n, _) in self.neighbors(v) {
                if !seen[n.idx()] {
                    seen[n.idx()] = true;
                    count += 1;
                    queue.push_back(n);
                }
            }
        }
        count == self.num_vertices()
    }

    /// A [`GridIndex`] over the vertices (items are vertex ids), with
    /// square cells of about one vertex each: `sqrt(area / V)`, floored
    /// for a degenerate box (one vertex, or all on one line) at the
    /// longer side over `V`, and at a metre. [`GridIndex::nearest`] on
    /// it is the vertex nearest a point, ties to the lowest id: how
    /// workloads map trip endpoints onto vertices once at generation
    /// time, exactly as the paper pre-maps pickup points.
    pub fn vertex_grid(&self) -> GridIndex {
        let bbox = self.bounding_box();
        let (w, h) = (bbox.width(), bbox.height());
        let n = self.coords.len().max(1) as f64;
        let cell_m = (w * h / n).sqrt().max(w.max(h) / n).max(1.0);
        let mut grid = GridIndex::new(bbox, cell_m);
        for (i, &p) in self.coords.iter().enumerate() {
            grid.upsert(i as ItemId, p);
        }
        grid
    }

    /// Rough heap footprint in bytes (coords + CSR arrays).
    pub fn mem_bytes(&self) -> usize {
        self.coords.len() * std::mem::size_of::<Point>()
            + self.offsets.len() * 4
            + self.targets.len() * 4
            + self.costs.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    fn triangle() -> RoadNetwork {
        // 10 m-scale coordinates: the hand-set costs (>= 100 cs) stay
        // slower than a straight line at top speed (10 m / 23 m/s ≈ 43 cs),
        // so the Euclidean bound property holds.
        let mut b = NetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(10.0, 0.0));
        let v2 = b.add_vertex(Point::new(0.0, 10.0));
        b.add_edge_with_cost(v0, v1, 100).unwrap();
        b.add_edge_with_cost(v1, v2, 150).unwrap();
        b.add_edge_with_cost(v2, v0, 120).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn csr_roundtrip() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(VertexId(0)), 2);
        let n0: Vec<_> = g.neighbors(VertexId(0)).collect();
        assert!(n0.contains(&(VertexId(1), 100)));
        assert!(n0.contains(&(VertexId(2), 120)));
    }

    #[test]
    fn connectivity() {
        let g = triangle();
        assert!(g.is_connected());

        let mut b = NetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(1.0, 0.0));
        b.add_vertex(Point::new(2.0, 0.0)); // isolated
        b.add_edge_with_cost(v0, v1, 5).unwrap();
        let g = b.finish().unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn euclidean_bound_is_a_lower_bound_on_edges() {
        let g = triangle();
        for v in g.vertices() {
            for (n, c) in g.neighbors(v) {
                // Straight line at top speed can't be slower than the edge.
                assert!(g.euc(v, n) <= c, "euc({v},{n}) > cost");
            }
        }
    }

    #[test]
    fn travel_cost_rounds_up_euclidean_rounds_down() {
        // 100 m at 23 m/s = 434.78 cs.
        assert_eq!(travel_cost(100.0, 23.0), 435);
        assert_eq!(euclidean_cost(100.0, 23.0), 434);
        assert!(euclidean_cost(100.0, 23.0) <= travel_cost(100.0, 23.0));
    }

    /// What `euclidean_cost` computed before it dropped `floor`.
    fn floored(x: f64) -> Cost {
        x.floor() as Cost
    }

    /// The `as` cast rounds every `f64` the way `floor` then the cast
    /// did: signed zeros and subnormals, negative values and NaN, the
    /// infinities, the neighbourhoods of 2⁵³, 2⁶³ and 2⁶⁴, and values
    /// one ulp below an integer.
    #[test]
    fn the_cast_is_floor_on_the_edge_cases() {
        let two = |e: i32| 2f64.powi(e);
        let mut xs = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            -0.5,
            -1.0,
            -1e300,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            0.5,
            0.999_999_999_999_999_9,
            434.782_608_695_652_2,
        ];
        for e in [52, 53, 54, 63, 64, 65] {
            let p = two(e);
            xs.extend([p, p + 0.5, p - 0.5, p - 1.0, p + 2.0]);
            xs.push(f64::from_bits(p.to_bits() - 1));
            xs.push(f64::from_bits(p.to_bits() + 1));
        }
        for k in [1u64, 2, 3, 100, 434, 1 << 20, (1 << 52) - 1, 1 << 52] {
            // One ulp below the integer `k`.
            xs.push(f64::from_bits((k as f64).to_bits() - 1));
        }
        for x in xs {
            assert_eq!(x as Cost, floored(x), "{x:e}");
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            /// The cast is `floor` then the cast on any bit pattern.
            #[test]
            fn the_cast_is_floor_on_any_bits(bits in any::<u64>()) {
                let x = f64::from_bits(bits);
                prop_assert_eq!(x as Cost, floored(x), "{:e}", x);
            }

            /// `euclidean_cost` is the floored formula on any length and
            /// speed it accepts.
            #[test]
            fn euclidean_cost_is_the_floored_formula(
                length in any::<u64>(),
                speed in any::<u64>(),
            ) {
                let length = f64::from_bits(length).abs();
                let speed = f64::from_bits(speed).abs();
                prop_assume!(!length.is_nan() && speed > 0.0);
                prop_assert_eq!(
                    euclidean_cost(length, speed),
                    floored((length / speed) * 100.0)
                );
            }
        }
    }

    #[test]
    fn road_class_speeds_ordered() {
        let mut prev = f64::INFINITY;
        for c in RoadClass::ALL {
            assert!(c.speed_mps() <= prev);
            prev = c.speed_mps();
        }
        assert_eq!(RoadClass::FASTEST_MPS, RoadClass::Motorway.speed_mps());
    }
}
