//! Road-network substrate for the URPSM reproduction.
//!
//! The URPSM paper (Tong et al., PVLDB'18) treats the road network as an
//! undirected graph whose edge costs are travel times, and assumes an
//! oracle answering shortest-*distance* queries in (amortized) constant
//! time — in their implementation a hub-label index [Abraham et al. 2011]
//! fronted by an LRU cache. This crate provides that whole substrate:
//!
//! * [`graph`] — compact CSR road networks with coordinates and road
//!   classes ([`graph::RoadNetwork`], [`builder::NetworkBuilder`]).
//! * [`dijkstra`] — a reusable Dijkstra engine for distances, paths and
//!   nearest-vertex queries.
//! * [`hub_labels`] — pruned landmark labeling (exact hub labels) in
//!   coverage order, with `O(|label|)` distance queries and shortest
//!   paths walked up the labels' own search trees.
//! * [`matrix`] — a dense all-pairs oracle for tests and tiny graphs
//!   (this is what the paper's worked examples are verified against).
//! * [`cache`] — the distance cache shared by all planners (§6.1 of
//!   the paper keeps an LRU cache; this one is a map cleared when full,
//!   because no measured workload ever fills it).
//! * [`oracle`] — the [`oracle::DistanceOracle`] trait plus counting
//!   decorators used to reproduce the paper's saved-query statistics.
//! * [`grid`] — the uniform grid index of worker positions every
//!   planner shortlists from, and the `O(C²)` sorted cell order the
//!   `tshare` baseline walks over it.
//!
//! All travel costs are integer **centiseconds** of travel time
//! (see [`Cost`]); the paper uses time and distance interchangeably
//! (Def. 1), and integers keep every DP comparison exact.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod cache;
pub mod congestion;
pub mod dijkstra;
pub mod error;
pub mod fxhash;
pub mod geo;
pub mod graph;
pub mod grid;
pub mod hub_labels;
pub mod matrix;
pub mod oracle;
pub mod td;

/// Travel cost in integer centiseconds of travel time.
///
/// Def. 1 of the paper lets the edge cost be "either a distance or an
/// average travel time"; we fix travel time so that deadlines, slack and
/// detours all live in the same unit. One unit = 10 ms of driving.
pub type Cost = u64;

/// "Infinite" cost: large enough to dominate every real cost, small
/// enough that summing a handful of them cannot wrap a `u64`.
pub const INF: Cost = u64::MAX / 8;

/// Saturating cost addition that also clamps at [`INF`].
///
/// The insertion DP freely adds detours to possibly-infinite partial
/// results (e.g. `Dio[j] + det(..)` where `Dio[j] = INF`); clamping keeps
/// those comparisons well-defined without an `Option` in the hot loop.
#[inline]
pub fn cost_add(a: Cost, b: Cost) -> Cost {
    a.saturating_add(b).min(INF)
}

/// Three-way saturating cost addition (see [`cost_add`]).
#[inline]
pub fn cost_add3(a: Cost, b: Cost, c: Cost) -> Cost {
    cost_add(cost_add(a, b), c)
}

/// A vertex handle into a [`graph::RoadNetwork`] (or any oracle).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The vertex index as a `usize`, for slice indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Commonly used items.
pub mod prelude {
    pub use crate::builder::NetworkBuilder;
    pub use crate::cache::LruCachedOracle;
    pub use crate::congestion::{CongestionProfile, TravelTimeProvider};
    pub use crate::dijkstra::DijkstraEngine;
    pub use crate::geo::Point;
    pub use crate::graph::{RoadClass, RoadNetwork};
    pub use crate::grid::{GridIndex, SortedCellTable};
    pub use crate::hub_labels::HubLabels;
    pub use crate::matrix::MatrixOracle;
    pub use crate::oracle::{CountingOracle, DistanceOracle, QueryStats};
    pub use crate::td::{
        TdCachedOracle, TdDijkstra, TdSearchStats, TdTravelTimeProvider, TimeDependentOracle,
    };
    pub use crate::{cost_add, cost_add3, Cost, VertexId, INF};
}
