//! Per-thread probe arena (`PlanScratch`).
//!
//! One exact probe needs two kinds of temporary storage: the linear-DP
//! distance columns and a probe route for the congestion
//! re-feasibility check. Allocating either per request puts a `malloc`
//! on the hot path; `PlanScratch` bundles both into one arena owned by
//! the planner engine — one instance per fan-out thread (index 0 is
//! the calling thread's) — and every buffer is `clear()`-reused, so
//! together with the engine's one `Shortlist` a steady-state planned
//! insertion touches the allocator zero times (gated by
//! `benches/alloc.rs` in `urpsm-bench`).

use crate::insertion::InsertionScratch;
use crate::route::Route;

/// The reusable buffers one probing thread needs for one request.
/// Both fields survive across requests with retained capacity; neither
/// carries information between requests (the leak-freedom is pinned by
/// `tests/scratch_reuse.rs`: a long-lived planner and a
/// fresh-per-request planner produce identical outcome streams).
#[derive(Debug, Default)]
pub(crate) struct PlanScratch {
    /// Distance columns of the linear-DP insertion (Algo. 3).
    pub insertion: InsertionScratch,
    /// Probe route for the congestion re-feasibility gate:
    /// `clone_from`-ed over the candidate's route, so its inline stop
    /// arrays (and any heap capacity from a past spill) are reused.
    pub probe: Route,
}
