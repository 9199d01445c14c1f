//! The probe arena (`PlanScratch`).
//!
//! One exact probe needs two kinds of temporary storage: the linear-DP
//! distance columns and the re-timed copy of an idle candidate's route.
//! (The congestion gate walks the splice in place and needs none.)
//! Allocating any per request puts a `malloc` on the hot path;
//! `PlanScratch` bundles them into the one arena the
//! planner engine owns, and every buffer is `clear()`-reused, so
//! together with the engine's one `Shortlist` a steady-state planned
//! insertion touches the allocator zero times (gated by the root
//! package's `tests/alloc_gate.rs`).

use crate::insertion::InsertionScratch;
use crate::route::Route;

/// The reusable buffers the scan needs for one request.
/// Every field survives across requests with retained capacity; none
/// carries information between requests (the leak-freedom is pinned by
/// `tests/scratch_reuse.rs`: a long-lived planner and a
/// fresh-per-request planner produce identical outcome streams).
#[derive(Debug, Default)]
pub(crate) struct PlanScratch {
    /// Distance columns of the linear-DP insertion (Algo. 3).
    pub insertion: InsertionScratch,
    /// The spare [`crate::platform::PlatformState::candidate`] re-times
    /// an idle candidate's route into.
    pub retimed: Route,
}
