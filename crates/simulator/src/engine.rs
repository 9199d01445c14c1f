//! A run's settings and its report: [`SimConfig`] is the one place a
//! run's platform parameters live, and [`SimOutcome`] is what
//! [`MobilityService::drain`](crate::service::MobilityService::drain)
//! hands back. The service is the only way a run is opened; a replay
//! of a recorded stream feeds its arrivals through `submit` and drains.

use std::sync::Arc;

use urpsm_core::platform::PlatformState;

use crate::metrics::SimMetrics;
use crate::SimEvent;

/// A run's platform parameters: the one place they live.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Grid cell size in meters for the platform's worker index
    /// (Table 5's `g`, which the paper quotes in km).
    pub grid_cell_m: f64,
    /// Unified-objective weight `α` used for the reported cost.
    pub alpha: u64,
    /// Nothing reads this field: [`MobilityService::drain`] always lets
    /// every worker finish its route and always audits the exact
    /// distance ledgers. It stays, as a documented no-op, for callers
    /// that spell it (`tests/config_matrix.rs` pins that `false`
    /// changes nothing).
    ///
    /// [`MobilityService::drain`]: crate::service::MobilityService::drain
    pub drain: bool,
    /// Nothing reads this field. It stays, as a documented no-op, for
    /// callers written against the retired per-request planning
    /// fan-out: a request is planned on the calling thread at every
    /// value (DESIGN.md §5 "The scan").
    pub threads: usize,
    /// Time-dependent travel times: the congestion profile installed
    /// into the platform (DESIGN.md §7). `None` (the default) is free
    /// flow — the pre-congestion code path, byte for byte.
    pub congestion: Option<Arc<road_network::congestion::CongestionProfile>>,
    /// Route committed legs through the true time-dependent oracle
    /// (`road_network::td`) instead of the profile *overlay*: schedules
    /// follow the path that is shortest at the departure time, so
    /// congestion reroutes instead of merely delaying. Requires a
    /// graph-backed oracle (`DistanceOracle::backing_network`) and a
    /// congestion profile to have any effect; with a flat profile the
    /// TD oracle is byte-identical to the overlay (and to no profile at
    /// all — `tests/td_equivalence.rs` pins it). Off by default.
    pub td_oracle: bool,
    /// Vehicle-class table of the fleet (DESIGN.md §12). `None` is the
    /// homogeneous single-standard-class fleet — the pre-class code
    /// path, byte for byte. A table is installed into the platform at
    /// open, which composes each class's speed multiplier into route
    /// schedules and arms the per-class capacity/range feasibility
    /// gates; planners never see it (the eligibility seam).
    pub classes: Option<Arc<urpsm_core::types::ClassTable>>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            grid_cell_m: 2_000.0,
            alpha: 1,
            drain: true,
            threads: 0,
            congestion: None,
            td_oracle: false,
            classes: None,
        }
    }
}

/// Everything a finished run produces.
pub struct SimOutcome {
    /// Aggregate metrics (the figure panels).
    pub metrics: SimMetrics,
    /// The final platform state, every route drained.
    pub state: PlatformState,
    /// The full event log.
    pub events: Vec<SimEvent>,
    /// Constraint violations found by the independent audit
    /// (empty = clean run).
    pub audit_errors: Vec<String>,
}
