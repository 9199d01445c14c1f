//! Synthetic road networks and request workloads.
//!
//! The paper evaluates on two real taxi datasets (NYC TLC 2016-04-09
//! and Didi Chengdu 2016-11-18) over OSM road networks. Neither is
//! redistributable here, so this crate generates *structurally
//! equivalent* synthetic stands-ins (the substitution is argued in
//! DESIGN.md §3):
//!
//! * [`network_gen`] — Manhattan-style grid cities (NYC-like), ring +
//!   radial cities (Chengdu-like, a city famous for its ring roads),
//!   plus the cycle graph of the §3.3 hardness proofs.
//! * [`requests`] — request streams with Gaussian spatial hotspots,
//!   double-peaked rush-hour arrivals, the NYC passenger-count
//!   distribution for `K_r`, deadlines `t_r + Δ` and penalties
//!   `β · dis(o_r, d_r)` exactly as §6.1 configures them.
//! * [`scenario`] — one-stop builders bundling network + oracle +
//!   fleet + stream, with `nyc_like` / `chengdu_like` presets.
//! * [`adversary`] — the cycle-graph adversary distribution from the
//!   proofs of Lemmas 1–3, used to measure competitive ratios
//!   empirically.
//! * [`sweep`] — the Table 5 parameter grid (defaults bold in the
//!   paper), scaled to laptop-size cities.
//!
//! Every workload is generated in memory from a seed; there is no
//! trip-record file format. A loader for real trips belongs with such
//! data, written against its actual format.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod fleet;
pub mod network_gen;
pub mod requests;
pub mod scenario;
pub mod sweep;

/// Centiseconds per minute — Table 5 quotes deadlines in minutes.
pub const MINUTE_CS: u64 = 6_000;

/// Commonly used items.
pub mod prelude {
    pub use crate::adversary::AdversaryInstance;
    pub use crate::fleet::FleetMix;
    pub use crate::network_gen::{cycle_graph, grid_city, ring_radial_city};
    pub use crate::requests::{RequestStreamConfig, RequestStreamGenerator};
    pub use crate::scenario::{City, Scenario, ScenarioBuilder};
    pub use crate::sweep::{SweepAxis, SweepParams};
    pub use crate::MINUTE_CS;
}
