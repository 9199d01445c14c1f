//! The `experiments` binary's library: scenario caching, cell
//! execution, the min-of-N timer, the micro-benchmark commands, and the
//! fixed-width tables that mirror the paper's figure panels.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixtures;
pub mod harness;
pub mod micro;
pub mod table;

/// JSON rendering of the global metrics registry's current snapshot,
/// for embedding in the `BENCH_*.json` artifacts (DESIGN.md §11). Always
/// available: without `urpsm-obs/record` (or when the `URPSM_OBS` gate
/// never opened) every counter reads zero, so artifact consumers see a
/// stable shape regardless of how the bench was built.
pub fn obs_snapshot_json() -> String {
    urpsm_obs::registry().snapshot().to_json()
}
