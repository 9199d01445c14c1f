//! Event-driven shared-mobility simulator (§6.1 "Implementation").
//!
//! The paper evaluates planners by replaying a day of taxi requests:
//! requests arrive at their release times, workers drive their planned
//! routes at road speeds, and the planner is consulted online. This
//! crate is that harness:
//!
//! * [`service`] — [`service::MobilityService`], the event loop and the
//!   only way a run is opened: feed it
//!   [`urpsm_core::event::PlatformEvent`]s one at a time (from a
//!   recorded stream, a test, or a live socket) and it advances
//!   workers, wakes batch planners at epoch boundaries, hands over each
//!   request, and drains at the end. A replay of a recorded stream is
//!   its arrivals submitted in order, then [`service::MobilityService::drain`].
//! * [`engine`] — [`engine::SimConfig`], the one place a run's platform
//!   settings live, and [`engine::SimOutcome`], what a drained run
//!   reports.
//! * [`motion`] — vertex-granular worker movement along expanded
//!   shortest paths (the paper's workers are mid-route when new
//!   requests arrive — Example 2's `l_0 = v1`).
//! * [`metrics`] — unified cost, served rate and response time, the
//!   three panels of every figure in §6.2.
//! * [`audit`] — a post-hoc replay verifying that every constraint of
//!   Def. 4 (precedence, deadline, capacity) and the URPSM invariable
//!   constraint actually held, plus exact distance accounting.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod engine;
pub mod metrics;
pub mod motion;
pub mod service;
pub mod timeline;

/// Commonly used items.
pub mod prelude {
    pub use crate::audit::audit_events;
    pub use crate::engine::{SimConfig, SimOutcome};
    pub use crate::metrics::{ClassMetrics, SimMetrics};
    pub use crate::service::{MobilityService, ServiceCheckpoint};
    pub use crate::timeline::{Timeline, TimelineBucket};
    pub use crate::{event_log_digest, SimEvent};
}

/// A timestamped event emitted by the simulation, consumed by the
/// audit and by example binaries that want a narrative log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// The planner inserted request `r` into `w`'s route.
    Assigned {
        /// Decision time.
        t: urpsm_core::types::Time,
        /// The request.
        r: urpsm_core::types::RequestId,
        /// The chosen worker.
        w: urpsm_core::types::WorkerId,
        /// Increased distance `Δ*`.
        delta: road_network::Cost,
    },
    /// The planner rejected request `r`.
    Rejected {
        /// Decision time.
        t: urpsm_core::types::Time,
        /// The request.
        r: urpsm_core::types::RequestId,
    },
    /// Worker `w` picked up request `r`.
    Pickup {
        /// Arrival time at the pickup vertex.
        t: urpsm_core::types::Time,
        /// The request.
        r: urpsm_core::types::RequestId,
        /// The worker.
        w: urpsm_core::types::WorkerId,
    },
    /// Worker `w` delivered request `r`.
    Delivery {
        /// Arrival time at the drop-off vertex.
        t: urpsm_core::types::Time,
        /// The request.
        r: urpsm_core::types::RequestId,
        /// The worker.
        w: urpsm_core::types::WorkerId,
    },
    /// Request `r` was withdrawn by its rider/shipper before pickup;
    /// its pending stops (if any) were released.
    Cancelled {
        /// When the cancellation took effect.
        t: urpsm_core::types::Time,
        /// The request.
        r: urpsm_core::types::RequestId,
        /// Planned free-flow distance returned to the pool by the route
        /// surgery (`0` when the request was still buffered in a batch
        /// epoch and no route ever saw it). The audit replays the
        /// per-worker ledger `planned = Σ deltas − Σ freed` from this.
        freed: road_network::Cost,
    },
    /// Request `r` was stripped from departing worker `w`'s route (the
    /// `Reassign` policy); a fresh assignment/rejection decision for
    /// `r` follows later in the log.
    Unassigned {
        /// When the strip happened.
        t: urpsm_core::types::Time,
        /// The request.
        r: urpsm_core::types::RequestId,
        /// The departing worker it was stripped from.
        w: urpsm_core::types::WorkerId,
        /// Planned free-flow distance the strip freed (same ledger role
        /// as `Cancelled::freed`).
        freed: road_network::Cost,
    },
    /// Worker `w` joined the fleet.
    WorkerJoined {
        /// When it came online.
        t: urpsm_core::types::Time,
        /// The worker.
        w: urpsm_core::types::WorkerId,
    },
    /// Worker `w` left the fleet: it takes no new requests and only
    /// finishes the stops still committed to it.
    WorkerLeft {
        /// When the departure was announced.
        t: urpsm_core::types::Time,
        /// The worker.
        w: urpsm_core::types::WorkerId,
    },
}

impl SimEvent {
    /// When the event occurred.
    pub fn time(&self) -> urpsm_core::types::Time {
        match *self {
            SimEvent::Assigned { t, .. }
            | SimEvent::Rejected { t, .. }
            | SimEvent::Pickup { t, .. }
            | SimEvent::Delivery { t, .. }
            | SimEvent::Cancelled { t, .. }
            | SimEvent::Unassigned { t, .. }
            | SimEvent::WorkerJoined { t, .. }
            | SimEvent::WorkerLeft { t, .. } => t,
        }
    }
}

/// Order-sensitive FNV-1a digest of an event log: every variant tag and
/// every field of every event feeds the hash, so two logs collide only
/// if they are byte-for-byte the same sequence (up to hash collisions).
///
/// This is the integrity pin of the ingestion plane's snapshots
/// (DESIGN.md §9): a service checkpoint carries the digest of its log,
/// and a recovery replay must reproduce it exactly before the service
/// resumes. It is deliberately *not* a streaming hasher — recomputation
/// over the full log keeps the function stateless and the checkpoint
/// self-contained.
pub fn event_log_digest(events: &[SimEvent]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    #[inline]
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
    }
    let mut h = OFFSET;
    for ev in events {
        h = match *ev {
            SimEvent::Assigned { t, r, w, delta } => mix(
                mix(mix(mix(mix(h, 0), t), u64::from(r.0)), u64::from(w.0)),
                delta,
            ),
            SimEvent::Rejected { t, r } => mix(mix(mix(h, 1), t), u64::from(r.0)),
            SimEvent::Pickup { t, r, w } => {
                mix(mix(mix(mix(h, 2), t), u64::from(r.0)), u64::from(w.0))
            }
            SimEvent::Delivery { t, r, w } => {
                mix(mix(mix(mix(h, 3), t), u64::from(r.0)), u64::from(w.0))
            }
            SimEvent::Cancelled { t, r, freed } => {
                mix(mix(mix(mix(h, 4), t), u64::from(r.0)), freed)
            }
            SimEvent::Unassigned { t, r, w, freed } => mix(
                mix(mix(mix(mix(h, 5), t), u64::from(r.0)), u64::from(w.0)),
                freed,
            ),
            SimEvent::WorkerJoined { t, w } => mix(mix(mix(h, 6), t), u64::from(w.0)),
            SimEvent::WorkerLeft { t, w } => mix(mix(mix(h, 7), t), u64::from(w.0)),
        };
    }
    h
}

#[cfg(test)]
mod tests {
    use super::SimEvent;
    use urpsm_core::types::{RequestId, WorkerId};

    #[test]
    fn time_reads_every_variant() {
        let (r, w) = (RequestId(3), WorkerId(5));
        let events = [
            SimEvent::Assigned {
                t: 10,
                r,
                w,
                delta: 7,
            },
            SimEvent::Rejected { t: 11, r },
            SimEvent::Pickup { t: 12, r, w },
            SimEvent::Delivery { t: 13, r, w },
            SimEvent::Cancelled { t: 14, r, freed: 7 },
            SimEvent::Unassigned {
                t: 15,
                r,
                w,
                freed: 7,
            },
            SimEvent::WorkerJoined { t: 16, w },
            SimEvent::WorkerLeft { t: 17, w },
        ];
        let times: Vec<u64> = events.iter().map(SimEvent::time).collect();
        assert_eq!(times, [10, 11, 12, 13, 14, 15, 16, 17]);
    }
}
