//! The planner abstraction and the paper's two solutions.
//!
//! A [`Planner`] receives dynamically released requests one at a time
//! (the online setting of §2) and must immediately and irrevocably
//! either insert each into some worker's route or reject it. The two
//! planners here are the paper's:
//!
//! * [`GreedyDp`] — decision phase (Algo. 4) + exhaustive planning
//!   phase: evaluate the exact linear-DP insertion for *every*
//!   candidate worker, pick the minimum.
//! * [`PruneGreedyDp`] — Algo. 5: identical, but scans workers in
//!   ascending `LBΔ*` order and stops as soon as the best exact `Δ*`
//!   found so far is strictly below the next worker's lower bound
//!   (Lemma 8) — same result, a fraction of the distance queries.
//!
//! The three baselines of §6 (`tshare`, `kinetic`, `batch`) implement
//! the same trait in the `urpsm-baselines` crate.

mod greedy;
mod scratch;

pub use greedy::{GreedyDp, PruneGreedyDp};

use smallvec::SmallVec;

use crate::event::WorkerChange;
use crate::platform::{Outcome, PlatformState};
use crate::types::{Request, RequestId, Time};

/// Outcome list returned by the planner callbacks. Immediate planners
/// answer with exactly one `(request, outcome)` pair and batch
/// planners usually with zero (buffering) or a small epoch burst, so
/// the list is inline up to two entries — the common cases never touch
/// the heap, which keeps the planned-insertion hot path
/// allocation-free (gated by the root package's `tests/alloc_gate.rs`). Larger
/// bursts (epoch flushes) spill to the heap transparently.
pub type PlannerReplies = SmallVec<(RequestId, Outcome), 2>;

/// A single-reply list: the immediate planners' unit answer.
pub fn reply_one(r: RequestId, outcome: Outcome) -> PlannerReplies {
    SmallVec::from_slice(&[(r, outcome)])
}

/// Shared planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// The unified-objective weight `α` (Eq. 1). The experiments of
    /// §6.1 fix `α = 1`.
    pub alpha: u64,
    /// Extension (not in the paper, see `DESIGN.md` §2 at the repo
    /// root): when `true`, a request is also rejected at *planning*
    /// time if the exact cost `α · Δ*` exceeds its penalty — the paper
    /// only applies the economic test to the lower bound in the
    /// decision phase.
    pub strict_economics: bool,
}

impl Default for PlannerConfig {
    /// `α = 1`, lax economics.
    fn default() -> Self {
        PlannerConfig {
            alpha: 1,
            strict_economics: false,
        }
    }
}

/// An online route planner for shared mobility.
///
/// `Send` is a supertrait: a service owns its boxed planner, and
/// whoever embeds a service or the ingestion server over it
/// (`IngestServer` in `urpsm-server`) may build it on one thread and
/// tick it on another. Every planner is plain data plus `Arc`
/// handles, so the bound costs nothing in practice — it only rules
/// out `Rc`/`RefCell`-style interior state.
pub trait Planner: Send {
    /// Human-readable algorithm name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Handles a newly released request. May return outcomes for this
    /// request and/or buffered earlier ones (batch planners defer).
    fn on_request(&mut self, state: &mut PlatformState, r: &Request) -> PlannerReplies;

    /// Notifies the planner that simulation time advanced to `now`
    /// (batch planners flush epochs here). Default: no-op.
    fn on_time(&mut self, _state: &mut PlatformState, _now: Time) -> PlannerReplies {
        PlannerReplies::new()
    }

    /// Called once after the final request; planners with buffers must
    /// drain them. Default: no-op.
    fn flush(&mut self, _state: &mut PlatformState) -> PlannerReplies {
        PlannerReplies::new()
    }

    /// The next time this planner wants an [`Planner::on_time`] call
    /// even if no request arrives (batch planners return their epoch
    /// boundary). Default: never.
    fn next_wakeup(&self) -> Option<Time> {
        None
    }

    /// A rider/shipper cancelled request `r` (see `DESIGN.md` §2).
    /// Planners that buffer undecided requests (batch epochs) must drop
    /// `r` from their buffer and return `true` to signal they absorbed
    /// the cancellation; the service then skips the platform-level
    /// route surgery. Planners that decide immediately keep the default
    /// (`false`) — the platform handles the cancellation through
    /// [`PlatformState::cancel_request`].
    fn on_cancel(&mut self, _state: &mut PlatformState, _r: RequestId) -> bool {
        false
    }

    /// The fleet changed: a worker joined, or one left (see
    /// `DESIGN.md` §2). Called *after* the platform applied the change,
    /// so `state` already reflects the new fleet. Planners with
    /// per-worker caches or pending per-worker work react here.
    /// Default: no-op — correct for the paper's planners, which look
    /// workers up through the grid index on every decision.
    fn on_worker_change(&mut self, _state: &mut PlatformState, _change: WorkerChange) {}

    /// A planner-internal width hint. No planner in this workspace
    /// reads it: each plans a request on the calling thread, and the
    /// unit of parallelism is a shard of the fleet (DESIGN.md §5). Kept
    /// with a no-op default so callers and wrappers written against the
    /// retired per-request fan-out still compile; nothing calls it.
    fn set_threads(&mut self, _threads: usize) {}
}

// `Box<P>` and `&mut P` are planners too. The borrowing form lets the
// simulator driver and the experiments feed a `&mut P` where a [`Planner`]
// value is expected instead of giving the planner away (e.g.
// `MobilityService` boxes `&mut planner` while the caller keeps
// ownership to read statistics afterwards). Every hook is forwarded:
// all but `name`/`on_request` have defaults, so a missing line here
// would silently drop one (the unit test below drives all seven). The
// no-op `set_threads` is the one method left at its default.
macro_rules! forward_planner {
    ($ty:ty) => {
        impl<P: Planner + ?Sized> Planner for $ty {
            fn name(&self) -> &'static str {
                (**self).name()
            }
            fn on_request(&mut self, state: &mut PlatformState, r: &Request) -> PlannerReplies {
                (**self).on_request(state, r)
            }
            fn on_time(&mut self, state: &mut PlatformState, now: Time) -> PlannerReplies {
                (**self).on_time(state, now)
            }
            fn flush(&mut self, state: &mut PlatformState) -> PlannerReplies {
                (**self).flush(state)
            }
            fn next_wakeup(&self) -> Option<Time> {
                (**self).next_wakeup()
            }
            fn on_cancel(&mut self, state: &mut PlatformState, r: RequestId) -> bool {
                (**self).on_cancel(state, r)
            }
            fn on_worker_change(&mut self, state: &mut PlatformState, change: WorkerChange) {
                (**self).on_worker_change(state, change)
            }
        }
    };
}

forward_planner!(Box<P>);
forward_planner!(&mut P);

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;
    use road_network::VertexId;

    use super::*;
    use crate::types::WorkerId;

    /// Records which hooks were reached; answers each with a value the
    /// trait's defaults never produce.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<&'static str>,
    }

    impl Planner for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn on_request(&mut self, _: &mut PlatformState, r: &Request) -> PlannerReplies {
            self.calls.push("on_request");
            reply_one(r.id, Outcome::Rejected)
        }
        fn on_time(&mut self, _: &mut PlatformState, _: Time) -> PlannerReplies {
            self.calls.push("on_time");
            reply_one(RequestId(1), Outcome::Rejected)
        }
        fn flush(&mut self, _: &mut PlatformState) -> PlannerReplies {
            self.calls.push("flush");
            reply_one(RequestId(2), Outcome::Rejected)
        }
        fn next_wakeup(&self) -> Option<Time> {
            Some(42)
        }
        fn on_cancel(&mut self, _: &mut PlatformState, _: RequestId) -> bool {
            self.calls.push("on_cancel");
            true
        }
        fn on_worker_change(&mut self, _: &mut PlatformState, _: WorkerChange) {
            self.calls.push("on_worker_change");
        }
    }

    #[test]
    fn box_and_borrow_forward_every_hook() {
        let mut b = road_network::builder::NetworkBuilder::new();
        b.add_vertex(Point::new(0.0, 0.0));
        b.add_vertex(Point::new(1.0, 0.0));
        b.add_edge_with_cost(VertexId(0), VertexId(1), 100).unwrap();
        let oracle = Arc::new(MatrixOracle::from_network(&b.finish().unwrap()));
        let mut state = PlatformState::new(oracle, &[], 100.0, 0);
        let r = Request {
            class: Default::default(),
            id: RequestId(0),
            origin: VertexId(0),
            destination: VertexId(1),
            release: 0,
            deadline: 1_000,
            penalty: 1,
            capacity: 1,
        };

        let mut inner = Recorder::default();
        {
            // Both adapters at once: the shape `MobilityService` holds
            // when a caller lends its planner.
            let mut p: Box<&mut Recorder> = Box::new(&mut inner);
            assert_eq!(Planner::name(&p), "recorder");
            assert_eq!(p.on_request(&mut state, &r).len(), 1);
            assert_eq!(p.on_time(&mut state, 5).len(), 1);
            assert_eq!(p.flush(&mut state).len(), 1);
            assert_eq!(Planner::next_wakeup(&p), Some(42));
            assert!(p.on_cancel(&mut state, r.id));
            p.on_worker_change(&mut state, WorkerChange::Joined(WorkerId(0)));
        }
        assert_eq!(
            inner.calls,
            [
                "on_request",
                "on_time",
                "flush",
                "on_cancel",
                "on_worker_change"
            ]
        );
    }
}
