//! The simulation engine: replays a dynamic request stream against a
//! planner, moving workers in between (§6.1's setup).
//!
//! Since the event-stream redesign this is a thin batch driver over
//! [`MobilityService`]: it turns the pre-sorted request list into
//! [`PlatformEvent::RequestArrived`] events, feeds them one at a time,
//! and drains. Anything the engine can replay, a live caller can
//! stream — the two paths share every line of decision, motion, and
//! audit code (`tests/service_replay.rs` pins the equivalence).

use std::sync::Arc;

use road_network::oracle::DistanceOracle;
use urpsm_core::event::PlatformEvent;
use urpsm_core::planner::Planner;
use urpsm_core::platform::PlatformState;
use urpsm_core::types::{Request, Worker};

use crate::metrics::SimMetrics;
use crate::service::MobilityService;
use crate::SimEvent;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Grid cell size in meters for the platform's worker index
    /// (Table 5's `g`, which the paper quotes in km).
    pub grid_cell_m: f64,
    /// Unified-objective weight `α` used for the reported cost.
    pub alpha: u64,
    /// Whether workers finish their remaining stops after the last
    /// request (needed for exact distance accounting).
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

/// Why a [`Simulation`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The request stream is not sorted by release time; the first
    /// offending position is reported (requests `index - 1` and
    /// `index` are out of order). Sorting is the caller's bug to see
    /// and fix — not a reason to abort the process.
    UnsortedRequests {
        /// Index of the first request released before its predecessor.
        index: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnsortedRequests { index } => write!(
                f,
                "requests must be sorted by release time (request at index {index} \
                 is released before its predecessor)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// A prepared simulation: oracle + fleet + request stream.
pub struct Simulation {
    oracle: Arc<dyn DistanceOracle>,
    workers: Vec<Worker>,
    requests: Vec<Request>,
    config: SimConfig,
}

/// Everything a finished run produces.
pub struct SimOutcome {
    /// Aggregate metrics (the figure panels).
    pub metrics: SimMetrics,
    /// The final platform state (routes drained if configured).
    pub state: PlatformState,
    /// The full event log.
    pub events: Vec<SimEvent>,
    /// Constraint violations found by the independent audit
    /// (empty = clean run).
    pub audit_errors: Vec<String>,
}

impl Simulation {
    /// Builds a simulation. Requests must be sorted by release time;
    /// an unsorted stream is reported as [`SimError::UnsortedRequests`]
    /// instead of aborting the process.
    pub fn new(
        oracle: Arc<dyn DistanceOracle>,
        workers: Vec<Worker>,
        requests: Vec<Request>,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        if let Some(index) = requests
            .windows(2)
            .position(|w| w[0].release > w[1].release)
        {
            return Err(SimError::UnsortedRequests { index: index + 1 });
        }
        Ok(Simulation {
            oracle,
            workers,
            requests,
            config,
        })
    }

    /// Builds a simulation without checking the stream order — for
    /// benches that construct sorted streams in hot loops. Feeding an
    /// unsorted stream here is a logic error: release times would be
    /// clamped to the running clock (see [`MobilityService::submit`]),
    /// silently distorting the replay.
    pub fn new_sorted_unchecked(
        oracle: Arc<dyn DistanceOracle>,
        workers: Vec<Worker>,
        requests: Vec<Request>,
        config: SimConfig,
    ) -> Self {
        debug_assert!(
            requests.windows(2).all(|w| w[0].release <= w[1].release),
            "requests must be sorted by release time"
        );
        Simulation {
            oracle,
            workers,
            requests,
            config,
        }
    }

    /// Runs the stream against `planner` and returns metrics, the final
    /// state, the event log and the audit verdict.
    ///
    /// This is the one-shot batch path: it streams every request into a
    /// [`MobilityService`] (borrowing `planner` through the
    /// `impl Planner for &mut P` adapter) and drains.
    pub fn run(&self, planner: &mut dyn Planner) -> SimOutcome {
        let start_time = self.requests.first().map_or(0, |r| r.release);
        let mut service = MobilityService::new(
            Arc::clone(&self.oracle),
            self.workers.clone(),
            Box::new(planner),
            self.config.clone(),
            start_time,
        );
        for r in &self.requests {
            service.submit(PlatformEvent::RequestArrived(*r));
        }
        service.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;
    use road_network::VertexId;
    use urpsm_core::planner::{GreedyDp, PruneGreedyDp};
    use urpsm_core::platform::Outcome;
    use urpsm_core::types::{RequestId, Time, WorkerId};

    fn line_oracle(n: usize) -> Arc<dyn DistanceOracle> {
        let mut b = road_network::builder::NetworkBuilder::new();
        for i in 0..n {
            b.add_vertex(Point::new(i as f64, 0.0));
        }
        for i in 1..n as u32 {
            b.add_edge_with_cost(VertexId(i - 1), VertexId(i), 100)
                .unwrap();
        }
        b.set_top_speed_mps(1.0);
        Arc::new(MatrixOracle::from_network(&b.finish().unwrap()))
    }

    fn fleet(origins: &[u32]) -> Vec<Worker> {
        origins
            .iter()
            .enumerate()
            .map(|(i, &v)| Worker {
                class: Default::default(),
                id: WorkerId(i as u32),
                origin: VertexId(v),
                capacity: 4,
            })
            .collect()
    }

    fn req(id: u32, o: u32, d: u32, release: Time, deadline: Time) -> Request {
        Request {
            class: Default::default(),
            id: RequestId(id),
            origin: VertexId(o),
            destination: VertexId(d),
            release,
            deadline,
            penalty: 1_000_000,
            capacity: 1,
        }
    }

    #[test]
    fn simple_run_is_clean_and_exact() {
        let sim = Simulation::new(
            line_oracle(50),
            fleet(&[0, 40]),
            vec![
                req(0, 5, 10, 0, 100_000),
                req(1, 38, 30, 1_000, 100_000),
                req(2, 7, 12, 2_000, 100_000),
            ],
            SimConfig::default(),
        )
        .unwrap();
        let mut planner = PruneGreedyDp::new();
        let out = sim.run(&mut planner);
        assert_eq!(out.audit_errors, Vec::<String>::new());
        assert_eq!(out.metrics.served, 3);
        assert_eq!(out.metrics.rejected, 0);
        assert_eq!(out.metrics.served_rate(), 1.0);
        // Drained: driven == planned exactly.
        assert_eq!(
            out.metrics.driven_distance,
            out.state.total_assigned_distance()
        );
    }

    #[test]
    fn impossible_requests_get_rejected_and_audited() {
        let sim = Simulation::new(
            line_oracle(50),
            fleet(&[0]),
            vec![req(0, 40, 45, 0, 500)], // unreachable in time
            SimConfig::default(),
        )
        .unwrap();
        let mut planner = PruneGreedyDp::new();
        let out = sim.run(&mut planner);
        assert!(out.audit_errors.is_empty());
        assert_eq!(out.metrics.rejected, 1);
        assert_eq!(out.metrics.unified_cost.total_penalty, 1_000_000);
    }

    #[test]
    fn greedy_and_prune_greedy_identical_end_to_end() {
        let requests: Vec<Request> = (0..20)
            .map(|i| {
                let o = (i * 7) % 45;
                let d = (o + 3 + (i % 5)) % 50;
                req(i, o, d, u64::from(i) * 500, u64::from(i) * 500 + 50_000)
            })
            .collect();
        let mk_sim = || {
            Simulation::new(
                line_oracle(50),
                fleet(&[0, 10, 20, 30, 40]),
                requests.clone(),
                SimConfig::default(),
            )
            .unwrap()
        };
        let mut g = GreedyDp::new();
        let mut p = PruneGreedyDp::new();
        let out_g = mk_sim().run(&mut g);
        let out_p = mk_sim().run(&mut p);
        assert!(out_g.audit_errors.is_empty());
        assert!(out_p.audit_errors.is_empty());
        // Lemma 8 must not change any outcome, only query counts.
        assert_eq!(out_g.events, out_p.events);
        assert_eq!(
            out_g.metrics.unified_cost.value(),
            out_p.metrics.unified_cost.value()
        );
    }

    /// A planner that rejects everything but records exactly when the
    /// engine wakes it, to pin the epoch contract batch planners rely on.
    struct WakeupRecorder {
        epoch: Time,
        next: Option<Time>,
        wakeups: Vec<Time>,
        flushed: bool,
    }

    impl urpsm_core::planner::Planner for WakeupRecorder {
        fn name(&self) -> &'static str {
            "wakeup-recorder"
        }
        fn on_request(
            &mut self,
            state: &mut PlatformState,
            r: &Request,
        ) -> urpsm_core::planner::PlannerReplies {
            if self.next.is_none() {
                self.next = Some(r.release + self.epoch);
            }
            state.reject(r);
            urpsm_core::planner::reply_one(r.id, Outcome::Rejected)
        }
        fn on_time(
            &mut self,
            _state: &mut PlatformState,
            now: Time,
        ) -> urpsm_core::planner::PlannerReplies {
            self.wakeups.push(now);
            self.next = None;
            urpsm_core::planner::PlannerReplies::new()
        }
        fn flush(&mut self, _state: &mut PlatformState) -> urpsm_core::planner::PlannerReplies {
            self.flushed = true;
            urpsm_core::planner::PlannerReplies::new()
        }
        fn next_wakeup(&self) -> Option<Time> {
            self.next
        }
    }

    #[test]
    fn engine_honors_planner_wakeups() {
        let requests = vec![
            req(0, 1, 2, 0, 100_000),
            req(1, 2, 3, 100, 100_000),
            req(2, 3, 4, 5_000, 100_000), // well past the first epoch
        ];
        let sim =
            Simulation::new(line_oracle(10), fleet(&[0]), requests, SimConfig::default()).unwrap();
        let mut planner = WakeupRecorder {
            epoch: 600,
            next: None,
            wakeups: Vec::new(),
            flushed: false,
        };
        let out = sim.run(&mut planner);
        // The first epoch (opened at t=0) must fire at exactly t=600 —
        // before request 2's release at t=5000 — then a second epoch
        // opens at 5000+600 and is woken before the stream drains.
        assert_eq!(planner.wakeups, vec![600, 5_600]);
        assert!(planner.flushed, "flush must be called at end of stream");
        assert_eq!(out.metrics.rejected, 3);
        assert!(out.audit_errors.is_empty());
    }

    #[test]
    fn unsorted_requests_reported_not_panicked() {
        let err = Simulation::new(
            line_oracle(10),
            fleet(&[0]),
            vec![req(0, 1, 2, 100, 200), req(1, 1, 2, 50, 200)],
            SimConfig::default(),
        )
        .err()
        .expect("unsorted stream must be rejected");
        assert_eq!(err, SimError::UnsortedRequests { index: 1 });
        assert!(err.to_string().contains("sorted by release time"));
    }

    #[test]
    fn unchecked_constructor_skips_the_check() {
        // Sorted stream: both constructors agree.
        let sim = Simulation::new_sorted_unchecked(
            line_oracle(10),
            fleet(&[0]),
            vec![req(0, 1, 2, 0, 100_000)],
            SimConfig::default(),
        );
        let out = sim.run(&mut PruneGreedyDp::new());
        assert!(out.audit_errors.is_empty());
    }
}
