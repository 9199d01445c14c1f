//! # URPSM: Unified Route Planning for Shared Mobility
//!
//! A faithful, production-quality Rust reproduction of
//! *"A Unified Approach to Route Planning for Shared Mobility"*
//! (Tong, Zeng, Zhou, Chen, Ye, Xu — PVLDB 11(11), 2018).
//!
//! This facade crate re-exports the full workspace:
//!
//! - [`network`] — road-network substrate: graphs, shortest-path oracles
//!   (Dijkstra, hub labeling), a distance cache, grid indexes.
//! - [`core`] — the paper's contribution: the URPSM problem model, the
//!   three insertion operators (basic `O(n³)`, naive DP `O(n²)`,
//!   linear DP `O(n)`), the Euclidean decision phase, the
//!   `pruneGreedyDP` planner, and the typed [`core::event`] stream.
//! - [`baselines`] — the three compared systems: `tshare` (ICDE'13),
//!   `kinetic` (VLDB'14) and `batch` (PNAS'17), behind the same
//!   [`core::planner::Planner`] trait.
//! - [`simulator`] — [`simulator::service::MobilityService`], the
//!   event-driven platform and the only way a run is opened, plus
//!   worker motion, metrics, and a post-hoc feasibility auditor.
//!   [`simulator::engine::SimConfig`] is the one place a run's
//!   platform settings live.
//! - [`dispatch`] — the geo-sharded dispatch plane:
//!   [`dispatch::service::ShardedService`] partitions the city into
//!   `K` territories, each owning its own platform + planner, routes
//!   every event to its home shard, and hands idle border workers
//!   across seams through the Borrow probe (the one boundary rule).
//!   One shard is byte-identical to `MobilityService`.
//! - [`server`] — the long-running ingestion runtime over the
//!   dispatch plane (any `K ≥ 1`; there is no separate single-service
//!   backend, since one shard already is one): an mpsc
//!   front-end with deterministic sequence-stamped micro-batching,
//!   per-shard admission control with explicit `Overloaded` shedding,
//!   and an event-sourced WAL + logical snapshots giving
//!   byte-identical crash recovery ([`server::server::recover`]). The
//!   `urpsm-serve` binary wraps it in a CLI.
//! - [`workloads`] — synthetic city networks and request streams that
//!   stand in for the NYC / Chengdu taxi datasets, with cancellation,
//!   fleet-churn and multi-region demand knobs (`nyc_like`,
//!   `chengdu_like` and the 1M-request `metropolis` presets).
//! - [`obs`] — the zero-overhead observability plane (DESIGN.md §11):
//!   a static metrics registry (counters, gauges, log-scale
//!   histograms), a lock-free span flight recorder, and a
//!   Prometheus-text exposition with its own format checker.
//!   The call sites in the other layers record only under the `obs`
//!   cargo feature ([`obs::RECORDING`]; dead code without it) and once
//!   activated at runtime via `URPSM_OBS=1` (or [`obs::set_enabled`]);
//!   `urpsm-serve
//!   --metrics-file` dumps the exposition every tick.
//!
//! ## The streaming API
//!
//! The paper's setting is online: requests arrive dynamically and must
//! be decided immediately and irrevocably (§2). `MobilityService` is
//! that setting as an API — feed it one [`PlatformEvent`] at a time
//! (request arrivals, cancellations, workers joining or leaving, clock
//! ticks) and read back the decisions and stops it caused — the tail of
//! the service's event log, borrowed until the next `submit`:
//!
//! ```
//! use urpsm::prelude::*;
//!
//! let scenario = ScenarioBuilder::named("live")
//!     .grid_city(6, 6)
//!     .workers(2)
//!     .requests(8)
//!     .cancel_rate(0.2)
//!     .fleet_churn(1, 1)
//!     .seed(7)
//!     .build();
//! let mut service = urpsm::service(&scenario, Box::new(PruneGreedyDp::new()));
//! for event in scenario.event_stream() {
//!     for reply in service.submit(event) {
//!         // react: push to a socket, log, update a dashboard …
//!         let _ = reply;
//!     }
//! }
//! let outcome = service.drain();
//! assert!(outcome.audit_errors.is_empty());
//! ```
//!
//! ## One-shot quickstart
//!
//! For pre-recorded, arrival-only streams, [`simulate`] is the same
//! loop in a single call: it submits each arrival to the service, then
//! drains.
//!
//! ```
//! use urpsm::prelude::*;
//!
//! // A tiny 6x6 grid city with 2 workers and a handful of requests.
//! let scenario = ScenarioBuilder::named("quickstart")
//!     .grid_city(6, 6)
//!     .workers(2)
//!     .requests(8)
//!     .seed(7)
//!     .build();
//! let mut planner = PruneGreedyDp::new();
//! let outcome = urpsm::simulate(&scenario, &mut planner);
//! assert_eq!(outcome.metrics.served + outcome.metrics.rejected, 8);
//! assert!(outcome.audit_errors.is_empty());
//! ```
#![forbid(unsafe_code)]

pub use road_network as network;
pub use urpsm_baselines as baselines;
pub use urpsm_core as core;
pub use urpsm_dispatch as dispatch;
pub use urpsm_obs as obs;
pub use urpsm_server as server;
pub use urpsm_simulator as simulator;
pub use urpsm_workloads as workloads;

use urpsm_core::event::PlatformEvent;
use urpsm_core::planner::Planner;
use urpsm_core::types::Time;
use urpsm_dispatch::service::{ShardConfig, ShardedService};
use urpsm_server::server::sim_config;
use urpsm_simulator::engine::SimOutcome;
use urpsm_simulator::service::MobilityService;
use urpsm_workloads::scenario::Scenario;

/// Opens a [`MobilityService`] over a [`Scenario`]'s oracle, fleet and
/// platform parameters, ready to consume the scenario's
/// [`Scenario::event_stream`] (or any other event feed). The service
/// clock starts at the first event's time.
pub fn service<'p>(scenario: &Scenario, planner: Box<dyn Planner + 'p>) -> MobilityService<'p> {
    open(scenario, planner, scenario.start_time())
}

fn open<'p>(
    scenario: &Scenario,
    planner: Box<dyn Planner + 'p>,
    start_time: Time,
) -> MobilityService<'p> {
    MobilityService::new(
        scenario.oracle.clone(),
        scenario.workers.clone(),
        planner,
        sim_config(scenario),
        start_time,
    )
}

/// Opens a geo-sharded [`ShardedService`] over a [`Scenario`]: the city
/// is partitioned into `shards` territories (clamped to ≥ 1), each
/// owning its own platform and a planner built by `planners(shard_id)`,
/// with the Borrow probe handing idle border workers across seams. At one shard this is byte-identical to
/// [`service`]'s plain `MobilityService` (pinned by
/// `tests/shard_equivalence.rs`).
pub fn sharded<'p, F>(scenario: &Scenario, shards: usize, planners: F) -> ShardedService<'p>
where
    F: FnMut(usize) -> Box<dyn Planner + 'p>,
{
    ShardedService::new(
        scenario.oracle.clone(),
        scenario.workers.clone(),
        planners,
        ShardConfig {
            shards,
            sim: sim_config(scenario),
        },
        scenario.start_time(),
    )
}

/// Runs `planner` over a [`Scenario`]'s arrival-only request stream in
/// one shot: a [`MobilityService`] opened at the first request's
/// release takes each request as a
/// [`PlatformEvent::RequestArrived`], in order, then drains.
/// Cancellation / churn extras on the scenario are ignored here, and
/// so are their times for the clock's start; feed
/// [`Scenario::event_stream`] through [`service`] to replay those.
pub fn simulate(scenario: &Scenario, planner: &mut dyn Planner) -> SimOutcome {
    let start_time = scenario.requests.first().map_or(0, |r| r.release);
    let mut service = open(scenario, Box::new(planner), start_time);
    for r in &scenario.requests {
        service.submit(PlatformEvent::RequestArrived(*r));
    }
    service.drain()
}

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::{service, sharded, simulate};
    pub use road_network::prelude::*;
    pub use urpsm_baselines::prelude::*;
    pub use urpsm_core::prelude::*;
    pub use urpsm_dispatch::prelude::*;
    pub use urpsm_server::prelude::*;
    pub use urpsm_simulator::prelude::*;
    pub use urpsm_workloads::prelude::*;
}
