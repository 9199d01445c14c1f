//! Cell execution: run one (city, parameter, algorithm) cell and
//! collect the three paper panels plus query/memory statistics; and
//! the one min-of-N timer every micro-benchmark command uses.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use road_network::oracle::{CountingOracle, DistanceOracle, QueryStats};
use urpsm_baselines::batch::BatchPlanner;
use urpsm_baselines::kinetic::{KineticConfig, KineticPlanner};
use urpsm_baselines::tshare::TSharePlanner;
use urpsm_core::event::PlatformEvent;
use urpsm_core::planner::{GreedyDp, Planner, PlannerConfig, PruneGreedyDp};
use urpsm_core::types::{Request, Worker};
use urpsm_dispatch::service::{ShardConfig, ShardedService};
use urpsm_simulator::engine::SimConfig;

/// The five algorithms of §6, in the paper's legend order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// T-Share (ICDE'13).
    TShare,
    /// Kinetic tree (VLDB'14).
    Kinetic,
    /// pruneGreedyDP (the paper's solution, Algo. 5).
    PruneGreedyDp,
    /// Batch (PNAS'17).
    Batch,
    /// GreedyDP (no Lemma 8 pruning).
    GreedyDp,
}

impl Algo {
    /// All five, legend order.
    pub const ALL: [Algo; 5] = [
        Algo::TShare,
        Algo::Kinetic,
        Algo::PruneGreedyDp,
        Algo::Batch,
        Algo::GreedyDp,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::TShare => "tshare",
            Algo::Kinetic => "kinetic",
            Algo::PruneGreedyDp => "pruneGreedyDP",
            Algo::Batch => "batch",
            Algo::GreedyDp => "GreedyDP",
        }
    }

    /// Instantiates the planner with the cell's objective weight `α`.
    pub fn planner(self, alpha: u64) -> Box<dyn Planner> {
        match self {
            Algo::TShare => Box::new(TSharePlanner::new()),
            Algo::Kinetic => Box::new(KineticPlanner::from_config(KineticConfig {
                alpha,
                node_budget: 50_000,
            })),
            Algo::Batch => Box::new(BatchPlanner::new()),
            Algo::GreedyDp => Box::new(GreedyDp::from_config(PlannerConfig {
                alpha,
                ..PlannerConfig::default()
            })),
            Algo::PruneGreedyDp => Box::new(PruneGreedyDp::from_config(PlannerConfig {
                alpha,
                ..PlannerConfig::default()
            })),
        }
    }
}

/// One cell's inputs: a fleet, a stream, the platform parameters.
#[derive(Clone)]
pub struct Cell {
    /// Shared (possibly cached) oracle.
    pub oracle: Arc<dyn DistanceOracle>,
    /// The fleet for this cell.
    pub workers: Vec<Worker>,
    /// The stream for this cell.
    pub requests: Vec<Request>,
    /// The platform parameters of the run: grid size `g`, objective
    /// weight `α`, and the congestion profile, TD oracle and class
    /// table, which the cell constructors leave at their free-flow,
    /// homogeneous defaults and the congestion and fleet tables set.
    pub sim: SimConfig,
    /// Geo-sharding: the cell runs through a `ShardedService` with
    /// this many shards, the Borrow probe handing workers across seams.
    /// `0` (what the cell constructors set) and `1` are the same run:
    /// one shard, the paper's single dispatcher.
    pub shards: usize,
}

/// One cell's measured outputs.
pub struct CellResult {
    /// Unified cost (Eq. 1).
    pub unified_cost: u64,
    /// `|R⁺| / |R|`.
    pub served_rate: f64,
    /// Mean wall-clock per request.
    pub response_time: Duration,
    /// Shortest-distance / path query counters (planner-issued).
    pub queries: QueryStats,
    /// Index memory (tshare: the worker grid plus its sorted cell
    /// order; others: the worker grid alone).
    pub index_mem_bytes: usize,
    /// Served requests per vehicle class (one entry for a homogeneous
    /// fleet; indexed by `ClassId` otherwise).
    pub per_class_served: Vec<usize>,
    /// Audit verdict (must be empty).
    pub audit_errors: Vec<String>,
}

/// Runs one `(cell, algorithm)` pair through a `ShardedService` of
/// `cell.shards.max(1)` shards, each planning with its own instance of
/// `algo`'s planner under the default `Borrow` seams. One shard is the
/// paper's single dispatcher, byte for byte
/// (`tests/shard_equivalence.rs`), and issues no seam probe, so the
/// §6.2 query counts are those of a directly fed `MobilityService`.
pub fn run_cell(cell: &Cell, algo: Algo) -> CellResult {
    let counting: Arc<CountingOracle<Arc<dyn DistanceOracle>>> =
        Arc::new(CountingOracle::new(cell.oracle.clone()));
    // Streams out of the workload generators are sorted by construction.
    let start_time = cell.requests.first().map_or(0, |r| r.release);
    let mut service = ShardedService::new(
        counting.clone(),
        cell.workers.clone(),
        |_| algo.planner(cell.sim.alpha),
        ShardConfig {
            shards: cell.shards,
            sim: cell.sim.clone(),
        },
        start_time,
    );
    for r in &cell.requests {
        service.submit(PlatformEvent::RequestArrived(*r));
    }
    let out = service.drain();
    // Index memory: every planner reads the platform's worker grid;
    // tshare also pays for its `O(C²)` sorted cell order over it.
    let index_mem_bytes = out
        .shards
        .iter()
        .map(|s| match algo {
            Algo::TShare => TSharePlanner::index_mem_bytes(&s.outcome.state),
            _ => s.outcome.state.grid().mem_bytes(),
        })
        .sum();
    CellResult {
        unified_cost: out.metrics.unified_cost.value(),
        served_rate: out.metrics.served_rate(),
        response_time: out.metrics.response_time(),
        queries: counting.stats(),
        index_mem_bytes,
        per_class_served: out.metrics.per_class.iter().map(|c| c.served).collect(),
        audit_errors: out.audit_errors,
    }
}

/// Rounds [`min_ns_per_call`] times; it reports the fastest.
pub const TIMING_ROUNDS: usize = 5;

/// The shortest a timed round may be: a round of fewer calls is
/// doubled until it lasts this long.
const MIN_ROUND: Duration = Duration::from_millis(50);

/// Times `f(0), f(1), …, f(calls − 1)` in [`TIMING_ROUNDS`] rounds and
/// returns the fastest round's nanoseconds per call. `calls` starts at
/// `min_calls` and doubles until one round lasts 50 ms, which
/// also warms `f` up; the minimum is the round least disturbed by the
/// rest of the machine. `f` gets the call's index, so a caller cycles
/// through its inputs with `i % len`.
pub fn min_ns_per_call<O>(min_calls: usize, mut f: impl FnMut(usize) -> O) -> f64 {
    let mut round = |calls: usize| {
        let t = Instant::now();
        for i in 0..calls {
            black_box(f(i));
        }
        t.elapsed()
    };
    let mut calls = min_calls.max(1);
    while round(calls) < MIN_ROUND {
        calls *= 2;
    }
    (0..TIMING_ROUNDS)
        .map(|_| round(calls).as_nanos() as f64 / calls as f64)
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::CityFixture;
    use urpsm_workloads::scenario::City;

    #[test]
    fn run_cell_produces_clean_results_for_every_algo() {
        let fx = CityFixture::build(City::ChengduLike, 40, 1);
        let cell = fx.cell(8, 4, 60_000, 10, 2_000.0);
        for algo in Algo::ALL {
            let res = run_cell(&cell, algo);
            assert!(
                res.audit_errors.is_empty(),
                "{}: {:?}",
                algo.name(),
                res.audit_errors
            );
            assert!(res.served_rate >= 0.0 && res.served_rate <= 1.0);
            assert!(res.queries.dis > 0, "{} issued no queries", algo.name());
        }
    }

    #[test]
    fn min_ns_per_call_cycles_from_index_zero_and_reports_a_time() {
        let (mut first, mut calls) = ([usize::MAX; 4], 0);
        let ns = min_ns_per_call(3, |i| {
            if calls < first.len() {
                first[calls] = i;
            }
            calls += 1;
        });
        assert_eq!(first, [0, 1, 2, 0]);
        assert!(ns > 0.0 && ns.is_finite());
    }

    #[test]
    fn zero_and_one_shard_are_the_same_run_and_more_stay_clean() {
        let fx = CityFixture::build(City::ChengduLike, 40, 1);
        let mut cell = fx.cell(8, 4, 60_000, 10, 2_000.0);
        let zero = run_cell(&cell, Algo::PruneGreedyDp);
        cell.shards = 1;
        let one = run_cell(&cell, Algo::PruneGreedyDp);
        assert_eq!(one.unified_cost, zero.unified_cost);
        assert_eq!(one.queries.dis, zero.queries.dis);
        cell.shards = 4;
        let four = run_cell(&cell, Algo::PruneGreedyDp);
        assert!(four.audit_errors.is_empty(), "{:?}", four.audit_errors);
    }
}
