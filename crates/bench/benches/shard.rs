//! Shard-scaling of the geo-sharded dispatch plane (DESIGN.md §6): one
//! iteration = one full simulation of the *unscaled* Chengdu-like
//! stream under `pruneGreedyDP`, swept over the shard count K.
//!
//! Unlike the `parallel` bench (whose determinism gate demands
//! byte-identical outcomes at every width), sharding legitimately
//! trades quality for locality at K > 1 — so the gate here is split:
//! K = 1 must reproduce the direct single-service run *exactly*, and
//! every K must be audit-clean with its quality delta printed, not
//! hidden. The wall-clock column is the scaling story: each shard
//! plans against its own slice of the fleet, so the per-request
//! candidate shortlists (the planning hot path) shrink roughly by K
//! even on one core.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use urpsm_bench::fixtures::CityFixture;
use urpsm_bench::harness::{run_cell, Algo, Cell};
use urpsm_core::event::PlatformEvent;
use urpsm_simulator::service::MobilityService;
use urpsm_workloads::scenario::City;

/// The shard counts of the BENCH_NOTES.md scaling table.
const SHARDS: [usize; 4] = [1, 2, 4, 8];

fn scaled_cell(fx: &CityFixture) -> Cell {
    let s = &fx.sweep;
    // Largest fleet, 25-minute deadlines: the same wide-shortlist
    // full-scale stream as the `parallel` bench, so the two tables
    // compare one hot path under two orthogonal scaling axes.
    fx.cell(
        *s.workers.values.last().expect("non-empty axis"),
        s.capacity.default_value(),
        25 * urpsm_workloads::MINUTE_CS,
        s.penalty_factor.default_value(),
        s.grid_m.default_value(),
    )
}

/// The reference of gate 1: the cell's stream fed straight into one
/// `MobilityService`, no dispatch plane in front. Returns
/// `(unified cost, served rate)`.
fn direct_run(cell: &Cell) -> (u64, f64) {
    let mut service = MobilityService::new(
        cell.oracle.clone(),
        cell.workers.clone(),
        Algo::PruneGreedyDp.planner(cell.sim.alpha, cell.sim.grid_cell_m),
        cell.sim.clone(),
        cell.requests.first().map_or(0, |r| r.release),
    );
    for r in &cell.requests {
        service.submit(PlatformEvent::RequestArrived(*r));
    }
    let out = service.drain();
    assert!(out.audit_errors.is_empty(), "{:?}", out.audit_errors);
    (out.metrics.unified_cost.value(), out.metrics.served_rate())
}

fn bench_shard_scaling(c: &mut Criterion) {
    let fx = CityFixture::build(City::ChengduLike, 1, 1);
    let mut cell = scaled_cell(&fx);

    // Gate 1: one shard reproduces the direct path exactly (the merged
    // log determines both numbers, so equality means identical runs).
    let direct = direct_run(&cell);
    cell.shards = 1;
    let one = run_cell(&cell, Algo::PruneGreedyDp);
    assert_eq!(
        (one.unified_cost, one.served_rate),
        direct,
        "K = 1 diverged from the direct single-service run"
    );

    // Gate 2: every K is audit-clean; quality deltas are printed.
    for shards in SHARDS {
        cell.shards = shards;
        let res = run_cell(&cell, Algo::PruneGreedyDp);
        assert!(
            res.audit_errors.is_empty(),
            "K = {shards}: {:?}",
            res.audit_errors
        );
        eprintln!(
            "K={shards}: served {:.1}% (direct {:.1}%), UC {} (direct {})",
            res.served_rate * 100.0,
            direct.1 * 100.0,
            res.unified_cost,
            direct.0
        );
    }

    let mut group = c.benchmark_group("shard_scaling");
    group.sample_size(10);
    for shards in SHARDS {
        cell.shards = shards;
        let cell_ref = &cell;
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, _| {
            b.iter(|| run_cell(cell_ref, Algo::PruneGreedyDp))
        });
    }
    group.finish();
}

fn attach_metrics(c: &mut Criterion) {
    // Embed the metrics snapshot in the --json artifact (all zeros unless
    // built with --features urpsm-obs/record and the URPSM_OBS gate open).
    c.raw_section("metrics_snapshot", urpsm_bench::obs_snapshot_json());
}

criterion_group!(benches, bench_shard_scaling, attach_metrics);
criterion_main!(benches);
