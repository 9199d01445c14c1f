//! Time-dependent travel times on the planning hot path (DESIGN.md
//! §7): one iteration = one full simulation of the *unscaled*
//! Chengdu-like stream — shifted into the morning rush — under
//! `pruneGreedyDP`, free-flow vs. the two-peak congestion profile.
//!
//! Two gates run before any timing:
//!
//! * the **flat** profile must reproduce the free-flow run *exactly*
//!   (unified cost and served rate are read off the same merged log,
//!   so equality means identical runs — the bench-scale twin of
//!   `tests/congestion_equivalence.rs`);
//! * the **two-peak** run must be audit-clean, with its quality delta
//!   printed rather than hidden (congestion legitimately costs served
//!   rate under fixed deadlines; schedules stretch, economics don't).
//!
//! The timing story is overhead: every re-timed leg walks the profile's
//! bucket integration instead of adding a constant, and every probed
//! plan that could win pays one `O(n)` stretched-feasibility walk at
//! the gate.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use road_network::congestion::{CongestionProfile, HOUR_CS};
use urpsm_bench::fixtures::CityFixture;
use urpsm_bench::harness::{run_cell, Algo, Cell};
use urpsm_workloads::scenario::City;

/// The full-scale cell, shifted so the stream straddles the 08:00 peak
/// (the fixture's raw stream starts at midnight, where the two-peak
/// profile is free flow).
fn rush_hour_cell(fx: &CityFixture) -> Cell {
    let s = &fx.sweep;
    let mut cell = fx.cell(
        *s.workers.values.last().expect("non-empty axis"),
        s.capacity.default_value(),
        25 * urpsm_workloads::MINUTE_CS,
        s.penalty_factor.default_value(),
        s.grid_m.default_value(),
    );
    let shift = 7 * HOUR_CS + HOUR_CS / 2;
    for r in &mut cell.requests {
        r.release += shift;
        r.deadline += shift;
    }
    cell
}

fn bench_congestion(c: &mut Criterion) {
    let fx = CityFixture::build(City::ChengduLike, 1, 1);
    let mut cell = rush_hour_cell(&fx);

    // Gate 1: the flat profile is the identity.
    let free = run_cell(&cell, Algo::PruneGreedyDp);
    assert!(free.audit_errors.is_empty(), "{:?}", free.audit_errors);
    cell.sim.congestion = Some(Arc::new(CongestionProfile::flat()));
    let flat = run_cell(&cell, Algo::PruneGreedyDp);
    assert_eq!(
        (flat.unified_cost, flat.served_rate),
        (free.unified_cost, free.served_rate),
        "flat profile diverged from the free-flow run"
    );

    // Gate 2: the congested run is audit-clean; deltas are printed.
    cell.sim.congestion = Some(Arc::new(CongestionProfile::chengdu_two_peak()));
    let peak = run_cell(&cell, Algo::PruneGreedyDp);
    assert!(peak.audit_errors.is_empty(), "{:?}", peak.audit_errors);
    eprintln!(
        "chengdu-2peak: served {:.1}% (free {:.1}%), UC {} (free {})",
        peak.served_rate * 100.0,
        free.served_rate * 100.0,
        peak.unified_cost,
        free.unified_cost
    );
    // Quality numbers travel with the timings in the --json artifact.
    c.metadata("free-flow/served_rate", format!("{:.4}", free.served_rate));
    c.metadata("free-flow/unified_cost", free.unified_cost);
    c.metadata(
        "chengdu-2peak/served_rate",
        format!("{:.4}", peak.served_rate),
    );
    c.metadata("chengdu-2peak/unified_cost", peak.unified_cost);

    let mut group = c.benchmark_group("congestion");
    group.sample_size(10);
    for (label, profile) in [
        ("free-flow", None),
        (
            "chengdu-2peak",
            Some(Arc::new(CongestionProfile::chengdu_two_peak())),
        ),
    ] {
        cell.sim.congestion = profile;
        let cell_ref = &cell;
        group.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
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

criterion_group!(benches, bench_congestion, attach_metrics);
criterion_main!(benches);
