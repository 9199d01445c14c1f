//! Time-dependent distance engines (DESIGN.md §10): undirected
//! TD-Dijkstra vs goal-directed TD-A* (static hub-label free-flow
//! potentials) vs the time-bucketed [`TdCachedOracle`], on the
//! Chengdu-like fixture at flat and two-peak profiles.
//!
//! Two gates run before any timing:
//!
//! * **flat identity** — with the identity profile, every engine must
//!   reproduce the static hub-label distance bit for bit over a
//!   sampled pair set (the bench-scale twin of
//!   `tests/td_equivalence.rs`);
//! * **expansion reduction** — on the rush-hour query mix under the
//!   region-structured two-peak profile (the downtown core jams, the
//!   suburbs stay near free flow — how Chengdu actually congests) the
//!   goal-directed search must settle ≥5× fewer nodes than undirected
//!   TD-Dijkstra (the PR's headline number, recorded in the `--json`
//!   artifact as `expansion_reduction`). The uniform city-wide
//!   two-peak number ships alongside it: when the *whole* city
//!   stretches 1.7×, free-flow potentials are loose everywhere and the
//!   reduction legitimately shrinks to ~2.6×.
//!
//! Run with `--json BENCH_oracle_td.json` to ship hit rates, settled
//! counts and `available_parallelism` alongside the timings.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use road_network::congestion::{CongestionProfile, HOUR_CS};
use road_network::hub_labels::HubLabels;
use road_network::td::{
    TdCachedOracle, TdDijkstra, TimeDependentOracle, TD_DIS_CACHE, TD_PATH_CACHE,
};
use road_network::VertexId;

/// Rush-hour query mix: hotspot-heavy endpoints (like the demand
/// generator's taxi hotspots), departures inside the 07–09h and
/// 17–19h peaks where the two-peak multipliers actually bite.
fn query_mix(n: u32, count: usize, seed: u64) -> Vec<(VertexId, VertexId, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hot: Vec<u32> = (0..(n / 5).max(1)).map(|_| rng.gen_range(0..n)).collect();
    (0..count)
        .map(|_| {
            let pick = |rng: &mut StdRng| {
                if rng.gen_bool(0.8) {
                    hot[rng.gen_range(0..hot.len())]
                } else {
                    rng.gen_range(0..n)
                }
            };
            let u = pick(&mut rng);
            let mut v = pick(&mut rng);
            while v == u {
                v = pick(&mut rng);
            }
            let depart = if rng.gen_bool(0.5) {
                7 * HOUR_CS + rng.gen_range(0..2 * HOUR_CS)
            } else {
                17 * HOUR_CS + rng.gen_range(0..2 * HOUR_CS)
            };
            (VertexId(u), VertexId(v), depart)
        })
        .collect()
}

fn bench_oracle_td(c: &mut Criterion) {
    // The Chengdu fixture's road network (requests/fleet are not
    // needed here — only the graph and its hub labels).
    let scenario = urpsm_workloads::scenario::chengdu_like(1)
        .requests(1)
        .workers(1)
        .build();
    let g = scenario.network.clone();
    let n = g.num_vertices() as u32;
    let labels = Arc::new(HubLabels::build(&g));
    let queries = query_mix(n, 4_096, 7);

    let flat = Arc::new(CongestionProfile::flat());
    let peak = Arc::new(CongestionProfile::chengdu_two_peak());
    let core = Arc::new(urpsm_bench::fixtures::core_jam_profile(&g));

    // Gate 1: flat identity, bit for bit, for every engine. The plain
    // engine actually runs its search (no flat shortcut without
    // potentials), so this pins the TD metric itself, not a bypass.
    {
        let plain = TdDijkstra::new(g.clone(), flat.clone());
        let astar = TdDijkstra::goal_directed(g.clone(), flat.clone(), labels.clone());
        let cached = TdCachedOracle::new(
            TdDijkstra::goal_directed(g.clone(), flat.clone(), labels.clone()),
            &flat,
            TD_DIS_CACHE,
            TD_PATH_CACHE,
        );
        for &(u, v, depart) in &queries[..512] {
            let want = labels.distance(u, v);
            assert_eq!(plain.dis_at(u, v, depart), want, "plain flat {u:?}->{v:?}");
            assert_eq!(astar.dis_at(u, v, depart), want, "astar flat {u:?}->{v:?}");
            assert_eq!(
                cached.dis_at(u, v, depart),
                want,
                "cached flat {u:?}->{v:?}"
            );
        }
        eprintln!("gate: flat TD == static hub labels over 512 sampled pairs");
    }

    // Gate 2: the goal-directed engine settles ≥5× fewer nodes on the
    // rush-hour mix under the core-jam profile — the acceptance number
    // this PR ships. Both engines must agree on every distance while
    // we count.
    let measure = |profile: &Arc<CongestionProfile>| {
        let plain = TdDijkstra::new(g.clone(), profile.clone());
        let astar = TdDijkstra::goal_directed(g.clone(), profile.clone(), labels.clone());
        for (u, v, depart) in queries.iter().copied() {
            assert_eq!(
                plain.dis_at(u, v, depart),
                astar.dis_at(u, v, depart),
                "goal direction changed a distance at {u:?}->{v:?}@{depart}"
            );
        }
        let (sp, sa) = (plain.stats(), astar.stats());
        let reduction = sp.settled as f64 / (sa.settled as f64).max(1.0);
        eprintln!(
            "expansions [{}]: plain settled {} vs goal-directed {} over {} queries ({reduction:.1}x)",
            road_network::congestion::TravelTimeProvider::name(profile.as_ref()),
            sp.settled,
            sa.settled,
            queries.len()
        );
        (sp.settled, sa.settled, reduction)
    };
    let (core_plain, core_astar, reduction) = measure(&core);
    let (_, _, reduction_uniform) = measure(&peak);
    assert!(
        reduction >= 5.0,
        "goal-directed TD-A* must settle >=5x fewer nodes (got {reduction:.2}x)"
    );
    c.metadata("queries", queries.len());
    c.metadata("vertices", n);
    c.metadata("settled/td_dijkstra", core_plain);
    c.metadata("settled/td_astar", core_astar);
    c.metadata("expansion_reduction", format!("{reduction:.2}"));
    c.metadata(
        "expansion_reduction_uniform_2peak",
        format!("{reduction_uniform:.2}"),
    );

    let plain = TdDijkstra::new(g.clone(), core.clone());
    let astar = TdDijkstra::goal_directed(g.clone(), core.clone(), labels.clone());
    let cached = TdCachedOracle::new(
        TdDijkstra::goal_directed(g.clone(), core.clone(), labels.clone()),
        &core,
        TD_DIS_CACHE,
        TD_PATH_CACHE,
    );

    // Warm the cache with one pass so the timed cached runs measure
    // steady state; ship the resulting hit rates.
    for &(u, v, depart) in &queries {
        cached.dis_at(u, v, depart);
    }
    for &(u, v, depart) in &queries {
        cached.dis_at(u, v, depart);
    }
    let (hits, misses) = cached.dis_hit_stats();
    let hit_rate = hits as f64 / ((hits + misses) as f64).max(1.0);
    eprintln!(
        "cache: {hits} hits / {misses} misses ({:.1}% hit rate)",
        hit_rate * 100.0
    );
    c.metadata("cache/dis_hits", hits);
    c.metadata("cache/dis_misses", misses);
    c.metadata("cache/dis_hit_rate", format!("{hit_rate:.4}"));

    let mut group = c.benchmark_group("oracle_td");
    group.bench_function("td_dijkstra/2peak-core", |b| {
        let mut i = 0;
        b.iter(|| {
            let (u, v, t) = queries[i % queries.len()];
            i += 1;
            plain.dis_at(u, v, t)
        })
    });
    group.bench_function("td_astar/2peak-core", |b| {
        let mut i = 0;
        b.iter(|| {
            let (u, v, t) = queries[i % queries.len()];
            i += 1;
            astar.dis_at(u, v, t)
        })
    });
    group.bench_function("td_cached/2peak-core", |b| {
        let mut i = 0;
        b.iter(|| {
            let (u, v, t) = queries[i % queries.len()];
            i += 1;
            cached.dis_at(u, v, t)
        })
    });
    // The flat A* path short-circuits to a hub-label lookup — timing
    // it pins the "TD costs nothing until a profile is on" story.
    let astar_flat = TdDijkstra::goal_directed(g.clone(), flat.clone(), labels.clone());
    group.bench_function("td_astar/flat", |b| {
        let mut i = 0;
        b.iter(|| {
            let (u, v, t) = queries[i % queries.len()];
            i += 1;
            astar_flat.dis_at(u, v, t)
        })
    });
    group.finish();
}

fn attach_metrics(c: &mut Criterion) {
    // Embed the metrics snapshot in the --json artifact (all zeros unless
    // built with --features urpsm-obs/record and the URPSM_OBS gate open).
    c.raw_section("metrics_snapshot", urpsm_bench::obs_snapshot_json());
}

criterion_group!(benches, bench_oracle_td, attach_metrics);
criterion_main!(benches);
