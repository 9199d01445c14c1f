//! Shortest-distance engines (§6.1's infrastructure): plain Dijkstra
//! vs hub labels vs hub labels behind the LRU cache, on a grid city.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use road_network::cache::LruCachedOracle;
use road_network::oracle::{DijkstraOracle, DistanceOracle, HubLabelOracle};
use road_network::VertexId;
use urpsm_workloads::network_gen::grid_city;

fn bench_oracles(c: &mut Criterion) {
    let g = Arc::new(grid_city(40, 40, 400.0, 1));
    let n = g.num_vertices() as u32;
    let dij = DijkstraOracle::new(g.clone());
    let hub = HubLabelOracle::build(g.clone());
    let cached = LruCachedOracle::new(HubLabelOracle::build(g.clone()), 1 << 18, 1 << 10);

    // A Zipf-ish query mix: 20% of vertices get 80% of the traffic,
    // like hotspot-heavy taxi demand.
    let mut rng = StdRng::seed_from_u64(7);
    let hot: Vec<u32> = (0..n / 5).map(|_| rng.gen_range(0..n)).collect();
    let queries: Vec<(VertexId, VertexId)> = (0..4_096)
        .map(|_| {
            let pick = |rng: &mut StdRng| {
                if rng.gen_bool(0.8) {
                    hot[rng.gen_range(0..hot.len())]
                } else {
                    rng.gen_range(0..n)
                }
            };
            (VertexId(pick(&mut rng)), VertexId(pick(&mut rng)))
        })
        .collect();

    let mut group = c.benchmark_group("distance_oracle");
    group.bench_function("dijkstra", |b| {
        let mut i = 0;
        b.iter(|| {
            let (u, v) = queries[i % queries.len()];
            i += 1;
            dij.dis(u, v)
        })
    });
    group.bench_function("hub_labels", |b| {
        let mut i = 0;
        b.iter(|| {
            let (u, v) = queries[i % queries.len()];
            i += 1;
            hub.dis(u, v)
        })
    });
    group.bench_function("hub_labels_lru", |b| {
        let mut i = 0;
        b.iter(|| {
            let (u, v) = queries[i % queries.len()];
            i += 1;
            cached.dis(u, v)
        })
    });
    group.finish();
}

fn attach_metrics(c: &mut Criterion) {
    // Embed the metrics snapshot in the --json artifact (all zeros unless
    // built with --features urpsm-obs/record and the URPSM_OBS gate open).
    c.raw_section("metrics_snapshot", urpsm_bench::obs_snapshot_json());
}

criterion_group!(benches, bench_oracles, attach_metrics);
criterion_main!(benches);
