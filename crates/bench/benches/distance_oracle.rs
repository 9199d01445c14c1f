//! Shortest-distance engines (§6.1's infrastructure): plain Dijkstra
//! vs hub labels vs hub labels behind the distance cache, on a grid city;
//! then the hub-label index itself on the two ring-city presets
//! (Chengdu 24×48, the metropolis 48×96).
//!
//! Three gates run on each ring city before any timing:
//!
//! * **exact** — the labels equal Dijkstra from 32 sampled sources to
//!   every vertex;
//! * **paths** — from the same sources, every label path is an edge
//!   walk whose cost equals Dijkstra's distance;
//! * **small** — the average label size is under the preset's ceiling
//!   (100 for Chengdu, 200 for the metropolis; the degree order the
//!   coverage order replaced gave 189.4 and 708.9).
//!
//! Each ring row reports label entries, average label size, index
//! bytes (the parent column included) and the best-of-3 build seconds
//! in the artifact's `meta`, and times the bare label query
//! (`query/…`) and a warm LRU hit (`lru_hit/…`) on the same hotspot
//! mix, and a label path between graph neighbours
//! (`path/neighbours/…`) and between uniformly random vertices
//! (`path/random/…`).
//!
//! Run with `--json BENCH_hub_labels.json` to write the artifact.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use road_network::cache::LruCachedOracle;
use road_network::dijkstra::DijkstraEngine;
use road_network::graph::RoadNetwork;
use road_network::hub_labels::HubLabels;
use road_network::oracle::{DijkstraOracle, DistanceOracle, HubLabelOracle};
use road_network::{Cost, VertexId};
use urpsm_workloads::network_gen::{grid_city, ring_radial_city};

/// The ring-city presets: name, rings, spokes and the ceiling on the
/// average label size. Ring spacing is the presets' 600 m.
const RING_CITIES: [(&str, usize, usize, f64); 2] = [
    ("chengdu-24x48", 24, 48, 100.0),
    ("metropolis-48x96", 48, 96, 200.0),
];

/// A Zipf-ish query mix: 20% of vertices get 80% of the traffic, like
/// hotspot-heavy taxi demand.
fn hotspot_mix(n: u32, count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
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
            (VertexId(pick(&mut rng)), VertexId(pick(&mut rng)))
        })
        .collect()
}

/// 4 096 path-query pairs: a uniformly random vertex and one of its
/// graph neighbours, or two uniformly random vertices.
fn path_pairs(g: &RoadNetwork, neighbours: bool, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.num_vertices() as u32;
    (0..4_096)
        .map(|_| {
            let u = VertexId(rng.gen_range(0..n));
            let v = if neighbours {
                let adjacent: Vec<VertexId> = g.neighbors(u).map(|(v, _)| v).collect();
                adjacent[rng.gen_range(0..adjacent.len())]
            } else {
                VertexId(rng.gen_range(0..n))
            };
            (u, v)
        })
        .collect()
}

/// The cost of `path` as a walk over `g`'s edges; `None` if a hop is
/// not an edge.
fn walk_cost(g: &RoadNetwork, path: &[VertexId]) -> Option<Cost> {
    path.windows(2).try_fold(0, |sum, hop| {
        g.neighbors(hop[0])
            .filter(|&(v, _)| v == hop[1])
            .map(|(_, c)| c)
            .min()
            .map(|c| sum + c)
    })
}

fn bench_oracles(c: &mut Criterion) {
    let g = Arc::new(grid_city(40, 40, 400.0, 1));
    let dij = DijkstraOracle::new(g.clone());
    let hub = HubLabelOracle::build(g.clone());
    let cached = LruCachedOracle::new(HubLabelOracle::build(g.clone()), 1 << 18, 0);
    let queries = hotspot_mix(g.num_vertices() as u32, 4_096, 7);

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

fn bench_ring_labels(c: &mut Criterion) {
    for (name, rings, spokes, ceiling) in RING_CITIES {
        let g = ring_radial_city(rings, spokes, 600.0);
        let n = g.num_vertices() as u32;
        let mut build_s = f64::INFINITY;
        let mut labels = None;
        for _ in 0..3 {
            let t = Instant::now();
            labels = Some(HubLabels::build(&g));
            build_s = build_s.min(t.elapsed().as_secs_f64());
        }
        let labels = labels.expect("built three times");

        let mut e = DijkstraEngine::for_network(&g);
        for s in (0..32).map(|k| VertexId(k * n / 32)) {
            e.sssp(&g, s);
            for v in g.vertices() {
                assert_eq!(labels.distance(s, v), e.dist_to(v), "{name}: ({s}, {v})");
                let path = labels.path(s, v).expect("the ring city is connected");
                assert_eq!(
                    walk_cost(&g, &path),
                    Some(e.dist_to(v)),
                    "{name}: path ({s}, {v}) is not a shortest edge walk"
                );
            }
        }
        let avg = labels.avg_label_size();
        assert!(
            avg <= ceiling,
            "{name}: {avg:.1} entries per vertex, ceiling {ceiling}"
        );
        eprintln!(
            "gate [{name}]: labels == Dijkstra and label paths are shortest edge walks \
             from 32 sources; {avg:.1} entries per vertex \
             (ceiling {ceiling}); built in {build_s:.3} s"
        );
        c.metadata(format!("{name}/vertices"), n);
        c.metadata(format!("{name}/entries"), labels.num_entries());
        c.metadata(format!("{name}/avg_label_size"), format!("{avg:.1}"));
        c.metadata(format!("{name}/mem_bytes"), labels.mem_bytes());
        c.metadata(format!("{name}/build_s"), format!("{build_s:.3}"));

        let queries = hotspot_mix(n, 4_096, 7);
        let neighbours = path_pairs(&g, true, 11);
        let random = path_pairs(&g, false, 13);
        let cached = LruCachedOracle::new(
            HubLabelOracle::from_labels(Arc::new(g), labels.clone()),
            1 << 18,
            0,
        );
        for &(u, v) in &queries {
            cached.dis(u, v);
        }
        let mut group = c.benchmark_group("hub_labels");
        group.bench_function(format!("query/{name}"), |b| {
            let mut i = 0;
            b.iter(|| {
                let (u, v) = queries[i % queries.len()];
                i += 1;
                labels.distance(u, v)
            })
        });
        group.bench_function(format!("lru_hit/{name}"), |b| {
            let mut i = 0;
            b.iter(|| {
                let (u, v) = queries[i % queries.len()];
                i += 1;
                cached.dis(u, v)
            })
        });
        for (kind, pairs) in [("neighbours", &neighbours), ("random", &random)] {
            group.bench_function(format!("path/{kind}/{name}"), |b| {
                let mut i = 0;
                b.iter(|| {
                    let (u, v) = pairs[i % pairs.len()];
                    i += 1;
                    labels.path(u, v)
                })
            });
        }
        group.finish();
    }
}

fn attach_metrics(c: &mut Criterion) {
    // Embed the metrics snapshot in the --json artifact (all zeros unless
    // built with --features urpsm-obs/record and the URPSM_OBS gate open).
    c.raw_section("metrics_snapshot", urpsm_bench::obs_snapshot_json());
}

criterion_group!(benches, bench_oracles, bench_ring_labels, attach_metrics);
criterion_main!(benches);
