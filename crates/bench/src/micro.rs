//! The micro-benchmark commands of the `experiments` binary: the
//! distance oracles (`oracle`), the time-dependent engines
//! (`oracle-td`) and the §4 insertion operators (`complexity`).
//!
//! Each checks its gates before it times anything and panics if one
//! fails. Every timing is [`min_ns_per_call`]'s fastest of
//! [`crate::harness::TIMING_ROUNDS`] rounds. `oracle` and `oracle-td`
//! return the JSON document committed as `BENCH_hub_labels.json` and
//! `BENCH_oracle_td.json`: the run's counts in `meta`, the timings in
//! `results` (`min_ns` per call).

use std::fmt::Display;
use std::io::Write;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use road_network::cache::LruCachedOracle;
use road_network::congestion::{CongestionProfile, TravelTimeProvider, HOUR_CS};
use road_network::dijkstra::DijkstraEngine;
use road_network::graph::RoadNetwork;
use road_network::hub_labels::HubLabels;
use road_network::matrix::MatrixOracle;
use road_network::oracle::{DijkstraOracle, DistanceOracle, HubLabelOracle};
use road_network::td::{TdCachedOracle, TdDijkstra, TimeDependentOracle, TD_DIS_CACHE};
use road_network::{Cost, VertexId};
use urpsm_core::insertion::{
    basic_insertion, linear_dp_insertion_with, naive_dp_insertion, InsertionScratch,
};
use urpsm_core::route::Route;
use urpsm_core::types::{Request, RequestId};
use urpsm_workloads::network_gen::{grid_city, ring_radial_city};

use crate::fixtures::core_jam_profile;
use crate::harness::{min_ns_per_call, TIMING_ROUNDS};
use crate::table::Table;

/// A `BENCH_*.json` document: facts about the run in `meta`, one
/// min-of-N timing per benchmark id in `results`.
struct Doc {
    meta: Vec<(String, String)>,
    results: Vec<(String, f64)>,
}

impl Doc {
    /// An empty document whose `meta` opens with the host's logical CPU
    /// count, so a timing can be judged against the parallelism it had.
    fn new() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        Doc {
            meta: vec![("available_parallelism".into(), cpus.to_string())],
            results: Vec::new(),
        }
    }

    fn meta(&mut self, key: impl Into<String>, value: impl Display) {
        self.meta.push((key.into(), value.to_string()));
    }

    /// Times `f` over `calls` inputs (see [`min_ns_per_call`]) as `id`.
    fn time<O>(&mut self, id: impl Into<String>, calls: usize, f: impl FnMut(usize) -> O) {
        let id = id.into();
        let ns = min_ns_per_call(calls, f);
        eprintln!("{id:<48} {ns:>12.1} ns");
        self.results.push((id, ns));
    }

    /// The JSON text, with the metrics snapshot (all zeros unless built
    /// with `urpsm-obs/record` and the `URPSM_OBS` gate open) appended.
    fn render(&self) -> String {
        let meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("    \"{k}\": \"{v}\""))
            .collect();
        let results: Vec<String> = self
            .results
            .iter()
            .map(|(id, ns)| format!("    {{\"id\": \"{id}\", \"min_ns\": {ns:.1}}}"))
            .collect();
        format!(
            "{{\n  \"meta\": {{\n{}\n  }},\n  \"results\": [\n{}\n  ],\n  \"metrics_snapshot\": {}\n}}\n",
            meta.join(",\n"),
            results.join(",\n"),
            crate::obs_snapshot_json()
        )
    }
}

// ───────────────────────── oracle ─────────────────────────

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

/// Shortest-distance engines (§6.1's infrastructure): plain Dijkstra vs
/// hub labels vs hub labels behind the distance cache, on a grid city;
/// then the hub-label index itself on the two ring-city presets
/// (Chengdu 24×48, the metropolis 48×96).
///
/// Three gates run on each ring city before any timing:
///
/// * **exact** — the labels equal Dijkstra from 32 sampled sources to
///   every vertex;
/// * **paths** — from the same sources, every label path is an edge
///   walk whose cost equals Dijkstra's distance;
/// * **small** — the average label size is under the preset's ceiling
///   (100 for Chengdu, 200 for the metropolis; the degree order the
///   coverage order replaced gave 189.4 and 708.9).
///
/// Each ring city records its label entries, average label size, index
/// bytes (the parent column included) and the min-of-N build seconds in
/// `meta`, and times the bare label query (`query/…`) and a warm cache
/// hit (`lru_hit/…`) on the same hotspot mix, and a label path between
/// graph neighbours (`path/neighbours/…`) and between uniformly random
/// vertices (`path/random/…`). Returns `BENCH_hub_labels.json`.
pub fn oracle() -> String {
    let mut doc = Doc::new();
    let g = Arc::new(grid_city(40, 40, 400.0, 1));
    let dij = DijkstraOracle::new(g.clone());
    let hub = HubLabelOracle::build(g.clone());
    let cached = LruCachedOracle::new(HubLabelOracle::build(g.clone()), 1 << 18, 0);
    let queries = hotspot_mix(g.num_vertices() as u32, 4_096, 7);
    let q = |i: usize| queries[i % queries.len()];
    doc.time("distance_oracle/dijkstra", queries.len(), |i| {
        let (u, v) = q(i);
        dij.dis(u, v)
    });
    doc.time("distance_oracle/hub_labels", queries.len(), |i| {
        let (u, v) = q(i);
        hub.dis(u, v)
    });
    doc.time("distance_oracle/hub_labels_lru", queries.len(), |i| {
        let (u, v) = q(i);
        cached.dis(u, v)
    });

    for (name, rings, spokes, ceiling) in RING_CITIES {
        let g = ring_radial_city(rings, spokes, 600.0);
        let n = g.num_vertices() as u32;
        let labels = HubLabels::build(&g);
        let build_s = min_ns_per_call(1, |_| HubLabels::build(&g)) / 1e9;

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
        doc.meta(format!("{name}/vertices"), n);
        doc.meta(format!("{name}/entries"), labels.num_entries());
        doc.meta(format!("{name}/avg_label_size"), format!("{avg:.1}"));
        doc.meta(format!("{name}/mem_bytes"), labels.mem_bytes());
        doc.meta(format!("{name}/build_s"), format!("{build_s:.3}"));

        let queries = hotspot_mix(n, 4_096, 7);
        let q = |i: usize| queries[i % queries.len()];
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
        doc.time(format!("hub_labels/query/{name}"), queries.len(), |i| {
            let (u, v) = q(i);
            labels.distance(u, v)
        });
        doc.time(format!("hub_labels/lru_hit/{name}"), queries.len(), |i| {
            let (u, v) = q(i);
            cached.dis(u, v)
        });
        for (kind, pairs) in [("neighbours", &neighbours), ("random", &random)] {
            doc.time(format!("hub_labels/path/{kind}/{name}"), pairs.len(), |i| {
                let (u, v) = pairs[i % pairs.len()];
                labels.path(u, v)
            });
        }
    }
    doc.render()
}

// ───────────────────────── oracle-td ─────────────────────────

/// Rush-hour query mix: hotspot-heavy endpoints (like the demand
/// generator's taxi hotspots), departures inside the 07–09h and
/// 17–19h peaks where the two-peak multipliers actually bite.
fn td_query_mix(n: u32, count: usize, seed: u64) -> Vec<(VertexId, VertexId, u64)> {
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

/// Time-dependent distance engines (DESIGN.md §10): undirected
/// TD-Dijkstra vs goal-directed TD-A\* (static hub-label free-flow
/// potentials) vs the time-bucketed [`TdCachedOracle`], on the
/// Chengdu-like fixture at flat and two-peak profiles.
///
/// Two gates run before any timing:
///
/// * **flat identity** — with the identity profile, every engine
///   reproduces the static hub-label distance bit for bit over 512
///   sampled pairs;
/// * **expansion reduction** — on the rush-hour query mix under the
///   region-structured two-peak profile (the downtown core jams, the
///   suburbs stay near free flow — how Chengdu actually congests) the
///   goal-directed search settles ≥ 5× fewer nodes than undirected
///   TD-Dijkstra, and both agree on every distance. The uniform
///   city-wide two-peak number ships alongside it: when the *whole*
///   city stretches 1.7×, free-flow potentials are loose everywhere and
///   the reduction legitimately shrinks to ≈ 2.6×.
///
/// Returns `BENCH_oracle_td.json`: settled counts, the reductions and
/// the warm cache's hits and misses in `meta`.
pub fn oracle_td() -> String {
    let mut doc = Doc::new();
    // The Chengdu fixture's road network (requests/fleet are not
    // needed here — only the graph and its hub labels).
    let scenario = urpsm_workloads::scenario::chengdu_like(1)
        .requests(1)
        .workers(1)
        .build();
    let g = scenario.network.clone();
    let n = g.num_vertices() as u32;
    let labels = Arc::new(HubLabels::build(&g));
    let queries = td_query_mix(n, 4_096, 7);

    let flat = Arc::new(CongestionProfile::flat());
    let peak = Arc::new(CongestionProfile::chengdu_two_peak());
    let core = Arc::new(core_jam_profile(&g));

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

    // Gate 2: the goal-directed engine settles ≥ 5× fewer nodes on the
    // rush-hour mix under the core-jam profile. Both engines must agree
    // on every distance while we count.
    let settled = |profile: &Arc<CongestionProfile>| {
        let plain = TdDijkstra::new(g.clone(), profile.clone());
        let astar = TdDijkstra::goal_directed(g.clone(), profile.clone(), labels.clone());
        for &(u, v, depart) in &queries {
            assert_eq!(
                plain.dis_at(u, v, depart),
                astar.dis_at(u, v, depart),
                "goal direction changed a distance at {u:?}->{v:?}@{depart}"
            );
        }
        let (sp, sa) = (plain.stats().settled, astar.stats().settled);
        let reduction = sp as f64 / (sa as f64).max(1.0);
        eprintln!(
            "expansions [{}]: plain settled {sp} vs goal-directed {sa} over {} queries ({reduction:.1}x)",
            profile.name(),
            queries.len()
        );
        (sp, sa, reduction)
    };
    let (core_plain, core_astar, reduction) = settled(&core);
    let (_, _, reduction_uniform) = settled(&peak);
    assert!(
        reduction >= 5.0,
        "goal-directed TD-A* must settle >=5x fewer nodes (got {reduction:.2}x)"
    );
    doc.meta("queries", queries.len());
    doc.meta("vertices", n);
    doc.meta("settled/td_dijkstra", core_plain);
    doc.meta("settled/td_astar", core_astar);
    doc.meta("expansion_reduction", format!("{reduction:.2}"));
    doc.meta(
        "expansion_reduction_uniform_2peak",
        format!("{reduction_uniform:.2}"),
    );

    let plain = TdDijkstra::new(g.clone(), core.clone());
    let astar = TdDijkstra::goal_directed(g.clone(), core.clone(), labels.clone());
    let cached = TdCachedOracle::new(
        TdDijkstra::goal_directed(g.clone(), core.clone(), labels.clone()),
        &core,
        TD_DIS_CACHE,
    );

    // Warm the cache with two passes so the timed cached runs measure
    // steady state; ship the resulting hit rates.
    for _ in 0..2 {
        for &(u, v, depart) in &queries {
            cached.dis_at(u, v, depart);
        }
    }
    let (hits, misses) = cached.dis_hit_stats();
    let hit_rate = hits as f64 / ((hits + misses) as f64).max(1.0);
    eprintln!(
        "cache: {hits} hits / {misses} misses ({:.1}% hit rate)",
        hit_rate * 100.0
    );
    doc.meta("cache/dis_hits", hits);
    doc.meta("cache/dis_misses", misses);
    doc.meta("cache/dis_hit_rate", format!("{hit_rate:.4}"));

    // The flat A* path short-circuits to a hub-label lookup — timing it
    // pins the "TD costs nothing until a profile is on" story.
    let astar_flat = TdDijkstra::goal_directed(g.clone(), flat, labels);
    let engines: [(&str, &dyn TimeDependentOracle); 4] = [
        ("td_dijkstra/2peak-core", &plain),
        ("td_astar/2peak-core", &astar),
        ("td_cached/2peak-core", &cached),
        ("td_astar/flat", &astar_flat),
    ];
    for (id, engine) in engines {
        doc.time(format!("oracle_td/{id}"), queries.len(), |i| {
            let (u, v, t) = queries[i % queries.len()];
            engine.dis_at(u, v, t)
        });
    }
    doc.render()
}

// ───────────────────────── complexity ─────────────────────────

/// 1-D metric with 100 cs per index step.
fn line_oracle(n: usize) -> MatrixOracle {
    let rows: Vec<Vec<Cost>> = (0..n)
        .map(|u| (0..n).map(|v| (u.abs_diff(v) as Cost) * 100).collect())
        .collect();
    let points = (0..n)
        .map(|k| road_network::geo::Point::new(k as f64, 0.0))
        .collect();
    MatrixOracle::from_matrix(&rows, points, 1.0)
}

/// A ride with a roomy deadline, so every position is feasible and
/// the operators do maximal work.
fn ride(id: u32, o: u32, d: u32) -> Request {
    Request {
        class: Default::default(),
        id: RequestId(id),
        origin: VertexId(o),
        destination: VertexId(d),
        release: 0,
        deadline: u64::MAX / 8,
        penalty: 1,
        capacity: 1,
    }
}

/// A route with `n` stops (n/2 nested ride pairs).
fn route_with_stops(n: usize, oracle: &MatrixOracle) -> Route {
    let mut route = Route::new(VertexId(0), 0);
    for i in 0..n / 2 {
        let o = (i * 13) % 400;
        let d = (o + 17 + i) % 400;
        let r = ride(i as u32, o as u32, d as u32);
        let plan = linear_dp_insertion_with(
            &mut InsertionScratch::default(),
            &route,
            u32::MAX,
            &r,
            oracle,
        )
        .expect("roomy deadline is always insertable");
        route.apply_insertion(&plan, &r);
    }
    assert_eq!(route.len(), n / 2 * 2);
    route
}

/// The paper's complexity claim (§4): basic insertion is `O(n³)`, naive
/// DP `O(n²)`, linear DP `O(n)` in the route length `n`. Sweeps `n` and
/// prints one row per route length, so the three curves separate down
/// the columns.
pub fn complexity(out: &mut impl Write) {
    let oracle = line_oracle(512);
    let probe = ride(9_999, 111, 222);
    let mut t = Table::new(
        format!(
            "§4 — insertion operator time per call vs route length n (min of {TIMING_ROUNDS} rounds)"
        ),
        &["n", "basic O(n³)", "naive DP O(n²)", "linear DP O(n)"],
    );
    let mut scratch = InsertionScratch::default();
    for n in [4usize, 8, 16, 32, 64, 128] {
        let route = route_with_stops(n, &oracle);
        let basic = min_ns_per_call(1, |_| basic_insertion(&route, u32::MAX, &probe, &oracle));
        let naive = min_ns_per_call(1, |_| naive_dp_insertion(&route, u32::MAX, &probe, &oracle));
        let linear = min_ns_per_call(1, |_| {
            linear_dp_insertion_with(&mut scratch, &route, u32::MAX, &probe, &oracle)
        });
        let us = |ns: f64| format!("{:.2} µs", ns / 1_000.0);
        t.push(vec![n.to_string(), us(basic), us(naive), us(linear)]);
    }
    t.render(out).expect("stdout");
}
