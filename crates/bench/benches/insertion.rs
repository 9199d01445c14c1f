//! The paper's complexity claim (§4): basic insertion is `O(n³)`,
//! naive DP `O(n²)`, linear DP `O(n)` in the route length `n`.
//! Sweep `n` and watch the three curves separate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use road_network::matrix::MatrixOracle;
use road_network::{Cost, VertexId};
use urpsm_core::insertion::{
    basic_insertion, linear_dp_insertion_with, naive_dp_insertion, InsertionScratch,
};
use urpsm_core::route::Route;
use urpsm_core::types::{Request, RequestId};

/// 1-D metric with 100 cs per index step; roomy deadlines so every
/// position is feasible and the operators do maximal work.
fn line_oracle(n: usize) -> MatrixOracle {
    let rows: Vec<Vec<Cost>> = (0..n)
        .map(|u| (0..n).map(|v| (u.abs_diff(v) as Cost) * 100).collect())
        .collect();
    let points = (0..n)
        .map(|k| road_network::geo::Point::new(k as f64, 0.0))
        .collect();
    MatrixOracle::from_matrix(&rows, points, 1.0)
}

fn request(id: u32, o: u32, d: u32) -> Request {
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

/// Builds a route with `n` stops (n/2 nested ride pairs).
fn route_with_stops(n: usize, oracle: &MatrixOracle) -> Route {
    let mut route = Route::new(VertexId(0), 0);
    let pairs = n / 2;
    for i in 0..pairs {
        let o = (i * 13) % 400;
        let d = (o + 17 + i) % 400;
        let r = request(i as u32, o as u32, d as u32);
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
    assert_eq!(route.len(), pairs * 2);
    route
}

fn bench_insertion(c: &mut Criterion) {
    let oracle = line_oracle(512);
    let probe = request(9_999, 111, 222);
    let mut group = c.benchmark_group("insertion_operator");
    for &n in &[4usize, 8, 16, 32, 64, 128] {
        let route = route_with_stops(n, &oracle);
        group.bench_with_input(BenchmarkId::new("basic_O(n^3)", n), &route, |b, route| {
            b.iter(|| basic_insertion(route, u32::MAX, &probe, &oracle))
        });
        group.bench_with_input(
            BenchmarkId::new("naive_dp_O(n^2)", n),
            &route,
            |b, route| b.iter(|| naive_dp_insertion(route, u32::MAX, &probe, &oracle)),
        );
        let mut scratch = InsertionScratch::default();
        group.bench_with_input(BenchmarkId::new("linear_dp_O(n)", n), &route, |b, route| {
            b.iter(|| linear_dp_insertion_with(&mut scratch, route, u32::MAX, &probe, &oracle))
        });
    }
    group.finish();
}

fn attach_metrics(c: &mut Criterion) {
    // Embed the metrics snapshot in the --json artifact (all zeros unless
    // built with --features urpsm-obs/record and the URPSM_OBS gate open).
    c.raw_section("metrics_snapshot", urpsm_bench::obs_snapshot_json());
}

criterion_group!(benches, bench_insertion, attach_metrics);
criterion_main!(benches);
