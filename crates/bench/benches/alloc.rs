//! The allocation gate for the planning hot path.
//!
//! With `--features alloc-count` this bench installs the counting
//! global allocator ([`urpsm_bench::alloc_track`]) and measures the
//! exact number of heap allocations inside `planner.on_request` for
//! every planner, in steady state: warmed scratch arenas, reserved
//! bookkeeping containers, routes held at the ≤ 8-stop inline regime
//! by draining stops *between* (never inside) measured regions, and the
//! clock moved past the drained arrivals, so every idle candidate is
//! probed through its re-timed copy (the lazy idle clock).
//!
//! The gate: a steady-state planned insertion under `GreedyDP` and
//! `pruneGreedyDP` performs **zero** allocations —
//! free flow *and* under the chengdu-2peak congestion profile (whose
//! stretched-feasibility re-check runs on the scratch probe route), on
//! the drained fleet above and on an idle-heavy one (one worker in
//! sixteen holds a standing trip through every request, the rest are
//! idle), so the DP engine's shortlist both collects busy candidates
//! and streams idle ones cell by cell. Every way to build a DP planner
//! is gated, `PruneGreedyDp::with_threads` (whose width is a no-op)
//! included. The three baselines are measured and reported but not
//! gated.
//!
//! Without the feature the bench compiles to a no-op so a plain
//! `cargo bench` never fails; CI runs the gated configuration
//! explicitly. `--json <path>` writes a `BENCH_alloc.json`-style
//! artifact with the per-planner table.

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: urpsm_bench::alloc_track::CountingAllocator =
    urpsm_bench::alloc_track::CountingAllocator;

#[cfg(not(feature = "alloc-count"))]
fn main() {
    eprintln!(
        "alloc bench: skipped (counting allocator not installed); \
         run with `cargo bench -p urpsm-bench --features alloc-count --bench alloc`"
    );
}

#[cfg(feature = "alloc-count")]
fn main() {
    gated::main();
}

#[cfg(feature = "alloc-count")]
mod gated {
    use std::sync::Arc;

    use road_network::congestion::{CongestionProfile, HOUR_CS};
    use road_network::matrix::MatrixOracle;
    use road_network::{Cost, VertexId};
    use urpsm_bench::alloc_track;
    use urpsm_bench::harness::Algo;
    use urpsm_core::insertion::linear_dp_insertion;
    use urpsm_core::planner::{Planner, PruneGreedyDp};
    use urpsm_core::platform::{Outcome, PlatformState};
    use urpsm_core::route::Route;
    use urpsm_core::types::{ClassConstraint, ClassId, Request, RequestId, Time, Worker, WorkerId};

    /// Streets on a line, 150 cs of travel per metre-spaced vertex.
    const VERTICES: usize = 512;
    /// Grid cell size: 26 cells along the line.
    const CELL_M: f64 = 20.0;
    /// Unmeasured requests that grow every arena to its steady size.
    const WARMUP: usize = 256;
    /// Measured steady-state requests per (planner, profile) run.
    const MEASURED: usize = 512;
    /// The congested runs straddle the 08:00 peak, like the congestion
    /// bench and `tests/congestion_equivalence.rs`.
    const RUSH_SHIFT: Time = 7 * HOUR_CS + HOUR_CS / 2;

    /// The fleet a run plans against, between two requests.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub enum Fleet {
        /// 64 workers, every route drained.
        Drained,
        /// 256 workers; every 16th holds a standing trip, the rest are
        /// drained — 93.75 % idle.
        IdleHeavy,
    }

    impl Fleet {
        fn name(self) -> &'static str {
            match self {
                Fleet::Drained => "drained",
                Fleet::IdleHeavy => "idle-heavy",
            }
        }

        fn workers(self) -> u32 {
            match self {
                Fleet::Drained => 64,
                Fleet::IdleHeavy => 256,
            }
        }

        /// Whether `w` keeps a trip through every measured request.
        fn busy(self, w: WorkerId) -> bool {
            self == Fleet::IdleHeavy && w.0 % 16 == 0
        }
    }

    /// One (planner, profile, fleet) row of the report.
    pub struct Row {
        pub planner: &'static str,
        pub profile: &'static str,
        pub fleet: &'static str,
        pub requests: usize,
        pub served: usize,
        pub total_allocs: u64,
        pub max_allocs: u64,
        pub gated: bool,
    }

    impl Row {
        fn allocs_per_request(&self) -> f64 {
            self.total_allocs as f64 / self.requests as f64
        }
    }

    fn line_oracle() -> Arc<MatrixOracle> {
        let rows: Vec<Vec<Cost>> = (0..VERTICES)
            .map(|u| {
                (0..VERTICES)
                    .map(|v| (u.abs_diff(v) as Cost) * 150)
                    .collect()
            })
            .collect();
        let points = (0..VERTICES)
            .map(|k| road_network::geo::Point::new(k as f64, 0.0))
            .collect();
        Arc::new(MatrixOracle::from_matrix(&rows, points, 1.0))
    }

    fn workers(fleet: Fleet) -> Vec<Worker> {
        let spacing = VERTICES as u32 / fleet.workers();
        (0..fleet.workers())
            .map(|i| Worker {
                id: WorkerId(i),
                origin: VertexId(i * spacing),
                capacity: 4,
                class: ClassId::STANDARD,
            })
            .collect()
    }

    /// The `i`-th steady-state request, released at `now`: a short hop
    /// near one of the first 64 workers' spots, roomy deadline, penalty
    /// high enough that the economic gate always admits it — every
    /// request is a *planned insertion*, which is what the gate is
    /// about.
    fn request(i: usize, now: Time) -> Request {
        const SPOTS: u32 = 64;
        let spacing = VERTICES as u32 / SPOTS;
        let base = (i as u32 % SPOTS) * spacing;
        let origin = base + 1 + (i as u32 / SPOTS) % 3;
        Request {
            id: RequestId(i as u32),
            origin: VertexId(origin),
            destination: VertexId(origin + 4),
            release: now,
            deadline: now + 2_000_000,
            penalty: u64::MAX / 4,
            capacity: 1,
            class: ClassConstraint::Any,
        }
    }

    /// Returns every worker's route to empty/idle, then moves the clock
    /// past the last arrival it drained — every idle worker is then
    /// behind the clock, so the next request's probes meet the lazy
    /// idle clock ([`PlatformState::candidate`]'s re-timed copy). Runs
    /// *between* measured regions, so its allocations (grid upserts,
    /// the completed-request set) never count — exactly like the motion
    /// plane draining stops between two request arrivals.
    ///
    /// Then every worker `fleet` keeps busy takes a standing trip from
    /// where it stands to the far end of the line.
    fn drain_routes(state: &mut PlatformState, fleet: Fleet, next_id: &mut u32) {
        let mut last = state.now();
        for i in 0..fleet.workers() {
            let w = WorkerId(i);
            while !state.head(w).idle {
                last = last.max(state.pop_worker_stop(w).1);
            }
        }
        state.advance_clock(last + 1);
        let mut spare = Route::default();
        for i in 0..fleet.workers() {
            let w = WorkerId(i);
            if !fleet.busy(w) {
                continue;
            }
            let (route, capacity) = state.candidate(w, &mut spare);
            let from = route.start_vertex();
            let to = VertexId(if from.idx() < VERTICES / 2 {
                VERTICES as u32 - 1
            } else {
                0
            });
            let mut trip = request(0, state.now());
            (trip.id, trip.origin, trip.destination) = (RequestId(*next_id), from, to);
            *next_id += 1;
            let plan = linear_dp_insertion(route, capacity, &trip, state.oracle())
                .expect("a standing trip fits an idle worker");
            state.commit(w, &trip, &plan);
        }
    }

    /// The row of `algo`'s planner as the harness builds it; the DP
    /// planners are gated.
    fn algo_row(algo: Algo, profile: &'static str, fleet: Fleet) -> Row {
        let gated = matches!(algo, Algo::GreedyDp | Algo::PruneGreedyDp);
        run(algo.name(), algo.planner(1, 2_000.0), gated, profile, fleet)
    }

    fn run(
        label: &'static str,
        mut planner: Box<dyn Planner>,
        gated: bool,
        profile: &'static str,
        fleet: Fleet,
    ) -> Row {
        let oracle = line_oracle();
        let workers = workers(fleet);
        let shift = if profile == "free-flow" {
            0
        } else {
            RUSH_SHIFT
        };
        let mut state = PlatformState::new(oracle, &workers, CELL_M, shift);
        if profile != "free-flow" {
            state.set_congestion(Some(Arc::new(CongestionProfile::chengdu_two_peak())));
        }
        state.reserve_request_capacity(WARMUP + MEASURED);

        // Standing trips take request ids above every measured one.
        let mut next_id = (WARMUP + MEASURED) as u32;
        drain_routes(&mut state, fleet, &mut next_id);

        // Warmup: grow every scratch arena, candidate buffer, hash-map
        // table and shortlist column to its steady-state size.
        for i in 0..WARMUP {
            let r = request(i, state.now());
            planner.on_request(&mut state, &r);
            planner.flush(&mut state);
            drain_routes(&mut state, fleet, &mut next_id);
        }

        let mut served = 0usize;
        let mut total = 0u64;
        let mut max = 0u64;
        for i in 0..MEASURED {
            let r = request(WARMUP + i, state.now());
            let (outs, allocs) = alloc_track::measure(|| planner.on_request(&mut state, &r));
            total += allocs;
            max = max.max(allocs);
            served += outs
                .iter()
                .filter(|(_, o)| matches!(o, Outcome::Assigned { .. }))
                .count();
            // Deferred planners (batch) decide at flush; keep their
            // buffers bounded and their outcomes flowing, uncounted.
            served += planner
                .flush(&mut state)
                .iter()
                .filter(|(_, o)| matches!(o, Outcome::Assigned { .. }))
                .count();
            drain_routes(&mut state, fleet, &mut next_id);
        }

        Row {
            planner: label,
            profile,
            fleet: fleet.name(),
            requests: MEASURED,
            served,
            total_allocs: total,
            max_allocs: max,
            gated,
        }
    }

    /// The PR-8 extension: steady-state time-dependent distance
    /// queries. Two gated rows — warm goal-directed `TdDijkstra`
    /// searches (generation-stamped arenas, reusable heap) and warm
    /// `TdCachedOracle` hits (in-bucket lookups) — both at **zero**
    /// allocations per query. Queries keep `depart + duration` inside
    /// one profile bucket so every second-pass lookup is an exact hit.
    fn td_rows() -> Vec<Row> {
        use road_network::builder::NetworkBuilder;
        use road_network::geo::Point;
        use road_network::hub_labels::HubLabels;
        use road_network::td::{TdCachedOracle, TdDijkstra, TimeDependentOracle, TD_DIS_CACHE};

        let mut b = NetworkBuilder::new();
        for k in 0..VERTICES {
            b.add_vertex(Point::new(k as f64, 0.0));
        }
        for k in 1..VERTICES as u32 {
            b.add_edge_with_cost(VertexId(k - 1), VertexId(k), 150)
                .expect("line edge");
        }
        b.set_top_speed_mps(1.0);
        let g = std::sync::Arc::new(b.finish().expect("line network"));
        let labels = std::sync::Arc::new(HubLabels::build(&g));
        let profile = Arc::new(CongestionProfile::chengdu_two_peak());
        let engine = TdDijkstra::goal_directed(g.clone(), profile.clone(), labels.clone());
        let cached = TdCachedOracle::new(
            TdDijkstra::goal_directed(g, profile.clone(), labels),
            &profile,
            TD_DIS_CACHE,
        );

        // Short hops inside the 07–08h bucket: durations (≤ 31 edges,
        // ≤ 1.3× stretched) never spill past the bucket end, so the
        // cache's exactness rule admits every entry.
        let queries: Vec<(VertexId, VertexId, Time)> = (0..MEASURED)
            .map(|i| {
                let u = (i * 7) % VERTICES;
                let v = (u + 1 + (i % 31)).min(VERTICES - 1);
                let depart = RUSH_SHIFT + (i as Time % 997) * 100;
                (VertexId(u as u32), VertexId(v as u32), depart)
            })
            .filter(|(u, v, _)| u != v)
            .collect();

        // Warmup: size every arena and fill the cache.
        for &(u, v, t) in &queries {
            engine.dis_at(u, v, t);
            cached.dis_at(u, v, t);
        }

        let mut rows = Vec::new();
        let (mut served, mut total, mut max) = (0usize, 0u64, 0u64);
        for &(u, v, t) in &queries {
            let (d, allocs) = alloc_track::measure(|| engine.dis_at(u, v, t));
            total += allocs;
            max = max.max(allocs);
            served += usize::from(d < road_network::INF);
        }
        rows.push(Row {
            planner: "td-astar (search)",
            profile: "chengdu-2peak",
            fleet: "-",
            requests: queries.len(),
            served,
            total_allocs: total,
            max_allocs: max,
            gated: true,
        });

        let (mut served, mut total, mut max) = (0usize, 0u64, 0u64);
        for &(u, v, t) in &queries {
            let (d, allocs) = alloc_track::measure(|| cached.dis_at(u, v, t));
            total += allocs;
            max = max.max(allocs);
            served += usize::from(d < road_network::INF);
        }
        rows.push(Row {
            planner: "td-cache (hit)",
            profile: "chengdu-2peak",
            fleet: "-",
            requests: queries.len(),
            served,
            total_allocs: total,
            max_allocs: max,
            gated: true,
        });
        rows
    }

    fn write_json(path: &str, rows: &[Row]) {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut out = format!(
            "{{\n  \"bench\": \"alloc\",\n  \"meta\": {{\"available_parallelism\": {cpus}}},\n  \"results\": [\n"
        );
        for (i, row) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"planner\": \"{}\", \"profile\": \"{}\", \"fleet\": \"{}\", \
                 \"requests\": {}, \"served\": {}, \"allocs_per_request\": {:.4}, \
                 \"max_allocs\": {}, \"gated\": {}}}{}\n",
                row.planner,
                row.profile,
                row.fleet,
                row.requests,
                row.served,
                row.allocs_per_request(),
                row.max_allocs,
                row.gated,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        // Embed the metrics snapshot (all zeros unless built with
        // --features urpsm-obs/record and the URPSM_OBS gate open).
        out.push_str(&format!(
            "  ],\n  \"metrics_snapshot\": {}\n}}\n",
            urpsm_bench::obs_snapshot_json()
        ));
        std::fs::write(path, out).expect("write --json artifact");
        eprintln!("alloc bench: wrote {path}");
    }

    pub fn main() {
        // Criterion-compatible argument surface: swallow harness flags,
        // honor `--json <path>`.
        let mut json: Option<String> = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--json" => json = args.next(),
                "--measurement-time" | "--warm-up-time" | "--sample-size" => {
                    args.next();
                }
                _ => {}
            }
        }

        let mut rows = Vec::new();
        for profile in ["free-flow", "chengdu-2peak"] {
            for algo in Algo::ALL {
                rows.push(algo_row(algo, profile, Fleet::Drained));
            }
            for algo in [Algo::PruneGreedyDp, Algo::GreedyDp] {
                rows.push(algo_row(algo, profile, Fleet::IdleHeavy));
            }
            // The no-op width knob builds the same allocation-free
            // planner.
            let planner = Box::new(PruneGreedyDp::with_threads(4));
            rows.push(run(
                "with_threads(4)",
                planner,
                true,
                profile,
                Fleet::Drained,
            ));
        }
        // Steady-state TD distance queries (PR 8): gated at zero, like
        // the planners above.
        rows.extend(td_rows());

        eprintln!(
            "{:<14} {:<14} {:<10} {:>8} {:>14} {:>11} {:>6}",
            "planner", "profile", "fleet", "served", "allocs/request", "max/request", "gate"
        );
        let mut failures = Vec::new();
        for row in &rows {
            let verdict = if !row.gated {
                "-"
            } else if row.total_allocs == 0 {
                "PASS"
            } else {
                "FAIL"
            };
            eprintln!(
                "{:<14} {:<14} {:<10} {:>8} {:>14.4} {:>11} {:>6}",
                row.planner,
                row.profile,
                row.fleet,
                format!("{}/{}", row.served, row.requests),
                row.allocs_per_request(),
                row.max_allocs,
                verdict
            );
            if row.gated {
                // The gate is only meaningful if the measured regions
                // really were planned insertions, not rejections.
                assert_eq!(
                    row.served, row.requests,
                    "{} ({}, {}) must serve every steady-state request",
                    row.planner, row.profile, row.fleet
                );
                if row.total_allocs != 0 {
                    failures.push(format!(
                        "{} ({}, {}): {} allocations over {} planned insertions (max {}/request)",
                        row.planner,
                        row.profile,
                        row.fleet,
                        row.total_allocs,
                        row.requests,
                        row.max_allocs
                    ));
                }
            }
        }

        if let Some(path) = json {
            write_json(&path, &rows);
        }

        if !failures.is_empty() {
            eprintln!("zero-allocation gate FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        eprintln!("zero-allocation gate passed: steady-state planned insertions allocate nothing");
    }
}
