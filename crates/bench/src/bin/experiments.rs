//! Regenerates every table and figure of §6 of the URPSM paper (plus
//! the §3.3 hardness curves) on the synthetic city stand-ins.
//!
//! ```sh
//! cargo run --release -p urpsm-bench --bin experiments -- all
//! cargo run --release -p urpsm-bench --bin experiments -- fig3 --city nyc --scale 8
//! cargo run --release -p urpsm-bench --bin experiments -- oracle > BENCH_hub_labels.json
//! ```
//!
//! Subcommands: `table4`, `table5`, `fig3` (workers), `fig4` (capacity),
//! `fig5` (grid size + memory), `fig6` (deadline + saved queries),
//! `fig7` (penalty), `queries`, `hardness`, `congestion` (also
//! spelled `--congestion`: rush-hour travel-time deltas under the
//! two-peak profile), `all`. Three micro-benchmark commands are not
//! part of `all`: `oracle` and `oracle-td` print the JSON documents
//! committed as `BENCH_hub_labels.json` and `BENCH_oracle_td.json`, and
//! `complexity` the §4 insertion-operator sweep; each checks its gates
//! first and ignores the options.
//! Options: `--city nyc|chengdu|both` (default both), `--scale N`
//! (divides Table 5's stream/fleet sizes further; default 4),
//! `--seed S`, `--repeats R` (fixtures per figure, averaged; default
//! 1), `--parallel` (run sweep cells concurrently, capped at the
//! hardware thread count — the one place the experiments use more than
//! one core; cells share the fixture's hub labels but each has its own
//! distance cache, so no two threads share a cache and every cell
//! starts cold whatever the order; it distorts response-time panels,
//! fine for shape checks), `--shards K` (run the figure sweeps through
//! the geo-sharded dispatch plane with `K` shards and `Borrow` seams —
//! sharding is allowed to change quality, and the sweep quantifies by
//! how much; the §6.2 `queries` experiment ignores it, so its query
//! counts are those of the paper's single dispatcher). Each request is
//! planned by one sequential scan (DESIGN.md §5 "The scan"), so
//! decisions, costs and `dis()` counts never depend on `--parallel`. A
//! missing or unparsable option value, a zero `--scale` or `--repeats`,
//! or an unknown command, option or city prints the usage line and
//! exits 2.

use std::io::Write;
use std::num::{NonZeroU64, NonZeroUsize};
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use urpsm_bench::fixtures::CityFixture;
use urpsm_bench::harness::{run_cell, Algo, Cell, CellResult};
use urpsm_bench::micro;
use urpsm_bench::table::{human, human_bytes, Table};
use urpsm_workloads::adversary::{AdversaryInstance, Lemma};
use urpsm_workloads::scenario::{City, LRU_CAPACITY};
use urpsm_workloads::sweep::table5;

#[derive(Clone)]
struct Opts {
    cities: Vec<City>,
    scale: usize,
    seed: u64,
    parallel: bool,
    repeats: u64,
    /// Geo-sharding for the figure sweeps (`Cell::shards` semantics:
    /// a `ShardedService` with K shards and `Borrow` seams; 0 and 1
    /// are both the single dispatcher). Sharding legitimately
    /// changes solution quality — the point of sweeping it is to see
    /// by how much.
    shards: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            cities: vec![City::ChengduLike, City::NycLike],
            scale: 4,
            seed: 2018,
            parallel: false,
            repeats: 1,
            shards: 0,
        }
    }
}

const USAGE: &str = "usage: experiments <table4|table5|fig3|fig4|fig5|fig6|fig7|queries|hardness|ablation|congestion|fleet|all|oracle|oracle-td|complexity> [--city nyc|chengdu|both] [--scale N] [--seed S] [--parallel] [--shards K] [--repeats R]";

/// Prints `why` and the usage line, and exits 2.
fn usage_error(why: &str) -> ! {
    eprintln!("{why}\n{USAGE}");
    std::process::exit(2);
}

/// The value of the option at `args[i - 1]`, parsed as `T`. A missing
/// or unparsable value is a usage error (`NonZero*` types reject 0).
fn option_value<T: FromStr>(args: &[String], i: usize) -> T {
    let flag = &args[i - 1];
    match args.get(i) {
        None => usage_error(&format!("{flag} needs a value")),
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("bad value {v:?} for {flag}"))),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage_error("no command given");
    };
    let mut opts = Opts::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--city" => {
                i += 1;
                opts.cities = match args.get(i).map(String::as_str) {
                    Some("nyc") => vec![City::NycLike],
                    Some("chengdu") => vec![City::ChengduLike],
                    Some("both") => vec![City::ChengduLike, City::NycLike],
                    other => usage_error(&format!("unknown city {other:?}")),
                };
            }
            "--scale" => {
                i += 1;
                opts.scale = option_value::<NonZeroUsize>(&args, i).get();
            }
            "--seed" => {
                i += 1;
                opts.seed = option_value(&args, i);
            }
            "--parallel" => opts.parallel = true,
            "--shards" => {
                i += 1;
                opts.shards = option_value(&args, i);
            }
            "--repeats" => {
                i += 1;
                opts.repeats = option_value::<NonZeroU64>(&args, i).get();
            }
            other => usage_error(&format!("unknown option {other}")),
        }
        i += 1;
    }

    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    match cmd.as_str() {
        "table4" => table4(&opts, &mut out),
        "table5" => table5_cmd(&mut out),
        "fig3" => figures(&opts, &mut out, &["fig3"]),
        "fig4" => figures(&opts, &mut out, &["fig4"]),
        "fig5" => figures(&opts, &mut out, &["fig5"]),
        "fig6" => figures(&opts, &mut out, &["fig6"]),
        "fig7" => figures(&opts, &mut out, &["fig7"]),
        "queries" => figures(&opts, &mut out, &["queries"]),
        "hardness" => hardness(&mut out),
        "ablation" => ablation(&opts, &mut out),
        "fleet" => fleet(&opts, &mut out),
        // `--congestion` is accepted as a command spelling so the
        // knob reads like `--shards` on the CLI.
        "congestion" | "--congestion" => congestion(&opts, &mut out),
        "all" => {
            table4(&opts, &mut out);
            table5_cmd(&mut out);
            figures(
                &opts,
                &mut out,
                &["fig3", "fig4", "fig5", "fig6", "fig7", "queries"],
            );
            ablation(&opts, &mut out);
            congestion(&opts, &mut out);
            fleet(&opts, &mut out);
            hardness(&mut out);
        }
        "oracle" => out.write_all(micro::oracle().as_bytes()).expect("stdout"),
        "oracle-td" => out
            .write_all(micro::oracle_td().as_bytes())
            .expect("stdout"),
        "complexity" => micro::complexity(&mut out),
        other => usage_error(&format!("unknown command {other}")),
    }
    out.flush().expect("stdout");
}

// ───────────────────────── Tables 4 & 5 ─────────────────────────

fn table4(opts: &Opts, out: &mut impl Write) {
    let mut t = Table::new(
        "Table 4 — dataset statistics (synthetic stand-ins; paper's originals in brackets)",
        &["Dataset", "#(Requests)", "#(Vertices)", "#(Edges)"],
    );
    for &city in &opts.cities {
        let fx = CityFixture::build(city, opts.scale, opts.seed);
        let paper = match city {
            City::NycLike => ("[517,100]", "[807,795]", "[2,100,632]"),
            City::ChengduLike => ("[259,347]", "[214,440]", "[466,330]"),
        };
        t.push(vec![
            city.name().to_string(),
            format!("{} {}", fx.num_requests(), paper.0),
            format!("{} {}", fx.network.num_vertices(), paper.1),
            format!("{} {}", fx.network.num_edges(), paper.2),
        ]);
    }
    t.render(out).expect("stdout");
}

fn table5_cmd(out: &mut impl Write) {
    for city in [City::ChengduLike, City::NycLike] {
        let s = table5(city);
        let mut t = Table::new(
            format!(
                "Table 5 — parameter settings ({}), defaults marked *",
                city.name()
            ),
            &["Parameter", "Values"],
        );
        let fmt_axis = |name: &str, vals: Vec<String>, def: usize| {
            let vals: Vec<String> = vals
                .into_iter()
                .enumerate()
                .map(|(i, v)| if i == def { format!("{v}*") } else { v })
                .collect();
            (name.to_string(), vals.join(", "))
        };
        let rows = vec![
            fmt_axis(
                s.grid_m.name,
                s.grid_m
                    .values
                    .iter()
                    .map(|v| format!("{}", v / 1_000.0))
                    .collect(),
                s.grid_m.default_idx,
            ),
            fmt_axis(
                s.deadline_cs.name,
                s.deadline_cs
                    .values
                    .iter()
                    .map(|v| format!("{}", v / 6_000))
                    .collect(),
                s.deadline_cs.default_idx,
            ),
            fmt_axis(
                s.capacity.name,
                s.capacity.values.iter().map(u32::to_string).collect(),
                s.capacity.default_idx,
            ),
            ("α".to_string(), format!("{}", s.alpha)),
            fmt_axis(
                s.penalty_factor.name,
                s.penalty_factor.values.iter().map(u64::to_string).collect(),
                s.penalty_factor.default_idx,
            ),
            fmt_axis(
                s.workers.name,
                s.workers.values.iter().map(usize::to_string).collect(),
                s.workers.default_idx,
            ),
        ];
        for (k, v) in rows {
            t.push(vec![k, v]);
        }
        t.render(out).expect("stdout");
    }
}

// ───────────────────────── Figure sweeps ─────────────────────────

struct Axis {
    figure: &'static str,
    label: &'static str,
    ticks: Vec<String>,
    cells: Vec<Cell>,
}

fn axis_for(fig: &str, fx: &CityFixture) -> Axis {
    let s = &fx.sweep;
    let d = (
        s.workers.default_value(),
        s.capacity.default_value(),
        s.deadline_cs.default_value(),
        s.penalty_factor.default_value(),
        s.grid_m.default_value(),
    );
    match fig {
        "fig3" => Axis {
            figure: "Fig. 3",
            label: "|W|",
            ticks: s.workers.values.iter().map(usize::to_string).collect(),
            cells: s
                .workers
                .values
                .iter()
                .map(|&w| fx.cell(w, d.1, d.2, d.3, d.4))
                .collect(),
        },
        "fig4" => Axis {
            figure: "Fig. 4",
            label: "K_w",
            ticks: s.capacity.values.iter().map(u32::to_string).collect(),
            cells: s
                .capacity
                .values
                .iter()
                .map(|&k| fx.cell(d.0, k, d.2, d.3, d.4))
                .collect(),
        },
        "fig5" => Axis {
            figure: "Fig. 5",
            label: "g (km)",
            ticks: s
                .grid_m
                .values
                .iter()
                .map(|g| format!("{}", g / 1_000.0))
                .collect(),
            cells: s
                .grid_m
                .values
                .iter()
                .map(|&g| fx.cell(d.0, d.1, d.2, d.3, g))
                .collect(),
        },
        "fig6" => Axis {
            figure: "Fig. 6",
            label: "e_r (min)",
            ticks: s
                .deadline_cs
                .values
                .iter()
                .map(|v| format!("{}", v / 6_000))
                .collect(),
            cells: s
                .deadline_cs
                .values
                .iter()
                .map(|&e| fx.cell(d.0, d.1, e, d.3, d.4))
                .collect(),
        },
        "fig7" => Axis {
            figure: "Fig. 7",
            label: "p_r (×dis)",
            ticks: s.penalty_factor.values.iter().map(u64::to_string).collect(),
            cells: s
                .penalty_factor
                .values
                .iter()
                .map(|&p| fx.cell(d.0, d.1, d.2, p, d.4))
                .collect(),
        },
        other => panic!("unknown figure {other}"),
    }
}

/// Runs one axis × all algorithms; `results[value][algo]`.
///
/// With `parallel`, cells run concurrently but the number of in-flight
/// cells is capped at the hardware thread count (a sweep axis ×
/// repeats used to spawn one OS thread per cell, oversubscribing small
/// machines): that many scoped threads pull cell indices off one
/// atomic counter, and results are re-ordered by index afterwards.
fn run_axis(axis: &Axis, parallel: bool) -> Vec<Vec<CellResult>> {
    let job = |cell: &Cell| -> Vec<CellResult> {
        Algo::ALL
            .iter()
            .map(|&algo| {
                let res = run_cell(cell, algo);
                assert!(
                    res.audit_errors.is_empty(),
                    "{} audit: {:?}",
                    algo.name(),
                    res.audit_errors
                );
                res
            })
            .collect()
    };
    if parallel {
        let width = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(axis.cells.len());
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut done: Vec<(usize, Vec<CellResult>)> = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = axis.cells.get(i) else {
                    return done;
                };
                done.push((i, job(cell)));
            }
        };
        let parts: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..width).map(|_| scope.spawn(worker)).collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let mut slots: Vec<Option<Vec<CellResult>>> = (0..axis.cells.len()).map(|_| None).collect();
        for (i, res) in parts.into_iter().flatten() {
            slots[i] = Some(res);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every cell ran exactly once"))
            .collect()
    } else {
        axis.cells.iter().map(job).collect()
    }
}

fn figures(opts: &Opts, out: &mut impl Write, figs: &[&str]) {
    for &city in &opts.cities {
        // One fixture per repetition seed, as in §6.1 ("each
        // experimental setting is repeated 30 times and the average
        // results are reported") — every repetition redraws the
        // request stream and the fleet.
        let fixtures: Vec<CityFixture> = (0..opts.repeats)
            .map(|rep| {
                eprintln!(
                    "building fixture for {} (scale ÷{}, seed {})…",
                    city.name(),
                    opts.scale,
                    opts.seed + rep
                );
                CityFixture::build(city, opts.scale, opts.seed + rep)
            })
            .collect();
        for &fig in figs {
            if fig == "queries" {
                queries_experiment(&fixtures[0], out);
                continue;
            }
            let mut mean: Option<Vec<Vec<CellResult>>> = None;
            let mut axis_meta = None;
            for fx in &fixtures {
                let mut axis = axis_for(fig, fx);
                for cell in &mut axis.cells {
                    cell.shards = opts.shards;
                }
                eprintln!("  {} ({}) on {}…", axis.figure, axis.label, city.name());
                let results = run_axis(&axis, opts.parallel);
                mean = Some(match mean {
                    None => results,
                    Some(acc) => accumulate(acc, results),
                });
                axis_meta = Some(axis);
            }
            let axis = axis_meta.expect("at least one repetition");
            let mut results = mean.expect("at least one repetition");
            finish_mean(&mut results, opts.repeats);
            render_panels(&axis, city, &results, fig == "fig5", fig == "fig6", out);
        }
    }
}

/// Element-wise accumulation of per-cell results across repetitions.
fn accumulate(mut acc: Vec<Vec<CellResult>>, next: Vec<Vec<CellResult>>) -> Vec<Vec<CellResult>> {
    for (a_row, n_row) in acc.iter_mut().zip(next) {
        for (a, n) in a_row.iter_mut().zip(n_row) {
            a.unified_cost += n.unified_cost;
            a.served_rate += n.served_rate;
            a.response_time += n.response_time;
            a.queries.dis += n.queries.dis;
            a.queries.path += n.queries.path;
            a.index_mem_bytes = a.index_mem_bytes.max(n.index_mem_bytes);
        }
    }
    acc
}

/// Divides accumulated sums back into means.
fn finish_mean(results: &mut [Vec<CellResult>], repeats: u64) {
    if repeats <= 1 {
        return;
    }
    for row in results.iter_mut() {
        for r in row.iter_mut() {
            r.unified_cost /= repeats;
            r.served_rate /= repeats as f64;
            r.response_time /= repeats as u32;
            r.queries.dis /= repeats;
            r.queries.path /= repeats;
        }
    }
}

fn render_panels(
    axis: &Axis,
    city: City,
    results: &[Vec<CellResult>],
    with_memory: bool,
    with_saved_queries: bool,
    out: &mut impl Write,
) {
    let mut headers: Vec<&str> = vec!["algorithm"];
    headers.extend(axis.ticks.iter().map(String::as_str));

    let mut uc = Table::new(
        format!(
            "{} — unified cost ({}) vs {}",
            axis.figure,
            city.name(),
            axis.label
        ),
        &headers,
    );
    let mut sr = Table::new(
        format!(
            "{} — served rate ({}) vs {}",
            axis.figure,
            city.name(),
            axis.label
        ),
        &headers,
    );
    let mut rt = Table::new(
        format!(
            "{} — response time ({}) vs {}",
            axis.figure,
            city.name(),
            axis.label
        ),
        &headers,
    );
    for (ai, algo) in Algo::ALL.iter().enumerate() {
        let mut r_uc = vec![algo.name().to_string()];
        let mut r_sr = vec![algo.name().to_string()];
        let mut r_rt = vec![algo.name().to_string()];
        for value in results {
            let res = &value[ai];
            r_uc.push(human(res.unified_cost));
            r_sr.push(format!("{:.1}%", res.served_rate * 100.0));
            r_rt.push(format!("{:?}", round_dur(res.response_time)));
        }
        uc.push(r_uc);
        sr.push(r_sr);
        rt.push(r_rt);
    }
    uc.render(out).expect("stdout");
    sr.render(out).expect("stdout");
    rt.render(out).expect("stdout");

    if with_memory {
        let mut mem = Table::new(
            format!(
                "{} — index memory ({}) vs {}",
                axis.figure,
                city.name(),
                axis.label
            ),
            &headers,
        );
        for (ai, algo) in Algo::ALL.iter().enumerate() {
            let mut row = vec![algo.name().to_string()];
            for value in results {
                row.push(human_bytes(value[ai].index_mem_bytes));
            }
            mem.push(row);
        }
        mem.render(out).expect("stdout");
    }
    if with_saved_queries {
        let mut q_headers: Vec<&str> = vec!["metric"];
        q_headers.extend(axis.ticks.iter().map(String::as_str));
        let mut q = Table::new(
            format!(
                "{} — dis() queries saved by Lemma 8 pruning ({}) vs {}",
                axis.figure,
                city.name(),
                axis.label
            ),
            &q_headers,
        );
        let greedy_idx = Algo::ALL
            .iter()
            .position(|a| *a == Algo::GreedyDp)
            .expect("present");
        let prune_idx = Algo::ALL
            .iter()
            .position(|a| *a == Algo::PruneGreedyDp)
            .expect("present");
        let mut saved = vec!["saved queries".to_string()];
        let mut ratio = vec!["greedy/prune".to_string()];
        for value in results {
            let g = value[greedy_idx].queries.dis;
            let p = value[prune_idx].queries.dis;
            saved.push(human(g.saturating_sub(p)));
            ratio.push(format!("{:.2}x", g as f64 / p.max(1) as f64));
        }
        q.push(saved);
        q.push(ratio);
        q.render(out).expect("stdout");
    }
}

fn round_dur(d: Duration) -> Duration {
    Duration::from_nanos((d.as_nanos() as u64 / 100) * 100)
}

// ───────────────────── Saved-queries experiment ─────────────────────

fn queries_experiment(fx: &CityFixture, out: &mut impl Write) {
    eprintln!("  queries experiment on {}…", fx.city.name());
    let s = &fx.sweep;
    let d = (
        s.workers.default_value(),
        s.capacity.default_value(),
        s.deadline_cs.default_value(),
        s.penalty_factor.default_value(),
        s.grid_m.default_value(),
    );
    let mut t = Table::new(
        format!(
            "§6.2 — shortest-distance queries, GreedyDP vs pruneGreedyDP ({})",
            fx.city.name()
        ),
        &[
            "sweep",
            "value",
            "GreedyDP dis()",
            "prune dis()",
            "saved",
            "ratio",
        ],
    );
    let push_rows = |label: &str, cells: Vec<(String, Cell)>, t: &mut Table| {
        for (tick, cell) in cells {
            let g = run_cell(&cell, Algo::GreedyDp);
            let p = run_cell(&cell, Algo::PruneGreedyDp);
            t.push(vec![
                label.to_string(),
                tick,
                human(g.queries.dis),
                human(p.queries.dis),
                human(g.queries.dis.saturating_sub(p.queries.dis)),
                format!("{:.2}x", g.queries.dis as f64 / p.queries.dis.max(1) as f64),
            ]);
        }
    };
    push_rows(
        "|W|",
        s.workers
            .values
            .iter()
            .map(|&w| (w.to_string(), fx.cell(w, d.1, d.2, d.3, d.4)))
            .collect(),
        &mut t,
    );
    push_rows(
        "e_r (min)",
        s.deadline_cs
            .values
            .iter()
            .map(|&e| (format!("{}", e / 6_000), fx.cell(d.0, d.1, e, d.3, d.4)))
            .collect(),
        &mut t,
    );
    t.render(out).expect("stdout");
}

// ───────────────────────── Congestion deltas ─────────────────────────

/// Rush-hour supply: the same Chengdu-like stream shifted into the
/// morning peak, replayed free-flow and under the two-peak congestion
/// profile (DESIGN.md §7). The flat profile is asserted byte-identical
/// to no profile first — the differential gate of
/// `tests/congestion_equivalence.rs`, repeated here at experiment
/// scale — and then every algorithm's quality/latency delta under the
/// peak is tabulated.
fn congestion(opts: &Opts, out: &mut impl Write) {
    use road_network::congestion::{CongestionProfile, HOUR_CS};

    eprintln!("congestion experiment (scale ÷{})…", opts.scale);
    let fx = CityFixture::build(City::ChengduLike, opts.scale, opts.seed);
    let mut cell = fx.default_cell();
    // The fixture's stream starts at midnight, where the two-peak
    // profile is free flow; shift it into 07:30–09:30 so it straddles
    // the morning peak.
    let shift = 7 * HOUR_CS + HOUR_CS / 2;
    for r in &mut cell.requests {
        r.release += shift;
        r.deadline += shift;
    }

    // Gate: the flat profile must change nothing at all. The free-flow
    // result is reused as pruneGreedyDP's table row below.
    let mut gate_free = Some(run_cell(&cell, Algo::PruneGreedyDp));
    let free = gate_free.as_ref().expect("just computed");
    assert!(free.audit_errors.is_empty(), "{:?}", free.audit_errors);
    cell.sim.congestion = Some(Arc::new(CongestionProfile::flat()));
    let flat = run_cell(&cell, Algo::PruneGreedyDp);
    assert_eq!(
        (flat.unified_cost, flat.served_rate),
        (free.unified_cost, free.served_rate),
        "flat profile diverged from the free-flow run"
    );
    // Same gate through the TD oracle: a flat profile must be the
    // identity even when committed routes re-path through TD searches
    // (the experiment-scale twin of `tests/td_equivalence.rs`).
    cell.sim.td_oracle = true;
    let flat_td = run_cell(&cell, Algo::PruneGreedyDp);
    assert_eq!(
        (flat_td.unified_cost, flat_td.served_rate),
        (free.unified_cost, free.served_rate),
        "flat TD oracle diverged from the free-flow run"
    );
    cell.sim.td_oracle = false;

    let mut t = Table::new(
        format!(
            "Congestion — Chengdu-like ÷{}, 07:30 stream, chengdu-2peak vs free flow",
            opts.scale
        ),
        &[
            "algorithm",
            "UC (free)",
            "UC (peak)",
            "served (free)",
            "served (peak)",
            "resp (free)",
            "resp (peak)",
        ],
    );
    // The TD comparison runs under the region-structured core-jam
    // profile: a uniform profile stretches every path equally (the TD
    // shortest path degenerates to the static one), so rerouting only
    // has room to act when congestion is somewhere, not everywhere.
    let core = Arc::new(urpsm_bench::fixtures::core_jam_profile(&fx.network));
    let mut td_table = Table::new(
        format!(
            "TD oracle — Chengdu-like ÷{}, chengdu-2peak-core: overlay (stretch) vs rerouting",
            opts.scale
        ),
        &[
            "algorithm",
            "UC (overlay)",
            "UC (td)",
            "served (overlay)",
            "served (td)",
            "resp (overlay)",
            "resp (td)",
        ],
    );
    // Planners that served fewer requests with rerouting than with the
    // overlay, for the sentence under the TD table.
    let mut td_served_fewer = 0;
    for algo in Algo::ALL {
        let free = if algo == Algo::PruneGreedyDp {
            gate_free.take().expect("gate run consumed once")
        } else {
            cell.sim.congestion = None;
            run_cell(&cell, algo)
        };
        cell.sim.congestion = Some(Arc::new(CongestionProfile::chengdu_two_peak()));
        let peak = run_cell(&cell, algo);
        // Core-jam profile, overlay vs rerouting: committed legs
        // either stretch the free-flow path wholesale or re-path
        // through the TD oracle.
        cell.sim.congestion = Some(core.clone());
        let core_overlay = run_cell(&cell, algo);
        cell.sim.td_oracle = true;
        let core_td = run_cell(&cell, algo);
        cell.sim.td_oracle = false;
        assert!(
            free.audit_errors.is_empty()
                && peak.audit_errors.is_empty()
                && core_overlay.audit_errors.is_empty()
                && core_td.audit_errors.is_empty(),
            "{}: {:?} / {:?} / {:?} / {:?}",
            algo.name(),
            free.audit_errors,
            peak.audit_errors,
            core_overlay.audit_errors,
            core_td.audit_errors
        );
        t.push(vec![
            algo.name().to_string(),
            human(free.unified_cost),
            human(peak.unified_cost),
            format!("{:.1}%", free.served_rate * 100.0),
            format!("{:.1}%", peak.served_rate * 100.0),
            format!("{:?}", round_dur(free.response_time)),
            format!("{:?}", round_dur(peak.response_time)),
        ]);
        td_served_fewer += usize::from(core_td.served_rate < core_overlay.served_rate);
        td_table.push(vec![
            algo.name().to_string(),
            human(core_overlay.unified_cost),
            human(core_td.unified_cost),
            format!("{:.1}%", core_overlay.served_rate * 100.0),
            format!("{:.1}%", core_td.served_rate * 100.0),
            format!("{:?}", round_dur(core_overlay.response_time)),
            format!("{:?}", round_dur(core_td.response_time)),
        ]);
    }
    t.render(out).expect("stdout");
    writeln!(
        out,
        "\nPeak-hour multipliers only *stretch schedules*: costs stay in free-flow\n\
         distance units, so UC moves only through rejections (penalties) — the\n\
         served-rate drop is the price of congestion under fixed deadlines.\n"
    )
    .expect("stdout");
    td_table.render(out).expect("stdout");
    writeln!(
        out,
        "\nRerouting served fewer requests than the overlay for {td_served_fewer} of {} \
         planners.\n\
         Neither column bounds the other: the overlay stretches a whole leg by the\n\
         multipliers of its origin's region, while the TD oracle charges every edge\n\
         in its own region, so a leg that starts outside the jammed core and crosses\n\
         it is charged free flow by the overlay and the jam by rerouting; and online\n\
         greedy decisions need not be monotone in leg times.",
        Algo::ALL.len()
    )
    .expect("stdout");
}

// ───────────────────────── Heterogeneous fleets ──────────────────────

/// `experiments fleet` — every planner on the Chengdu stream, with a
/// homogeneous fleet vs the 3-class `mixed` preset (60% sedans, 25%
/// vans at +10% travel time, 15% e-bikes at +50% with a range budget).
/// Origins and the request stream are identical across the two runs;
/// only the class tags (and the per-class capacity redraw) differ, so
/// the delta is attributable to heterogeneity alone.
fn fleet(opts: &Opts, out: &mut impl Write) {
    use urpsm_workloads::fleet::FleetMix;

    eprintln!("fleet experiment (scale ÷{})…", opts.scale);
    let fx = CityFixture::build(City::ChengduLike, opts.scale, opts.seed);
    let single = fx.default_cell();

    let mix = FleetMix::mixed();
    let mut mixed = single.clone();
    // The scenario builder's class draw, on the fixture's fleet.
    mix.assign(opts.seed, &mut mixed.workers);
    mixed.sim.classes = Some(Arc::new(mix.class_table()));

    let class_names: Vec<&str> = mix.entries().iter().map(|(c, _)| c.name).collect();
    let mut t = Table::new(
        format!(
            "Fleet mix — Chengdu-like ÷{}, homogeneous vs {} ({})",
            opts.scale,
            mix.entries().len(),
            class_names.join("/"),
        ),
        &[
            "algorithm",
            "UC (1-class)",
            "UC (mixed)",
            "served (1-class)",
            "served (mixed)",
            "per-class served (mixed)",
        ],
    );
    for algo in Algo::ALL {
        let base = run_cell(&single, algo);
        let het = run_cell(&mixed, algo);
        assert!(
            base.audit_errors.is_empty() && het.audit_errors.is_empty(),
            "{}: {:?} / {:?}",
            algo.name(),
            base.audit_errors,
            het.audit_errors
        );
        // The homogeneous run must report exactly one class bucket
        // that mirrors the aggregate — the per-class plumbing is
        // metadata until a mix is installed.
        assert_eq!(base.per_class_served.iter().sum::<usize>(), {
            let den = single.requests.len().max(1);
            (base.served_rate * den as f64).round() as usize
        });
        let breakdown = het
            .per_class_served
            .iter()
            .enumerate()
            .map(|(i, &s)| format!("{}:{}", class_names.get(i).copied().unwrap_or("?"), s))
            .collect::<Vec<_>>()
            .join(" ");
        t.push(vec![
            algo.name().to_string(),
            human(base.unified_cost),
            human(het.unified_cost),
            format!("{:.1}%", base.served_rate * 100.0),
            format!("{:.1}%", het.served_rate * 100.0),
            breakdown,
        ]);
    }
    t.render(out).expect("stdout");
    writeln!(
        out,
        "\nThe mixed fleet swaps 40% of the sedans for vans (bigger, 10% slower)\n\
         and e-bikes (single-seat, 50% slower, range-budgeted): UC and served%\n\
         move through schedule stretch and the capacity/range gates alone —\n\
         distances stay in free-flow units, and planners never branch on the\n\
         class (the candidate/feasibility seams decide eligibility)."
    )
    .expect("stdout");
}

// ───────────────────────── Design ablations ─────────────────────────

/// Ablations for the design choices DESIGN.md calls out: the
/// strict-economics extension, T-Share's search modes, the kinetic
/// node budget, and the oracle backend behind the same planner.
fn ablation(opts: &Opts, out: &mut impl Write) {
    use road_network::cache::LruCachedOracle;
    use road_network::oracle::{DijkstraOracle, DistanceOracle};
    use urpsm_baselines::kinetic::{KineticConfig, KineticPlanner};
    use urpsm_baselines::tshare::{SearchMode, TShareConfig, TSharePlanner};
    use urpsm_core::event::PlatformEvent;
    use urpsm_core::planner::{Planner, PlannerConfig, PruneGreedyDp};
    use urpsm_simulator::service::MobilityService;

    let city = *opts.cities.first().expect("at least one city");
    eprintln!("ablation study on {} (scale ÷{})…", city.name(), opts.scale);
    let fx = CityFixture::build(city, opts.scale, opts.seed);
    let cell = fx.default_cell();

    let run = |planner: &mut dyn Planner, oracle: Arc<dyn DistanceOracle>| {
        // Streams out of the workload generators are sorted by construction.
        let mut service = MobilityService::new(
            oracle,
            cell.workers.clone(),
            Box::new(planner),
            cell.sim.clone(),
            cell.requests.first().map_or(0, |r| r.release),
        );
        for r in &cell.requests {
            service.submit(PlatformEvent::RequestArrived(*r));
        }
        let res = service.drain();
        assert!(res.audit_errors.is_empty(), "{:?}", res.audit_errors);
        res.metrics
    };

    let mut t = Table::new(
        format!("Ablations ({}, Table-5 defaults)", city.name()),
        &["variant", "unified cost", "served", "resp time"],
    );
    fn push_metrics(t: &mut Table, label: &str, m: &urpsm_simulator::metrics::SimMetrics) {
        t.push(vec![
            label.to_string(),
            human(m.unified_cost.value()),
            format!("{:.1}%", m.served_rate() * 100.0),
            format!("{:?}", round_dur(m.response_time())),
        ]);
    }

    // 1. Economic gate: decision-phase-only (paper) vs strict.
    for (label, strict) in [
        ("pruneGreedyDP (paper: LB gate only)", false),
        ("pruneGreedyDP + strict α·Δ* > p_r gate", true),
    ] {
        let mut p = PruneGreedyDp::from_config(PlannerConfig {
            alpha: cell.sim.alpha,
            strict_economics: strict,
        });
        let m = run(&mut p, cell.oracle.clone());
        push_metrics(&mut t, label, &m);
    }

    // 2. T-Share search modes.
    for (label, mode) in [
        ("tshare single-side (paper)", SearchMode::SingleSide),
        ("tshare dual-side", SearchMode::DualSide),
    ] {
        let mut p = TSharePlanner::from_config(TShareConfig { search: mode });
        let m = run(&mut p, cell.oracle.clone());
        push_metrics(&mut t, label, &m);
    }

    // 3. Kinetic node budget (the (2K_w)! blow-up knob).
    for budget in [2_000u64, 50_000, 500_000] {
        let mut p = KineticPlanner::from_config(KineticConfig {
            alpha: cell.sim.alpha,
            node_budget: budget,
        });
        let m = run(&mut p, cell.oracle.clone());
        let label = format!(
            "kinetic, node budget {} ({} overflows)",
            human(budget),
            p.overflow_count()
        );
        t.push(vec![
            label,
            human(m.unified_cost.value()),
            format!("{:.1}%", m.served_rate() * 100.0),
            format!("{:?}", round_dur(m.response_time())),
        ]);
    }

    // 4. Oracle backend under pruneGreedyDP.
    let backends: Vec<(&str, Arc<dyn DistanceOracle>)> = vec![
        (
            "oracle: hub labels + distance cache (paper)",
            Arc::new(LruCachedOracle::new(fx.hub_labels.clone(), LRU_CAPACITY, 0)),
        ),
        ("oracle: hub labels, no cache", fx.hub_labels.clone()),
        (
            "oracle: dijkstra + distance cache",
            Arc::new(LruCachedOracle::new(
                DijkstraOracle::new(fx.network.clone()),
                LRU_CAPACITY,
                0,
            )),
        ),
    ];
    for (label, oracle) in backends {
        let mut p = PruneGreedyDp::from_config(PlannerConfig {
            alpha: cell.sim.alpha,
            strict_economics: false,
        });
        let m = run(&mut p, oracle);
        push_metrics(&mut t, label, &m);
    }

    t.render(out).expect("stdout");
}

// ───────────────────────── Hardness curves ─────────────────────────

fn hardness(out: &mut impl Write) {
    use road_network::matrix::MatrixOracle;
    use urpsm_core::event::PlatformEvent;
    use urpsm_core::planner::{PlannerConfig, PruneGreedyDp};
    use urpsm_simulator::engine::SimConfig;
    use urpsm_simulator::service::MobilityService;

    eprintln!("hardness experiment (§3.3)…");
    const DRAWS: u64 = 300;
    let lemmas: [(&str, Lemma); 3] = [
        ("Lemma 1: max served (α=0, p=1)", Lemma::MaxServed),
        (
            "Lemma 2: max revenue (c_r=5, c_w=1)",
            Lemma::MaxRevenue { fare: 5, wage: 1 },
        ),
        ("Lemma 3: min distance (p=∞)", Lemma::MinDistance),
    ];
    for (label, lemma) in lemmas {
        let mut t = Table::new(
            format!("§3.3 — measured competitive behaviour, {label}"),
            &["|V|", "E[ALG]", "E[OPT]", "ratio"],
        );
        for n in [8usize, 16, 32, 64, 128] {
            let mut alg_sum: u128 = 0;
            let mut opt_sum: u128 = 0;
            for seed in 0..DRAWS {
                let inst = AdversaryInstance::sample(lemma, n, 100, 150, seed);
                let oracle: Arc<dyn road_network::oracle::DistanceOracle> =
                    Arc::new(MatrixOracle::from_network(&inst.network));
                let mut service = MobilityService::new(
                    oracle,
                    vec![inst.worker],
                    Box::new(PruneGreedyDp::from_config(PlannerConfig {
                        alpha: inst.alpha,
                        strict_economics: false,
                    })),
                    SimConfig {
                        grid_cell_m: 100_000.0,
                        alpha: inst.alpha,
                        ..SimConfig::default()
                    },
                    inst.request.release,
                );
                service.submit(PlatformEvent::RequestArrived(inst.request));
                let res = service.drain();
                assert!(res.audit_errors.is_empty());
                // Cap "∞" penalties to keep Lemma 3 sums readable.
                let alg = res.metrics.unified_cost.value().min(1 << 40);
                alg_sum += u128::from(alg);
                opt_sum += u128::from(inst.optimal_unified_cost());
            }
            let ealg = alg_sum as f64 / DRAWS as f64;
            let eopt = opt_sum as f64 / DRAWS as f64;
            t.push(vec![
                n.to_string(),
                format!("{ealg:.2}"),
                format!("{eopt:.2}"),
                if eopt == 0.0 {
                    "inf".to_string()
                } else {
                    format!("{:.2}", ealg / eopt)
                },
            ]);
        }
        t.render(out).expect("stdout");
    }
    writeln!(
        out,
        "\nThe ratio diverges with |V| under every objective: no online algorithm\n\
         has a constant competitive ratio (Theorem 1)."
    )
    .expect("stdout");
}
