//! One workload, measured in this process: set-up, a discarded
//! reference pass, cold passes until the time is up, the correctness
//! checks, and the metrics of the untraced or of the traced run.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::adapter::{Input, PassOutcome, Workload};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::procfs;
use crate::stats::{median, percentile};
use crate::trace::{self, Kind, Totals};

/// Pairs of one untraced and one traced pass a traced run never falls
/// below, whatever `--seconds` says.
const MIN_TRACED_PAIRS: usize = 2;

/// The seed of a run's `city`-th generated input.
fn city_seed(seed: u64, city: usize) -> u64 {
    seed.wrapping_mul(64).wrapping_add(city as u64)
}

pub struct Request {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

pub struct Report {
    /// Events submitted over the measured passes.
    pub attempted: u64,
    /// Failed correctness checks plus shed requests.
    pub failed: u64,
    /// `(name, value, unit)`, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Counts failed checks; each is printed once, never skipped.
struct Checks {
    workload: &'static str,
    failed: u64,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED [{}]: {}", self.workload, what());
        }
    }

    /// The checks every pass must meet: a clean audit, and the same
    /// outputs as the reference pass.
    fn pass(&mut self, pass: &PassOutcome, reference: &PassOutcome) {
        self.require(pass.audit_errors.is_empty(), || {
            format!("audit: {:?}", pass.audit_errors)
        });
        self.require(pass.digest == reference.digest, || {
            format!(
                "digest {:#x} != reference {:#x}",
                pass.digest, reference.digest
            )
        });
        self.require(pass.metrics.rejected == reference.metrics.rejected, || {
            format!(
                "rejected {} != reference {}",
                pass.metrics.rejected, reference.metrics.rejected
            )
        });
        let cost = |p: &PassOutcome| p.metrics.unified_cost.value();
        self.require(cost(pass) == cost(reference), || {
            format!(
                "unified cost {} != reference {}",
                cost(pass),
                cost(reference)
            )
        });
        if let Some(ingest) = &pass.ingest {
            self.require(ingest.wal_records == ingest.admitted, || {
                format!(
                    "WAL records {} != admitted events {}",
                    ingest.wal_records, ingest.admitted
                )
            });
            self.failed += ingest.shed;
        }
    }
}

/// Where passes put their WAL: inside the checkout, unique per process.
fn wal_dir(workload: Workload) -> PathBuf {
    PathBuf::from(crate::OUT_DIR).join(format!("wal-{}-{}", workload.name(), std::process::id()))
}

pub fn run(req: &Request) -> io::Result<Report> {
    let wal = wal_dir(req.workload);
    let report = if req.traced {
        run_traced(req, &wal)
    } else {
        run_untraced(req, &wal)
    };
    // The WAL directory only exists for the ingest workload.
    let _ = std::fs::remove_dir_all(&wal);
    report
}

/// One generated city of an untraced run.
struct City {
    input: Input,
    /// The pass every later pass over this city must reproduce.
    reference: Option<PassOutcome>,
}

fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len() as f64;
    values.sum::<f64>() / n
}

fn run_untraced(req: &Request, wal: &Path) -> io::Result<Report> {
    let mut checks = Checks {
        workload: req.workload.name(),
        failed: 0,
    };
    let mut setups = Vec::new();
    let mut cities = Vec::new();
    for city in 0..req.workload.cities() {
        let t0 = Instant::now();
        let (mut input, _) = Input::build(req.workload, city_seed(req.seed, city));
        input.open_and_drop(wal)?;
        setups.push(t0.elapsed().as_secs_f64());
        cities.push(City {
            input,
            reference: None,
        });
    }

    // Discarded warm-up pass over the first city. A fan-out workload
    // runs it at width 1: the reference its decisions must reproduce.
    let warm_up = cities[0]
        .input
        .run_pass(req.workload.reference_threads(), wal)?;
    checks.pass(&warm_up, &warm_up);
    cities[0].reference = Some(warm_up);

    // Cold passes, round-robin over the cities, until the time is up
    // and every city has been measured.
    let mut passes = 0;
    let (mut throughput, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut attempted = 0u64;
    let mut peak_rss_mib = 0.0;
    let mut last = None;
    let cpu0 = procfs::cpu_seconds();
    let started = Instant::now();
    while passes < cities.len() || started.elapsed().as_secs_f64() < req.seconds {
        let index = passes % cities.len();
        let city = &mut cities[index];
        let mut pass = city.input.run_pass(None, wal)?;
        checks.pass(&pass, city.reference.as_ref().unwrap_or(&pass));
        throughput.push(pass.events as f64 / pass.wall_s);
        pass.decide_us.sort_by(f64::total_cmp);
        p50.push(percentile(&pass.decide_us, 0.50));
        p99.push(percentile(&pass.decide_us, 0.99));
        attempted += pass.events as u64;
        last = Some((index, pass.digest));
        city.reference.get_or_insert(pass);
        passes += 1;
        // Read after the first round: the allocator's high-water mark
        // creeps up with the pass count, which depends on the machine.
        if passes == cities.len() {
            peak_rss_mib = procfs::peak_rss_mib();
        }
    }
    let cpu_s = procfs::cpu_seconds() - cpu0;

    if req.workload.is_ingest() {
        let (index, live) = last.expect("at least one pass per city");
        let (digest, _) = cities[index].input.recover_digest(wal)?;
        checks.require(digest == live, || {
            format!("recovered digest {digest:#x} != live {live:#x}")
        });
    }

    let outcomes: Vec<&PassOutcome> = cities
        .iter()
        .map(|c| c.reference.as_ref().expect("at least one pass per city"))
        .collect();
    eprintln!(
        "{}: {} cities, {passes} passes of ~{} events and ~{} decision samples, rejected {} of {}",
        req.workload.name(),
        cities.len(),
        outcomes[0].events,
        outcomes[0].decide_us.len(),
        outcomes.iter().map(|o| o.metrics.rejected).sum::<usize>(),
        outcomes.iter().map(|o| o.metrics.requests).sum::<usize>(),
    );
    // Per pass, so that a reader can tell a disturbed spell of the
    // machine (a stretch of slow passes with long tails) from the code.
    for (what, values) in [("events/s", &throughput), ("decide p99 us", &p99)] {
        let per_pass: Vec<String> = values.iter().map(|v| format!("{v:.0}")).collect();
        eprintln!("  {what} of each pass: {}", per_pass.join(" "));
    }
    // A timing is the median over all the run's passes: a disturbed
    // pass (this box has slow spells of a fraction of a second to
    // minutes) then moves nothing, where it would move a mean over
    // cities by its full share. The two output metrics are
    // deterministic, and are means over the cities.
    let values = [
        median(&setups),
        median(&throughput),
        median(&p50),
        median(&p99),
        cpu_s * 1e6 / attempted as f64,
        peak_rss_mib,
        mean(outcomes.iter().map(|o| o.served_share())),
        mean(
            outcomes
                .iter()
                .map(|o| o.metrics.unified_cost.value() as f64),
        ),
    ];
    Ok(Report {
        attempted,
        failed: checks.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer numbers one traced pass yields.
fn per_pass(pass: &PassOutcome, requests: usize, t: &Totals) -> [(&'static str, f64); 12] {
    let (events, requests) = (pass.events as f64, requests as f64);
    let (dis, path) = (t.of(Kind::Dis), t.of(Kind::Path));
    let (plan, probe) = (t.of(Kind::OnRequest), t.of(Kind::ShortlistProbe));
    let self_us_per_event = |layer| t.layer_self_ns(layer) as f64 / 1e3 / events;
    [
        (
            "road-network.dis_calls_per_request",
            dis.count as f64 / requests,
        ),
        (
            "road-network.path_calls_per_request",
            path.count as f64 / requests,
        ),
        (
            "road-network.dis_ns_per_call",
            ratio(dis.total_ns as f64, dis.count as f64),
        ),
        (
            "road-network.self_us_per_event",
            self_us_per_event("road-network"),
        ),
        (
            "urpsm-core.plan_us_per_request",
            plan.total_ns as f64 / 1e3 / requests,
        ),
        (
            "urpsm-core.self_us_per_event",
            self_us_per_event("urpsm-core"),
        ),
        (
            "urpsm-core.shortlist_size",
            ratio(pass.shortlisted as f64, probe.count as f64),
        ),
        (
            "urpsm-core.shortlist_us",
            ratio(probe.total_ns as f64 / 1e3, probe.count as f64),
        ),
        (
            "urpsm-core.dis_per_candidate",
            ratio(dis.count as f64, pass.shortlisted as f64),
        ),
        (
            "simulator.self_us_per_event",
            self_us_per_event("simulator"),
        ),
        ("simulator.replies_per_event", pass.replies as f64 / events),
        ("simulator.drain_s", pass.drain_s),
    ]
}

fn run_traced(req: &Request, wal: &Path) -> io::Result<Report> {
    let mut checks = Checks {
        workload: req.workload.name(),
        failed: 0,
    };
    let mut named: Vec<(&str, f64)> = Vec::new();

    let (mut input, build_s) = Input::build(req.workload, city_seed(req.seed, 0));
    let label_s = input.time_label_build();
    named.push(("road-network.label_build_s", label_s));
    named.push(("workloads.scenario_build_s", (build_s - label_s).max(0.0)));

    let reference = input.run_pass(req.workload.reference_threads(), wal)?;
    checks.pass(&reference, &reference);

    // Untraced and traced passes alternate, so that both see the same
    // machine; the untraced ones give the tracing overhead, the LRU hit
    // rate and the tick times (all better read without the recorder).
    let (mut wall_off, mut wall_on) = (Vec::new(), Vec::new());
    let (mut hit_rate, mut tick_p50, mut tick_p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced = Vec::new();
    let mut tick_us_per_event = Vec::new();
    let mut attempted = 0u64;
    let mut kept = None;
    let started = Instant::now();
    while wall_on.len() < MIN_TRACED_PAIRS || started.elapsed().as_secs_f64() < req.seconds {
        let off = input.run_pass(None, wal)?;
        checks.pass(&off, &reference);
        wall_off.push(off.wall_s);
        hit_rate.push(ratio(off.lru.0 as f64, (off.lru.0 + off.lru.1) as f64));
        if let Some(ingest) = &off.ingest {
            let mut ticks = ingest.tick_us.clone();
            ticks.sort_by(f64::total_cmp);
            tick_p50.push(percentile(&ticks, 0.50));
            tick_p99.push(percentile(&ticks, 0.99));
        }

        trace::start();
        let on = input.run_pass(None, wal);
        let spans = trace::stop();
        let on = on?;
        checks.pass(&on, &reference);
        wall_on.push(on.wall_s);
        let totals = trace::totals(&spans);
        traced.push(per_pass(&on, input.requests(), &totals));
        tick_us_per_event.push(totals.of(Kind::Tick).total_ns as f64 / 1e3 / on.events as f64);
        attempted += (off.events + on.events) as u64;
        kept = Some((on, spans, totals));
    }
    let (last, spans, totals) = kept.expect("MIN_TRACED_PAIRS >= 1");
    eprintln!(
        "{}: {} pairs of an untraced and a traced pass of {} events",
        req.workload.name(),
        wall_on.len(),
        last.events
    );
    for (i, (name, _)) in traced[0].iter().enumerate() {
        let column: Vec<f64> = traced.iter().map(|pass| pass[i].1).collect();
        named.push((name, median(&column)));
    }
    named.push(("road-network.lru_hit_rate", median(&hit_rate)));
    named.push((
        "trace.overhead_pct",
        (median(&wall_on) / median(&wall_off) - 1.0) * 100.0,
    ));

    if req.workload.is_td() {
        let td = input.drive_td();
        named.push(("road-network.td_query_us", td.query_us));
        named.push(("road-network.td_settled_per_query", td.settled_per_query));
        named.push(("road-network.td_cache_hit_rate", td.cache_hit_rate));
    }

    let mut replay_spans = Vec::new();
    if let Some(ingest) = &last.ingest {
        let (digest, recover_s) = input.recover_digest(wal)?;
        checks.require(digest == last.digest, || {
            format!("recovered digest {digest:#x} != live {:#x}", last.digest)
        });

        trace::start();
        let replay = input.replay_sharded();
        replay_spans = trace::stop();
        checks.require(replay.digest == last.digest, || {
            format!(
                "direct sharded replay digest {:#x} != server {:#x}",
                replay.digest, last.digest
            )
        });
        let events = last.events as f64;
        let direct = trace::totals(&replay_spans).of(Kind::ShardedSubmit);
        let drive = input.drive_wal(wal)?;
        named.extend([
            (
                "dispatch.self_us_per_event",
                direct.self_ns as f64 / 1e3 / events,
            ),
            ("dispatch.handoffs", replay.handoffs as f64),
            ("dispatch.shard_skew", replay.shard_skew),
            (
                "server.self_us_per_event",
                (median(&tick_us_per_event) - direct.total_ns as f64 / 1e3 / events).max(0.0),
            ),
            ("server.tick_p50_us", median(&tick_p50)),
            ("server.tick_p99_us", median(&tick_p99)),
            ("server.encode_ns_per_event", drive.encode_ns_per_event),
            ("server.wal_append_ns_per_event", drive.append_ns_per_event),
            (
                "server.wal_bytes_per_event",
                ingest.wal_bytes as f64 / ingest.wal_records as f64,
            ),
            ("server.snapshots", ingest.snapshots as f64),
            ("server.recover_s", recover_s),
            ("server.shed", ingest.shed as f64),
            ("server.peak_backlog", ingest.peak_backlog as f64),
        ]);
        eprintln!(
            "{}: direct K=4 replay {:.0} events/s",
            req.workload.name(),
            events / replay.wall_s
        );
    }

    print_shares(req.workload, &totals);
    write_trace(req, &spans, &replay_spans)?;

    Ok(Report {
        attempted,
        failed: checks.failed,
        // A metric of a layer the workload does not run reads 0.
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                let value = named
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |x| x.1);
                (m.name, value, m.unit)
            })
            .collect(),
    })
}

/// Each layer's share of the last traced pass's root spans, to stderr.
fn print_shares(workload: Workload, totals: &Totals) {
    let layers = [
        "server+dispatch+simulator",
        "simulator",
        "urpsm-core",
        "road-network",
        "benchmark",
    ];
    let total: u64 = layers.iter().map(|l| totals.layer_self_ns(l)).sum();
    let shares: Vec<String> = layers
        .iter()
        .map(|l| {
            format!(
                "{l} {:.1}%",
                ratio(totals.layer_self_ns(l) as f64 * 100.0, total as f64)
            )
        })
        .collect();
    eprintln!(
        "{}: self-time shares of the traced pass: {}",
        workload.name(),
        shares.join(", ")
    );
}

fn write_trace(req: &Request, spans: &[trace::Span], replay: &[trace::Span]) -> io::Result<()> {
    std::fs::create_dir_all(crate::OUT_DIR)?;
    let header = [
        ("workload", req.workload.name().to_string()),
        ("seed", req.seed.to_string()),
    ];
    let write = |name: String, spans: &[trace::Span]| {
        let path = PathBuf::from(crate::OUT_DIR).join(name);
        let file = io::BufWriter::new(std::fs::File::create(&path)?);
        trace::write_json(file, &header, spans)?;
        eprintln!(
            "{}: wrote {} spans to {}",
            req.workload.name(),
            spans.len(),
            path.display()
        );
        Ok::<(), io::Error>(())
    };
    write(format!("trace-{}.json", req.workload.name()), spans)?;
    if !replay.is_empty() {
        write(format!("trace-{}-direct.json", req.workload.name()), replay)?;
    }
    Ok(())
}
