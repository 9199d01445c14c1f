//! The motion index and the lazy idle clock against their reference
//! model.
//!
//! [`MobilityService::advance_all`] moves only the workers the
//! platform's due index names and stores nothing into idle routes. The
//! reference is the sweep it replaced (`advance_all_by_sweep`): every
//! worker advanced on every clock move, the index never consulted, and
//! every idle worker stored at the clock. Both must leave the same log,
//! the same driven ledger and the same routes as of the clock.

use road_network::congestion::{CongestionProfile, HOUR_CS};
use urpsm_baselines::prelude::{BatchPlanner, KineticPlanner, TSharePlanner};
use urpsm_core::route::Route;
use urpsm_workloads::prelude::{FleetMix, Scenario, ScenarioBuilder, MINUTE_CS};

use super::tests::{fleet, line_oracle, req};
use super::*;
use urpsm_core::planner::PruneGreedyDp;

/// The cancellation-and-churn scenario of `tests/config_matrix.rs`.
fn scenario(mixed_fleet: bool) -> Scenario {
    let builder = ScenarioBuilder::named("config-matrix")
        .grid_city(10, 10)
        .workers(80)
        .requests(160)
        .horizon(30 * MINUTE_CS)
        .deadline_offset(8 * MINUTE_CS)
        .hotspots(4)
        .inter_region_trips(0.4)
        .cancel_rate(0.15)
        .cancel_delay(3 * MINUTE_CS)
        .fleet_churn(2, 2)
        .seed(2018);
    if mixed_fleet {
        builder.fleet_mix(FleetMix::mixed()).build()
    } else {
        builder.build()
    }
}

/// Its stream moved to 07:45, across the two-peak profile's 08:00
/// bucket boundary (as `config_matrix` does).
fn peak_hour_stream(sc: &Scenario) -> Vec<PlatformEvent> {
    const SHIFT: Time = 7 * HOUR_CS + 45 * MINUTE_CS;
    let mut events = sc.event_stream();
    for e in &mut events {
        match e {
            PlatformEvent::RequestArrived(r) => {
                r.release += SHIFT;
                r.deadline += SHIFT;
            }
            PlatformEvent::RequestCancelled { at, .. }
            | PlatformEvent::WorkerJoined { at, .. }
            | PlatformEvent::WorkerLeft { at, .. }
            | PlatformEvent::Tick { at } => *at += SHIFT,
        }
    }
    events
}

#[derive(Debug, Clone, Copy)]
enum World {
    FreeFlow,
    TwoPeakTd,
    MixedFleet,
}

fn open(
    sc: &Scenario,
    world: World,
    planner: Box<dyn Planner>,
    start: Time,
    full_sweep: bool,
) -> MobilityService<'static> {
    let config = SimConfig {
        grid_cell_m: sc.grid_cell_m,
        alpha: sc.alpha,
        classes: sc.classes.clone(),
        congestion: match world {
            World::TwoPeakTd => Some(Arc::new(CongestionProfile::chengdu_two_peak())),
            World::FreeFlow | World::MixedFleet => None,
        },
        td_oracle: matches!(world, World::TwoPeakTd),
        ..SimConfig::default()
    };
    let mut service = MobilityService::new(
        sc.oracle.clone(),
        sc.workers.clone(),
        planner,
        config,
        start,
    );
    service.full_sweep = full_sweep;
    service
}

/// Every route of `state` as of its clock: an idle route behind it
/// re-timed, as a planner reads it.
fn routes_at_now(state: &PlatformState) -> Vec<Route> {
    let mut spare = Route::default();
    (0..state.num_workers())
        .map(|i| state.candidate(WorkerId(i as u32), &mut spare).0.clone())
        .collect()
}

/// Log, ledger and routes of the indexed service equal the sweep's.
fn assert_same(indexed: &MobilityService<'_>, sweep: &MobilityService<'_>, ctx: &str) {
    assert_eq!(indexed.events, sweep.events, "{ctx}: event log");
    assert_eq!(indexed.now(), sweep.now(), "{ctx}: clock");
    assert_eq!(indexed.motions.len(), sweep.motions.len(), "{ctx}: fleet");
    for (i, (a, b)) in indexed.motions.iter().zip(&sweep.motions).enumerate() {
        assert_eq!(a.driven, b.driven, "{ctx}: driven of worker {i}");
    }
    let (a, b) = (routes_at_now(&indexed.state), routes_at_now(&sweep.state));
    for (w, (a, b)) in a.iter().zip(&b).enumerate() {
        assert_eq!(a, b, "{ctx}: route of worker {w}");
    }
}

/// Drives the indexed service and the full sweep over the cancel +
/// churn stream of `tests/config_matrix.rs` under {free flow,
/// `chengdu-2peak` through the TD oracle, mixed fleet} ×
/// {`PruneGreedyDp`, kinetic, tshare, batch}. After every event the
/// replies, the whole log, every worker's `driven` and every `Route` as
/// of the clock must be equal — so every idle worker, shortlisted or
/// not, departs at `now` exactly when the sweep stored it there, and
/// every planner family plans from that departure — and
/// `check_motion_index` must hold on the indexed platform; halfway, an
/// idle worker is handed off (and a busy one refused) on both.
///
/// Which part of the stream keeps which `reindex` honest (dropping it
/// from that mutator fails this test):
///
/// * `commit` — every `PruneGreedyDp`, tshare and batch assignment;
///   `commit_reordered` — every kinetic assignment. A missed one leaves
///   a newly busy worker marked idle with `due = MAX`: it never moves
///   and its pickups vanish from the log.
/// * `snap_worker_on_leg`, `pop_worker_stop` — the motion between any
///   two events: a stale `due` after a snap re-enters `advance` early
///   (caught by `check_motion_index`), after a pop it skips the next
///   leg or leaves a drained worker marked busy, whose clock then
///   stops.
/// * `cancel_request` — the 15 % cancellations that land before pickup
///   (asserted below: some free distance); bridging moves `arr[1]`, and
///   emptying the route must mark the worker idle again.
/// * `strip_unpicked` — a `WorkerLeft { Reassign }` staged a third of
///   the way in for a worker that still owes a pickup (asserted below:
///   an `Unassigned` in the log; the scenario's own two departures hit
///   workers with nothing left to strip).
/// * `add_worker` — the two `WorkerJoined` arrivals: a joiner without
///   its own `due` and head entry leaves the index missized.
#[test]
fn indexed_motion_equals_the_full_sweep() {
    type MakePlanner = fn() -> Box<dyn Planner>;
    let planners: [(&str, MakePlanner); 4] = [
        ("pruneGreedyDP", || Box::new(PruneGreedyDp::new())),
        ("kinetic", || Box::new(KineticPlanner::new())),
        ("tshare", || Box::new(TSharePlanner::new())),
        ("batch", || Box::new(BatchPlanner::new())),
    ];
    for world in [World::FreeFlow, World::TwoPeakTd, World::MixedFleet] {
        let sc = scenario(matches!(world, World::MixedFleet));
        let stream = peak_hour_stream(&sc);
        let start = stream[0].time();
        for (name, make) in planners {
            let ctx = format!("{world:?} / {name}");
            let mut indexed = open(&sc, world, make(), start, false);
            let mut sweep = open(&sc, world, make(), start, true);
            for (k, event) in stream.iter().enumerate() {
                let ctx = format!("{ctx} / event {k}");
                assert_eq!(indexed.submit(*event), sweep.submit(*event), "{ctx}");
                assert_eq!(indexed.state.check_motion_index(), Ok(()), "{ctx}");
                assert_same(&indexed, &sweep, &ctx);
                if k == stream.len() / 3 {
                    // The scenario's own departures find nothing left
                    // to strip, so one is staged: the first active
                    // worker still owing a pickup leaves with
                    // `Reassign`.
                    let owing =
                        indexed.state.agents().iter().find(|a| {
                            a.active && a.route.stops().any(|s| s.kind == StopKind::Pickup)
                        });
                    let leave = PlatformEvent::WorkerLeft {
                        at: indexed.now(),
                        worker: owing.expect("someone owes a pickup").worker.id,
                        reassign: ReassignPolicy::Reassign,
                    };
                    assert_eq!(indexed.submit(leave), sweep.submit(leave), "{ctx}");
                    assert_eq!(indexed.state.check_motion_index(), Ok(()), "{ctx}");
                    assert_same(&indexed, &sweep, &ctx);
                }
                if k == stream.len() / 2 {
                    let agents = indexed.state.agents();
                    let idle = agents.iter().find(|a| a.active && a.route.is_empty());
                    let busy = agents.iter().find(|a| !a.route.is_empty());
                    let (idle, busy) =
                        (idle.expect("idle").worker.id, busy.expect("busy").worker.id);
                    assert!(indexed.handoff_worker(idle).is_some(), "{ctx}");
                    assert!(sweep.handoff_worker(idle).is_some(), "{ctx}");
                    assert_eq!(indexed.handoff_worker(busy), None, "{ctx}");
                    assert_eq!(sweep.handoff_worker(busy), None, "{ctx}");
                    assert_eq!(indexed.state.check_motion_index(), Ok(()), "{ctx}");
                }
            }
            // The parts of the stream the doc comment leans on are live.
            let log = indexed.events();
            let any = |f: fn(&SimEvent) -> bool| log.iter().any(f);
            assert!(any(
                |e| matches!(e, SimEvent::Cancelled { freed, .. } if *freed > 0)
            ));
            assert!(any(|e| matches!(e, SimEvent::Unassigned { .. })), "{ctx}");
            assert!(any(|e| matches!(e, SimEvent::WorkerJoined { .. })), "{ctx}");
            assert!(any(|e| matches!(e, SimEvent::Delivery { .. })), "{ctx}");

            let (indexed, sweep) = (indexed.drain(), sweep.drain());
            assert_eq!(indexed.audit_errors, Vec::<String>::new(), "{ctx}: audit");
            assert_eq!(indexed.events, sweep.events, "{ctx}: drained log");
            assert_eq!(indexed.state.check_motion_index(), Ok(()), "{ctx}: drained");
            assert_eq!(
                routes_at_now(&indexed.state),
                routes_at_now(&sweep.state),
                "{ctx}: drained routes"
            );
        }
    }
}

/// The work of a clock move is the number of due workers, shown by a
/// count: 1 000 idle workers and 3 busy ones over 200 ticks enter
/// `WorkerMotion::advance` exactly once per (tick, worker whose route
/// says it is due) — the idle thousand never do.
#[test]
fn advance_is_entered_once_per_due_worker() {
    // Three workers next to three requests; a thousand parked far away.
    let mut origins = vec![0, 10, 20];
    origins.resize(1_003, 49);
    let mut svc = MobilityService::new(
        line_oracle(50),
        fleet(&origins),
        Box::new(PruneGreedyDp::new()),
        SimConfig::default(),
        0,
    );
    for (id, o) in [(0, 1), (1, 11), (2, 21)] {
        let replies = svc.submit(PlatformEvent::RequestArrived(req(id, o, o + 7, 0, 100_000)));
        assert!(
            matches!(replies[0], SimEvent::Assigned { w, .. } if w == WorkerId(id)),
            "request {id} goes to the worker beside it"
        );
    }
    let entered = |svc: &MobilityService<'_>| svc.motions.iter().map(|m| m.entered).sum::<u64>();
    assert_eq!(entered(&svc), 0, "nobody is due at t = 0");

    // Due straight from the routes, not from the index under test.
    let due_now = |svc: &MobilityService<'_>, t: Time| {
        svc.state
            .agents()
            .iter()
            .filter(|a| {
                let r = &a.route;
                !r.is_empty() && r.arr(1) < road_network::INF && r.arr(1).min(r.arr(0) + 1) <= t
            })
            .count() as u64
    };
    let mut expected = 0;
    for k in 1..=200 {
        let t = 7 * k; // 1 400 cs: the 800 cs routes drain on the way
        expected += due_now(&svc, t);
        svc.submit(PlatformEvent::Tick { at: t });
        assert_eq!(entered(&svc), expected, "tick {k}");
        assert_eq!(svc.state.check_motion_index(), Ok(()));
    }
    // Vertices are 100 cs apart: each busy worker is due once to set
    // off and once after each of the 8 vertices it reaches, never in
    // between.
    assert_eq!(expected, 3 * 9);
    assert!(svc.motions[3..].iter().all(|m| m.entered == 0));
    assert!(svc.state.agents().iter().all(|a| a.route.is_empty()));
    assert!(routes_at_now(&svc.state)
        .iter()
        .all(|route| route.start_time() == 1_400));
    let out = svc.drain();
    assert_eq!(out.audit_errors, Vec::<String>::new());
    assert_eq!(out.metrics.served, 3);
}

/// The block summary over the due index against random churn: on
/// fleets of 200 workers that joins carry past a block boundary,
/// commits, clock moves (each event, plus ticks between events),
/// cancellations, joins and handoffs arrive in a seeded random mix, and
/// after every step `check_motion_index` recomputes `due` and every
/// block minimum, and the indexed service still equals the sweep.
#[test]
fn the_due_summary_survives_random_churn() {
    for seed in [3u64, 29] {
        let sc = ScenarioBuilder::named("due-blocks")
            .grid_city(12, 12)
            .workers(200)
            .requests(240)
            .horizon(20 * MINUTE_CS)
            .deadline_offset(8 * MINUTE_CS)
            .hotspots(3)
            .cancel_rate(0.2)
            .cancel_delay(3 * MINUTE_CS)
            .fleet_churn(3, 60)
            .seed(seed)
            .build();
        let stream = sc.event_stream();
        let start = stream[0].time();
        let make = || Box::new(PruneGreedyDp::new()) as Box<dyn Planner>;
        let mut indexed = open(&sc, World::FreeFlow, make(), start, false);
        let mut sweep = open(&sc, World::FreeFlow, make(), start, true);
        // xorshift64: the draws are part of the test's input.
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut draw = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut handoffs = 0;
        for (k, &event) in stream.iter().enumerate() {
            let ctx = format!("seed {seed} / event {k}");
            let mut steps = Vec::new();
            if draw(3) == 0 {
                let now = indexed.now();
                let at = now + event.time().saturating_sub(now) * draw(4) / 4;
                steps.push(PlatformEvent::Tick { at });
            }
            steps.push(event);
            for step in steps {
                assert_eq!(indexed.submit(step), sweep.submit(step), "{ctx}");
                assert_eq!(indexed.state.check_motion_index(), Ok(()), "{ctx}");
            }
            if draw(6) == 0 {
                let w = WorkerId(draw(indexed.state.num_workers() as u64) as u32);
                let out = indexed.handoff_worker(w);
                assert_eq!(out, sweep.handoff_worker(w), "{ctx}: handoff of {w}");
                handoffs += usize::from(out.is_some());
                assert_eq!(indexed.state.check_motion_index(), Ok(()), "{ctx}");
            }
            assert_same(&indexed, &sweep, &ctx);
        }
        let log = indexed.events();
        assert!(handoffs > 0, "seed {seed}: some handoff went through");
        assert!(log.iter().any(|e| matches!(e, SimEvent::Cancelled { .. })));
        assert!(
            indexed.state.num_workers() > 4 * DUE_BLOCK,
            "seed {seed}: the joins open a fifth block"
        );
        let (indexed, sweep) = (indexed.drain(), sweep.drain());
        assert_eq!(indexed.audit_errors, Vec::<String>::new(), "seed {seed}");
        assert_eq!(indexed.events, sweep.events, "seed {seed}: drained log");
        assert_eq!(indexed.state.check_motion_index(), Ok(()), "seed {seed}");
    }
}

/// The work of finding the due workers is the blocks that hold one,
/// shown by a count: 10 000 workers, three busy ones in distinct
/// blocks, 200 ticks. Each tick reads exactly the blocks of the due
/// index that hold a worker due by its time — never an idle block —
/// and enters `WorkerMotion::advance` once per due worker, as in
/// `advance_is_entered_once_per_due_worker`.
#[test]
fn a_clock_move_reads_only_the_blocks_where_a_worker_is_due() {
    let busy = [3, 70 * DUE_BLOCK + 5, 150 * DUE_BLOCK + 63];
    let mut origins = vec![49; 10_000];
    for (&w, o) in busy.iter().zip([0, 10, 20]) {
        origins[w] = o;
    }
    let mut svc = MobilityService::new(
        line_oracle(50),
        fleet(&origins),
        Box::new(PruneGreedyDp::new()),
        SimConfig::default(),
        0,
    );
    for (id, (&w, o)) in busy.iter().zip([1, 11, 21]).enumerate() {
        let replies = svc.submit(PlatformEvent::RequestArrived(req(
            id as u32,
            o,
            o + 7,
            0,
            100_000,
        )));
        assert!(
            matches!(replies[0], SimEvent::Assigned { w: got, .. } if got.idx() == w),
            "request {id} goes to the worker beside it"
        );
    }
    // Due straight from the routes, not from the index under test.
    let due_by_route = |svc: &MobilityService<'_>, t: Time| {
        let due: Vec<usize> = (svc.state.agents().iter().enumerate())
            .filter(|(_, a)| {
                let r = &a.route;
                !r.is_empty() && r.arr(1) < road_network::INF && r.arr(1).min(r.arr(0) + 1) <= t
            })
            .map(|(w, _)| w)
            .collect();
        let mut blocks: Vec<usize> = due.iter().map(|w| w / DUE_BLOCK).collect();
        blocks.dedup();
        (due.len() as u64, blocks.len() as u64)
    };
    let entered = |svc: &MobilityService<'_>| svc.motions.iter().map(|m| m.entered).sum::<u64>();
    let (mut expected, mut read) = (0, 0);
    for k in 1..=200 {
        let t = 7 * k;
        let (due, blocks) = due_by_route(&svc, t);
        let before = svc.due_blocks_read;
        svc.submit(PlatformEvent::Tick { at: t });
        assert_eq!(svc.due_blocks_read - before, blocks, "tick {k}");
        expected += due;
        read += blocks;
        assert_eq!(entered(&svc), expected, "tick {k}");
    }
    assert_eq!(svc.state.check_motion_index(), Ok(()));
    // Each busy worker is due 9 times (see the test above), always
    // alone in its block.
    assert_eq!((expected, read), (3 * 9, 3 * 9));
    assert!(svc.state.agents().iter().all(|a| a.route.is_empty()));
}
