//! The configuration matrix: every way to open a service, in one
//! process, over one cancellation-and-churn stream.
//!
//! A run is configured by values and nothing else — plain or sharded
//! service, congestion profile, overlay or TD oracle, fleet mix — so
//! the whole lattice can be enumerated here: service {plain, K = 1,
//! K = 4} × profile {none, flat, chengdu-2peak} × TD {off, on} × fleet
//! {single, mixed} = 36 runs. Each must be audit-clean with an exact
//! ledger, and runs that differ only in a knob the equivalence suites
//! promise is invisible (one shard vs the plain service; a flat
//! profile, with or without the TD oracle) must agree byte for byte.
//! The planner width and the end-of-stream drain are no axes:
//! `PruneGreedyDp::with_threads`, `SimConfig::threads` and
//! `SimConfig::drain` are documented no-ops, and one extra run pins
//! that they stay so.

use std::collections::BTreeMap;
use std::sync::Arc;

use road_network::congestion::HOUR_CS;
use urpsm::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Service {
    Plain,
    Sharded(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Profile {
    None,
    Flat,
    TwoPeak,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Config {
    mixed_fleet: bool,
    service: Service,
    profile: Profile,
    td_oracle: bool,
}

impl Config {
    /// The configuration this one is promised to be indistinguishable
    /// from: the plain service in place of one shard, and no profile
    /// (hence no TD oracle) in place of the flat one.
    fn canonical(self) -> Config {
        let free_flow = self.profile != Profile::TwoPeak;
        Config {
            mixed_fleet: self.mixed_fleet,
            service: match self.service {
                Service::Sharded(1) => Service::Plain,
                other => other,
            },
            profile: if free_flow {
                Profile::None
            } else {
                self.profile
            },
            td_oracle: self.td_oracle && !free_flow,
        }
    }
}

/// What a run leaves behind, wall-clock zeroed.
#[derive(Debug, PartialEq)]
struct Observed {
    events: Vec<SimEvent>,
    metrics: SimMetrics,
    handoffs: usize,
}

/// 80 workers on a 10 × 10 grid: long shortlists, with cancellations,
/// churn and cross-region trips so K = 4 hands workers across seams.
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

/// The scenario's stream moved to 07:45, so the half hour crosses the
/// two-peak profile's 1.3× → 1.7× bucket boundary instead of sitting
/// in its free-flow night.
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

/// `(served, rejected, cancelled)` recounted from the event log alone,
/// independently of any counter the platform keeps: a request's fate
/// is its last decision — a departure's `Unassigned` strip re-opens
/// it — unless a `Cancelled` withdrew it.
fn fates_from_log(events: &[SimEvent]) -> (usize, usize, usize) {
    let mut fate = BTreeMap::new();
    for ev in events {
        match *ev {
            SimEvent::Assigned { r, .. } => fate.insert(r, "served"),
            SimEvent::Rejected { r, .. } => fate.insert(r, "rejected"),
            SimEvent::Cancelled { r, .. } => fate.insert(r, "cancelled"),
            SimEvent::Unassigned { r, .. } => fate.insert(r, "open"),
            _ => None,
        };
    }
    let count = |what| fate.values().filter(|&&f| f == what).count();
    (count("served"), count("rejected"), count("cancelled"))
}

/// Runs `cfg`. With `no_op_knobs`, every no-op knob is set away from
/// its default: `PruneGreedyDp::with_threads(4)`,
/// `SimConfig::threads = 4` and `SimConfig::drain = false`.
fn run(sc: &Scenario, stream: &[PlatformEvent], cfg: Config, no_op_knobs: bool) -> Observed {
    let planner = || -> Box<dyn Planner> {
        if no_op_knobs {
            Box::new(PruneGreedyDp::with_threads(4))
        } else {
            Box::new(PruneGreedyDp::new())
        }
    };
    let sim = SimConfig {
        threads: if no_op_knobs { 4 } else { 0 },
        drain: !no_op_knobs,
        congestion: match cfg.profile {
            Profile::None => None,
            Profile::Flat => Some(Arc::new(CongestionProfile::flat())),
            Profile::TwoPeak => Some(Arc::new(CongestionProfile::chengdu_two_peak())),
        },
        td_oracle: cfg.td_oracle,
        ..sim_config(sc)
    };
    let start = stream[0].time();
    let (oracle, workers) = (sc.oracle.clone(), sc.workers.clone());
    let (mut metrics, events, audit_errors, assigned, handoffs) = match cfg.service {
        Service::Plain => {
            let mut service = MobilityService::new(oracle, workers, planner(), sim, start);
            for &event in stream {
                service.submit(event);
            }
            let out = service.drain();
            let assigned = out.state.total_assigned_distance();
            (out.metrics, out.events, out.audit_errors, assigned, 0)
        }
        Service::Sharded(shards) => {
            let shard_cfg = ShardConfig { shards, sim };
            let mut service = ShardedService::new(oracle, workers, |_| planner(), shard_cfg, start);
            for &event in stream {
                service.submit(event);
            }
            let out = service.drain();
            let assigned = out.total_assigned_distance();
            (
                out.metrics,
                out.events,
                out.audit_errors,
                assigned,
                out.handoffs,
            )
        }
    };
    assert_eq!(audit_errors, Vec::<String>::new(), "{cfg:?}: audit");
    assert_eq!(
        metrics.driven_distance, assigned,
        "{cfg:?}: driven == Σ assigned"
    );
    assert_eq!(
        metrics.served + metrics.rejected + metrics.cancelled,
        metrics.requests,
        "{cfg:?}: every request has exactly one fate"
    );
    assert_eq!(metrics.requests, sc.requests.len(), "{cfg:?}");
    assert_eq!(
        (metrics.served, metrics.rejected, metrics.cancelled),
        fates_from_log(&events),
        "{cfg:?}: the reported tallies are the log's"
    );
    metrics.planning_time = std::time::Duration::ZERO;
    Observed {
        events,
        metrics,
        handoffs,
    }
}

#[test]
fn every_configuration_is_clean_and_the_promised_identities_hold() {
    let mut observed = BTreeMap::new();
    for mixed_fleet in [false, true] {
        let sc = scenario(mixed_fleet);
        let stream = peak_hour_stream(&sc);
        for service in [Service::Plain, Service::Sharded(1), Service::Sharded(4)] {
            for profile in [Profile::None, Profile::Flat, Profile::TwoPeak] {
                for td_oracle in [false, true] {
                    let cfg = Config {
                        mixed_fleet,
                        service,
                        profile,
                        td_oracle,
                    };
                    observed.insert(cfg, run(&sc, &stream, cfg, false));
                }
            }
        }
    }
    assert_eq!(observed.len(), 36);

    for (cfg, got) in &observed {
        assert_eq!(
            got,
            &observed[&cfg.canonical()],
            "{cfg:?} diverged from {:?}",
            cfg.canonical()
        );
    }

    // The axes are live, not vacuous: the stream cancels, K = 4 moves
    // workers across seams, the peak profile changes the log, and the
    // mixed fleet reports its three classes.
    let at = |mixed_fleet, service, profile| {
        &observed[&Config {
            mixed_fleet,
            service,
            profile,
            td_oracle: false,
        }]
    };
    let base = at(false, Service::Plain, Profile::None);
    assert!(base.metrics.cancelled > 0);
    assert!(at(false, Service::Sharded(4), Profile::None).handoffs > 0);
    assert_ne!(
        base.events,
        at(false, Service::Plain, Profile::TwoPeak).events
    );
    assert_eq!(base.metrics.per_class.len(), 1);
    assert_eq!(
        at(true, Service::Plain, Profile::None)
            .metrics
            .per_class
            .len(),
        3
    );
}

/// The knobs nothing reads any more, each set away from its default:
/// the width a caller written against the retired per-request fan-out
/// still sets (`PruneGreedyDp::with_threads(4)` together with
/// `SimConfig { threads: 4, .. }`) and `SimConfig { drain: false, .. }`
/// (every run drains and audits its exact ledgers). The run is the
/// canonical one byte for byte. Run on the congested TD configuration,
/// where the scan also gates.
#[test]
fn the_no_op_knobs_change_nothing() {
    let sc = scenario(false);
    let stream = peak_hour_stream(&sc);
    let cfg = Config {
        mixed_fleet: false,
        service: Service::Plain,
        profile: Profile::TwoPeak,
        td_oracle: true,
    };
    assert_eq!(run(&sc, &stream, cfg, true), run(&sc, &stream, cfg, false));
}
