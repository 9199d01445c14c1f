//! Golden digests of built scenarios: every preset must keep building
//! the same `Scenario` — the same requests, the same fleet and the same
//! merged event stream — for a given seed. A change to how a workload
//! is generated (a faster vertex snap, a reordered draw) that moves a
//! single endpoint, release or capacity changes a digest here.
//!
//! A faster path through the generator must reproduce these digests
//! unedited. If a deliberate change to the workload model moves them,
//! re-record them in the same commit and say why.

use urpsm_core::event::{PlatformEvent, ReassignPolicy};
use urpsm_core::types::{ClassConstraint, Request, Worker};
use urpsm_workloads::scenario::{chengdu_like, metropolis, nyc_like, Scenario, ScenarioBuilder};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01B3);
    }

    fn request(&mut self, r: &Request) {
        for v in [
            u64::from(r.id.0),
            u64::from(r.origin.0),
            u64::from(r.destination.0),
            r.release,
            r.deadline,
            r.penalty,
            u64::from(r.capacity),
            match r.class {
                ClassConstraint::Any => u64::MAX,
                ClassConstraint::Only(c) => u64::from(c.0),
            },
        ] {
            self.mix(v);
        }
    }

    fn worker(&mut self, w: &Worker) {
        for v in [
            u64::from(w.id.0),
            u64::from(w.origin.0),
            u64::from(w.capacity),
            u64::from(w.class.0),
        ] {
            self.mix(v);
        }
    }
}

/// The digest of everything a scenario feeds a run: the request
/// stream, the initial fleet and the merged event stream.
fn digest(s: &Scenario) -> u64 {
    let mut h = Fnv::new();
    h.mix(s.requests.len() as u64);
    for r in &s.requests {
        h.request(r);
    }
    h.mix(s.workers.len() as u64);
    for w in &s.workers {
        h.worker(w);
    }
    let events = s.event_stream();
    h.mix(events.len() as u64);
    for e in &events {
        match *e {
            PlatformEvent::RequestArrived(r) => {
                h.mix(0);
                h.request(&r);
            }
            PlatformEvent::RequestCancelled { at, request } => {
                h.mix(1);
                h.mix(at);
                h.mix(u64::from(request.0));
            }
            PlatformEvent::WorkerJoined { at, worker } => {
                h.mix(2);
                h.mix(at);
                h.worker(&worker);
            }
            PlatformEvent::WorkerLeft {
                at,
                worker,
                reassign,
            } => {
                h.mix(3);
                h.mix(at);
                h.mix(u64::from(worker.0));
                h.mix(match reassign {
                    ReassignPolicy::Drain => 0,
                    ReassignPolicy::Reassign => 1,
                });
            }
            PlatformEvent::Tick { at } => {
                h.mix(4);
                h.mix(at);
            }
        }
    }
    h.0
}

/// Builds each seed's scenario and compares its digest with the golden
/// one, reporting every seed before failing.
fn check(preset: impl Fn(u64) -> ScenarioBuilder, golden: [(u64, u64); 3]) {
    let got: Vec<(u64, u64)> = golden
        .iter()
        .map(|&(seed, _)| (seed, digest(&preset(seed).build())))
        .collect();
    assert_eq!(got, golden.to_vec(), "(seed, digest) pairs moved");
}

#[test]
fn chengdu_like_scenarios_are_pinned() {
    check(
        chengdu_like,
        [
            (1, 12347093821256261357),
            (7, 12380522582768592974),
            (42, 6564496049400155812),
        ],
    );
}

/// The metropolis city at ≈ 20 k requests, three in ten trips aimed at
/// another hotspot (the inter-region destination branch), with
/// cancellations and fleet churn so the merged stream carries every
/// event kind a scenario generates.
#[test]
fn metropolis_inter_region_scenarios_are_pinned() {
    check(
        |seed| {
            metropolis(seed)
                .requests(20_000)
                .workers(2_000)
                .inter_region_trips(0.3)
                .cancel_rate(0.1)
                .fleet_churn(50, 50)
        },
        [
            (1, 13495911333155186268),
            (7, 11984212567905142720),
            (42, 15738469152890696887),
        ],
    );
}

#[test]
fn grid_city_scenarios_are_pinned() {
    check(
        nyc_like,
        [
            (1, 8404549796162465873),
            (7, 206993174748747511),
            (42, 12534551011869938844),
        ],
    );
}
