//! One-stop scenario construction: network + oracle + fleet + stream.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use road_network::cache::LruCachedOracle;
use road_network::congestion::CongestionProfile;
use road_network::graph::RoadNetwork;
use road_network::oracle::{DistanceOracle, HubLabelOracle};
use road_network::VertexId;
use urpsm_core::event::{PlatformEvent, ReassignPolicy};
use urpsm_core::types::{
    ClassConstraint, ClassId, ClassTable, Request, RequestId, Time, Worker, WorkerId,
};

use crate::fleet::FleetMix;
use crate::network_gen::{grid_city, ring_radial_city};
use crate::requests::{RequestStreamConfig, RequestStreamGenerator};
use crate::MINUTE_CS;

/// The two cities of §6.1, as synthetic stand-ins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum City {
    /// Manhattan-style grid (NYC-like).
    NycLike,
    /// Ring-and-radial city (Chengdu-like).
    ChengduLike,
}

impl City {
    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            City::NycLike => "NYC-like",
            City::ChengduLike => "Chengdu-like",
        }
    }
}

/// A fully materialized experiment input.
pub struct Scenario {
    /// Human-readable name.
    pub name: String,
    /// The road network.
    pub network: Arc<RoadNetwork>,
    /// Shared distance oracle (hub labels or Dijkstra, cache-fronted).
    pub oracle: Arc<dyn DistanceOracle>,
    /// The fleet.
    pub workers: Vec<Worker>,
    /// The request stream, sorted by release time.
    pub requests: Vec<Request>,
    /// Cancellations `(time, request)`, sorted by time (empty unless
    /// [`ScenarioBuilder::cancel_rate`] was set).
    pub cancellations: Vec<(Time, RequestId)>,
    /// Fleet churn (worker joins/departures), sorted by time (empty
    /// unless [`ScenarioBuilder::fleet_churn`] was set).
    pub fleet_events: Vec<PlatformEvent>,
    /// Default platform grid cell (meters).
    pub grid_cell_m: f64,
    /// Objective weight `α`.
    pub alpha: u64,
    /// Supply-side congestion profile for the platform
    /// ([`ScenarioBuilder::congestion`]); `None` = free flow.
    pub congestion: Option<Arc<CongestionProfile>>,
    /// Vehicle-class table of a heterogeneous fleet
    /// ([`ScenarioBuilder::fleet_mix`]); `None` = the homogeneous
    /// single-standard-class fleet, which keeps every downstream layer
    /// on the pre-class code path byte for byte.
    pub classes: Option<Arc<ClassTable>>,
}

impl Scenario {
    /// The first timestamp of [`Scenario::event_stream`] (0 when the
    /// stream is empty) — where a service over this scenario starts
    /// its clock. Each source is sorted by construction, so this is
    /// the min of the three heads; nothing is merged or sorted.
    pub fn start_time(&self) -> Time {
        [
            self.requests.first().map(|r| r.release),
            self.cancellations.first().map(|&(t, _)| t),
            self.fleet_events.first().map(PlatformEvent::time),
        ]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(0)
    }

    /// Merges requests, cancellations and fleet churn into one ordered
    /// event stream, ready to feed a `MobilityService` one event at a
    /// time. Ties break on [`PlatformEvent::tie_rank`] (joins before
    /// arrivals before cancellations before departures).
    pub fn event_stream(&self) -> Vec<PlatformEvent> {
        let mut events: Vec<PlatformEvent> = self
            .requests
            .iter()
            .map(|r| PlatformEvent::RequestArrived(*r))
            .chain(
                self.cancellations
                    .iter()
                    .map(|&(at, request)| PlatformEvent::RequestCancelled { at, request }),
            )
            .chain(self.fleet_events.iter().copied())
            .collect();
        events.sort_by_key(|e| (e.time(), e.tie_rank()));
        urpsm_obs::with(|m| m.workload_events.add(events.len() as u64));
        events
    }
}

/// Distance-cache capacity of every scenario oracle: the
/// [`LruCachedOracle`] in front of the [`HubLabelOracle`].
const LRU_CAPACITY: usize = 1 << 20;

enum NetworkSpec {
    Grid {
        nx: usize,
        ny: usize,
        block_m: f64,
    },
    Ring {
        rings: usize,
        spokes: usize,
        gap_m: f64,
    },
}

/// Fluent builder for [`Scenario`]s.
pub struct ScenarioBuilder {
    name: String,
    seed: u64,
    spec: NetworkSpec,
    workers: usize,
    capacity_mu: u32,
    requests: usize,
    horizon: Time,
    deadline_offset: Time,
    penalty_factor: u64,
    hotspots: usize,
    inter_region: f64,
    rush_skew: f64,
    grid_cell_m: f64,
    alpha: u64,
    cancel_rate: f64,
    cancel_delay: Time,
    departures: usize,
    arrivals: usize,
    departure_policy: ReassignPolicy,
    congestion: Option<Arc<CongestionProfile>>,
    fleet: Option<FleetMix>,
    transfer_fraction: f64,
}

impl ScenarioBuilder {
    /// Starts a builder with quickstart-friendly defaults.
    pub fn named(name: &str) -> Self {
        ScenarioBuilder {
            name: name.to_string(),
            seed: 0,
            spec: NetworkSpec::Grid {
                nx: 16,
                ny: 16,
                block_m: 400.0,
            },
            workers: 10,
            capacity_mu: 4,
            requests: 100,
            horizon: 60 * MINUTE_CS,
            deadline_offset: 10 * MINUTE_CS,
            penalty_factor: 10,
            hotspots: 3,
            inter_region: 0.0,
            rush_skew: 1.0,
            grid_cell_m: 2_000.0,
            alpha: 1,
            cancel_rate: 0.0,
            cancel_delay: 2 * MINUTE_CS,
            departures: 0,
            arrivals: 0,
            departure_policy: ReassignPolicy::Reassign,
            congestion: None,
            fleet: None,
            transfer_fraction: 0.0,
        }
    }

    /// Uses an `nx × ny` grid city with 400 m blocks.
    pub fn grid_city(mut self, nx: usize, ny: usize) -> Self {
        self.spec = NetworkSpec::Grid {
            nx,
            ny,
            block_m: 400.0,
        };
        self
    }

    /// Uses a ring-and-radial city.
    pub fn ring_city(mut self, rings: usize, spokes: usize) -> Self {
        self.spec = NetworkSpec::Ring {
            rings,
            spokes,
            gap_m: 600.0,
        };
        self
    }

    /// Fleet size `|W|`.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Mean worker capacity (Table 5's `K_w`, Gaussian `μ`).
    pub fn capacity(mut self, mu: u32) -> Self {
        self.capacity_mu = mu.max(1);
        self
    }

    /// Stream size `|R|`.
    pub fn requests(mut self, n: usize) -> Self {
        self.requests = n;
        self
    }

    /// Simulated period length.
    pub fn horizon(mut self, cs: Time) -> Self {
        self.horizon = cs;
        self
    }

    /// Deadline offset Δ (so `e_r = t_r + Δ`).
    pub fn deadline_offset(mut self, cs: Time) -> Self {
        self.deadline_offset = cs;
        self
    }

    /// Penalty factor β (so `p_r = β · dis(o_r, d_r)`).
    pub fn penalty_factor(mut self, beta: u64) -> Self {
        self.penalty_factor = beta;
        self
    }

    /// Platform grid cell size in meters (Table 5's `g`).
    pub fn grid_cell_m(mut self, m: f64) -> Self {
        self.grid_cell_m = m;
        self
    }

    /// Objective weight α.
    pub fn alpha(mut self, a: u64) -> Self {
        self.alpha = a;
        self
    }

    /// Number of demand hotspots.
    pub fn hotspots(mut self, k: usize) -> Self {
        self.hotspots = k.max(1);
        self
    }

    /// Fraction of trips whose destination targets a *different*
    /// hotspot than the origin's own (clamped to `[0, 1]`; needs
    /// [`ScenarioBuilder::hotspots`] ≥ 2 to matter). The knob that
    /// makes demand actually cross geo-shard seams — at 0 (the
    /// default), trips follow the local lognormal length model and
    /// mostly stay within one region.
    pub fn inter_region_trips(mut self, f: f64) -> Self {
        self.inter_region = f.clamp(0.0, 1.0);
        self
    }

    /// Multiplier on the rush-hour peak mass (default 1.0 keeps the
    /// classic 25 % morning / 30 % evening arrival split; larger values
    /// pile demand into the peaks — the load shape that stresses a
    /// sharded dispatcher hardest — and 0.0 flattens the day).
    pub fn rush_hour_skew(mut self, s: f64) -> Self {
        self.rush_skew = s.max(0.0);
        self
    }

    /// RNG seed (workers, stream, network perturbations).
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Fraction of requests that are cancelled some time after release
    /// (clamped to `[0, 1]`). Cancellation times are drawn uniformly in
    /// `(release, release + cancel_delay]`; whether a cancellation
    /// lands before the pickup — and so actually frees the route — is
    /// decided by the replay, exactly as on a live platform.
    pub fn cancel_rate(mut self, p: f64) -> Self {
        self.cancel_rate = p.clamp(0.0, 1.0);
        self
    }

    /// Maximum delay between a request's release and its cancellation
    /// (only meaningful with a non-zero [`ScenarioBuilder::cancel_rate`]).
    pub fn cancel_delay(mut self, cs: Time) -> Self {
        self.cancel_delay = cs.max(1);
        self
    }

    /// Fleet churn: `departures` workers (drawn from the initial fleet)
    /// leave mid-horizon, and `arrivals` fresh workers join during the
    /// first half of the horizon.
    pub fn fleet_churn(mut self, departures: usize, arrivals: usize) -> Self {
        self.departures = departures;
        self.arrivals = arrivals;
        self
    }

    /// What departing workers do with their un-picked requests
    /// (default: hand them back through the planner).
    pub fn departure_policy(mut self, p: ReassignPolicy) -> Self {
        self.departure_policy = p;
        self
    }

    /// Installs a supply-side congestion profile: travel times become
    /// departure-time dependent under the profile's per-bucket (and
    /// optionally per-region) multipliers, while demand, fleet and every
    /// seeded draw stay byte-identical — the knob consumes no
    /// randomness. The flat profile reproduces free-flow runs exactly
    /// (`tests/congestion_equivalence.rs`).
    pub fn congestion(mut self, profile: CongestionProfile) -> Self {
        self.congestion = Some(Arc::new(profile));
        self
    }

    /// Installs a heterogeneous fleet: workers are assigned classes by
    /// the mix's fractions and re-draw their capacities around the
    /// class's nominal capacity, all from an independent RNG stream —
    /// the base fleet-origin and request draws stay byte-identical.
    /// Unset (or [`FleetMix::single`]) is the homogeneous fleet.
    pub fn fleet_mix(mut self, mix: FleetMix) -> Self {
        self.fleet = Some(mix);
        self
    }

    /// Fraction of trips split into a two-leg mode transfer (clamped
    /// to `[0, 1]`): a feeder leg (origin → central hub) that only the
    /// mix's *last* class may serve, then a trunk leg (hub →
    /// destination) reserved for the second-to-last class. Needs a
    /// fleet mix with at least two classes.
    pub fn mode_transfer_fraction(mut self, f: f64) -> Self {
        self.transfer_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Panics on scale knobs that cannot describe a real workload —
    /// the same construction-time contract as
    /// [`crate::requests::WeightedCdf`]: fail loudly where the knob
    /// was set, not deep inside generation with an opaque overflow.
    fn validate(&self) {
        let mix = self.fleet.as_ref();
        if let Some(mix) = mix {
            let sum: f64 = mix.entries().iter().map(|(_, f)| f).sum();
            assert!(
                (sum - 1.0).abs() <= 1e-6,
                "fleet-mix fractions must sum to 1 (got {sum})"
            );
            for (class, f) in mix.entries() {
                assert!(
                    class.capacity >= 1,
                    "fleet-mix class {:?} has zero capacity",
                    class.name
                );
                assert!(
                    (0.0..=1.0).contains(f) && f.is_finite(),
                    "fleet-mix fraction for {:?} must be in [0, 1] (got {f})",
                    class.name
                );
            }
        }
        assert!(
            self.transfer_fraction == 0.0 || mix.is_some_and(|m| m.entries().len() >= 2),
            "mode-transfer legs need a fleet mix with at least two classes"
        );
        match self.spec {
            NetworkSpec::Grid { nx, ny, .. } => {
                assert!(nx >= 1 && ny >= 1, "grid city needs nx, ny >= 1");
            }
            NetworkSpec::Ring { rings, spokes, .. } => {
                assert!(
                    rings >= 1 && spokes >= 3,
                    "ring city needs rings >= 1 and spokes >= 3"
                );
            }
        }
        assert!(
            self.requests == 0 || self.horizon >= 1,
            "a non-empty request stream needs a horizon >= 1 cs"
        );
        assert!(
            self.deadline_offset >= 1,
            "deadline offset must be >= 1 cs (a zero Δ makes every request stillborn)"
        );
        assert!(
            self.grid_cell_m.is_finite() && self.grid_cell_m > 0.0,
            "platform grid cell must be a positive, finite meter length"
        );
        assert!(
            self.requests <= u32::MAX as usize,
            "request ids are u32: at most {} requests",
            u32::MAX
        );
        assert!(
            self.workers.saturating_add(self.arrivals) <= u32::MAX as usize,
            "worker ids are u32: at most {} workers including joiners",
            u32::MAX
        );
    }

    /// Materializes the scenario (builds network, labels, fleet and
    /// stream — the preprocessing the paper excludes from timings).
    ///
    /// # Panics
    /// On nonsensical scale knobs (zero-sized city, empty horizon
    /// under a non-empty stream, zero deadline offset, non-finite grid
    /// cell, ids overflowing `u32`) — each with a message naming the
    /// offending knob.
    pub fn build(self) -> Scenario {
        self.validate();
        let mix = self.fleet.as_ref();
        let network: Arc<RoadNetwork> = match self.spec {
            NetworkSpec::Grid { nx, ny, block_m } => {
                Arc::new(grid_city(nx, ny, block_m, self.seed))
            }
            NetworkSpec::Ring {
                rings,
                spokes,
                gap_m,
            } => Arc::new(ring_radial_city(rings, spokes, gap_m)),
        };

        let oracle: Arc<dyn DistanceOracle> = Arc::new(LruCachedOracle::new(
            Arc::new(HubLabelOracle::build(network.clone())),
            LRU_CAPACITY,
            0,
        ));

        // Fleet: uniform initial vertices, Gaussian capacities (§6.1).
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(0x5eed));
        let n_vertices = network.num_vertices() as u32;
        let mut workers: Vec<Worker> = (0..self.workers as u32)
            .map(|i| Worker {
                class: Default::default(),
                id: WorkerId(i),
                origin: VertexId(rng.gen_range(0..n_vertices)),
                capacity: gauss_capacity(&mut rng, self.capacity_mu),
            })
            .collect();

        let cfg = RequestStreamConfig {
            count: self.requests,
            horizon: self.horizon,
            deadline_offset: self.deadline_offset,
            penalty_factor: self.penalty_factor,
            hotspots: self.hotspots,
            inter_hotspot: self.inter_region,
            rush_skew: self.rush_skew,
            ..Default::default()
        };
        let mut gen = RequestStreamGenerator::new(&network, cfg, self.seed.wrapping_add(0xcafe));
        let mut requests = gen.generate(&*oracle);

        // Two-leg mode transfers: a selected trip becomes a feeder leg
        // (origin → hub, last class only) plus a trunk leg (hub →
        // destination, second-to-last class only), sharing the trip's
        // time budget. Independent RNG stream, so a zero fraction is
        // byte-identical to no knob at all.
        let heterogeneous = mix.is_some_and(|m| !m.is_single_standard());
        if self.transfer_fraction > 0.0 {
            let n_classes = mix.map_or(1, |m| m.entries().len());
            let feeder = ClassConstraint::Only(ClassId((n_classes - 1) as u16));
            let trunk = ClassConstraint::Only(ClassId((n_classes - 2) as u16));
            let hub = central_hub(&network);
            let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(0x1e95));
            let mut split = Vec::with_capacity(requests.len());
            for r in requests {
                if r.origin != hub && r.destination != hub && rng.gen_bool(self.transfer_fraction) {
                    let handover = r.release + (r.deadline - r.release) / 2;
                    split.push(Request {
                        destination: hub,
                        deadline: handover,
                        penalty: self.penalty_factor * oracle.dis(r.origin, hub),
                        class: feeder,
                        ..r
                    });
                    split.push(Request {
                        origin: hub,
                        release: handover,
                        penalty: self.penalty_factor * oracle.dis(hub, r.destination),
                        class: trunk,
                        ..r
                    });
                } else {
                    split.push(r);
                }
            }
            split.sort_by_key(|r| r.release);
            for (i, r) in split.iter_mut().enumerate() {
                r.id = RequestId(i as u32);
            }
            requests = split;
        }

        // Lifecycle extras, seeded independently so enabling them never
        // perturbs the base fleet/stream draws.
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(0x11fe));
        let mut cancellations: Vec<(Time, RequestId)> = Vec::new();
        if self.cancel_rate > 0.0 {
            for r in &requests {
                if rng.gen_bool(self.cancel_rate) {
                    let at = r.release + rng.gen_range(1..=self.cancel_delay);
                    cancellations.push((at, r.id));
                }
            }
            cancellations.sort_unstable();
        }

        let mut fleet_events: Vec<PlatformEvent> = Vec::new();
        if self.arrivals > 0 {
            // Joining ids must be dense *in join order*: draw the join
            // times first, sort, then hand out sequential ids.
            let mut join_times: Vec<Time> = (0..self.arrivals)
                .map(|_| rng.gen_range(0..=self.horizon / 2))
                .collect();
            join_times.sort_unstable();
            for (i, at) in join_times.into_iter().enumerate() {
                fleet_events.push(PlatformEvent::WorkerJoined {
                    at,
                    worker: Worker {
                        class: Default::default(),
                        id: WorkerId((self.workers + i) as u32),
                        origin: VertexId(rng.gen_range(0..n_vertices)),
                        capacity: gauss_capacity(&mut rng, self.capacity_mu),
                    },
                });
            }
        }
        let mut pool: Vec<u32> = (0..self.workers as u32).collect();
        for _ in 0..self.departures.min(self.workers) {
            let w = pool.swap_remove(rng.gen_range(0..pool.len()));
            fleet_events.push(PlatformEvent::WorkerLeft {
                at: self.horizon / 4 + rng.gen_range(0..=self.horizon / 2),
                worker: WorkerId(w),
                reassign: self.departure_policy,
            });
        }
        fleet_events.sort_by_key(|e| (e.time(), e.tie_rank()));

        // Class assignment, last and from its own RNG stream: the
        // homogeneous default never touches a worker, and a mix never
        // perturbs the origin/capacity/lifecycle draws above.
        let mut classes = None;
        if heterogeneous {
            let mix = mix.expect("heterogeneous implies a mix");
            let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(0xc1a5));
            let assign = |w: &mut Worker, rng: &mut StdRng| {
                w.class = mix.sample(rng.gen::<f64>());
                w.capacity = gauss_capacity(rng, mix.entries()[w.class.idx()].0.capacity);
            };
            for w in &mut workers {
                assign(w, &mut rng);
            }
            for e in &mut fleet_events {
                if let PlatformEvent::WorkerJoined { worker, .. } = e {
                    assign(worker, &mut rng);
                }
            }
            classes = Some(Arc::new(mix.class_table()));
        }

        Scenario {
            name: self.name,
            network,
            oracle,
            workers,
            requests,
            cancellations,
            fleet_events,
            grid_cell_m: self.grid_cell_m,
            alpha: self.alpha,
            congestion: self.congestion,
            classes,
        }
    }
}

/// The deterministic transfer hub: the vertex nearest the network's
/// point centroid (a ring city's center, a grid city's middle).
fn central_hub(network: &RoadNetwork) -> VertexId {
    let n = network.num_vertices();
    let (mut cx, mut cy) = (0.0, 0.0);
    for v in 0..n {
        let p = network.point(VertexId(v as u32));
        cx += p.x;
        cy += p.y;
    }
    let (cx, cy) = (cx / n as f64, cy / n as f64);
    let mut best = (f64::INFINITY, VertexId(0));
    for v in 0..n {
        let p = network.point(VertexId(v as u32));
        let d2 = (p.x - cx).powi(2) + (p.y - cy).powi(2);
        if d2 < best.0 {
            best = (d2, VertexId(v as u32));
        }
    }
    best.1
}

/// Gaussian worker capacity `K_w ~ N(μ, ~2)` via the Irwin–Hall(4)
/// approximation (§6.1's capacity distribution), clamped to ≥ 1 — one
/// draw function so the initial fleet and mid-horizon joiners share
/// the same distribution.
fn gauss_capacity(rng: &mut StdRng, mu: u32) -> u32 {
    let sum4: f64 = (0..4).map(|_| rng.gen::<f64>()).sum::<f64>() / 4.0;
    let cap = (f64::from(mu) + (sum4 - 0.5) * 6.93).round();
    cap.max(1.0) as u32
}

/// The scaled NYC-like preset: a 48×48 grid city (≈2.3k vertices, the
/// paper's NYC graph ÷350), 600 workers, 6k requests over two hours.
pub fn nyc_like(seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::named("nyc-like")
        .grid_city(48, 48)
        .workers(600)
        .requests(6_000)
        .horizon(120 * MINUTE_CS)
        .hotspots(5)
        .penalty_factor(10)
        .seed(seed)
}

/// The scaled Chengdu-like preset: a 24-ring × 48-spoke radial city
/// (≈1.2k vertices), 200 workers, 3k requests over two hours.
pub fn chengdu_like(seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::named("chengdu-like")
        .ring_city(24, 48)
        .workers(200)
        .requests(3_000)
        .horizon(120 * MINUTE_CS)
        .hotspots(4)
        .penalty_factor(10)
        .seed(seed)
}

/// The mode-transfer preset: the Chengdu-like city under the mixed
/// three-class fleet ([`FleetMix::mixed`]), with 30 % of trips split
/// into a feeder leg (e-bikes only, origin → central hub) and a trunk
/// leg (vans only, hub → destination) — the two-leg multi-modal
/// workload of DESIGN.md §12.
pub fn mode_transfer(seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::named("mode-transfer")
        .ring_city(24, 48)
        .workers(200)
        .requests(3_000)
        .horizon(120 * MINUTE_CS)
        .hotspots(4)
        .penalty_factor(10)
        .fleet_mix(FleetMix::mixed())
        .mode_transfer_fraction(0.3)
        .seed(seed)
}

/// The metropolis preset: the Chengdu generator scaled to a full
/// day of city-wide load — a 48-ring × 96-spoke radial city (4.6k
/// vertices, ≈29 km across), 100k workers and 1M requests over 24
/// hours, spread over 8 hotspots. This is the ingestion service's
/// stress workload (`bench ingest`); smoke-scale runs divide
/// `requests`/`workers` down rather than changing the city, so the
/// demand geometry stays the same at every scale.
pub fn metropolis(seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::named("metropolis")
        .ring_city(48, 96)
        .workers(100_000)
        .requests(1_000_000)
        .horizon(24 * 60 * MINUTE_CS)
        .hotspots(8)
        .deadline_offset(10 * MINUTE_CS)
        .penalty_factor(10)
        .seed(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_scenario_builds() {
        let s = ScenarioBuilder::named("t")
            .grid_city(6, 6)
            .workers(3)
            .requests(20)
            .seed(7)
            .build();
        assert_eq!(s.workers.len(), 3);
        assert_eq!(s.requests.len(), 20);
        assert_eq!(s.network.num_vertices(), 36);
        assert!(s.requests.windows(2).all(|w| w[0].release <= w[1].release));
        // Oracle answers and matches the network metric.
        let r = &s.requests[0];
        assert!(s.oracle.dis(r.origin, r.destination) > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ScenarioBuilder::named("t")
            .grid_city(5, 5)
            .requests(10)
            .seed(3)
            .build();
        let b = ScenarioBuilder::named("t")
            .grid_city(5, 5)
            .requests(10)
            .seed(3)
            .build();
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.workers, b.workers);
    }

    #[test]
    fn capacities_center_on_mu() {
        let s = ScenarioBuilder::named("t")
            .grid_city(5, 5)
            .workers(500)
            .capacity(6)
            .requests(1)
            .seed(1)
            .build();
        let avg: f64 =
            s.workers.iter().map(|w| f64::from(w.capacity)).sum::<f64>() / s.workers.len() as f64;
        assert!((avg - 6.0).abs() < 0.5, "avg capacity {avg}");
        assert!(s.workers.iter().all(|w| w.capacity >= 1));
    }

    #[test]
    fn lifecycle_knobs_generate_ordered_extras() {
        let s = ScenarioBuilder::named("t")
            .grid_city(8, 8)
            .workers(6)
            .requests(200)
            .seed(11)
            .cancel_rate(0.2)
            .cancel_delay(3_000)
            .fleet_churn(2, 3)
            .build();
        assert!(!s.cancellations.is_empty());
        assert!(
            s.cancellations.len() < 200,
            "rate must not cancel everything"
        );
        assert!(s.cancellations.windows(2).all(|w| w[0].0 <= w[1].0));
        // Every cancellation refers to a real request, after release.
        for &(at, rid) in &s.cancellations {
            let r = s.requests.iter().find(|r| r.id == rid).expect("real id");
            assert!(at > r.release);
        }
        let joins: Vec<_> = s
            .fleet_events
            .iter()
            .filter_map(|e| match e {
                PlatformEvent::WorkerJoined { worker, .. } => Some(worker.id),
                _ => None,
            })
            .collect();
        assert_eq!(joins, vec![WorkerId(6), WorkerId(7), WorkerId(8)]);
        let departures = s
            .fleet_events
            .iter()
            .filter(|e| matches!(e, PlatformEvent::WorkerLeft { .. }))
            .count();
        assert_eq!(departures, 2);

        // The merged stream is one ordered feed.
        let stream = s.event_stream();
        assert_eq!(
            stream.len(),
            s.requests.len() + s.cancellations.len() + s.fleet_events.len()
        );
        assert!(stream
            .windows(2)
            .all(|w| (w[0].time(), w[0].tie_rank()) <= (w[1].time(), w[1].tie_rank())));
    }

    #[test]
    fn lifecycle_knobs_do_not_perturb_the_base_scenario() {
        let plain = ScenarioBuilder::named("t")
            .grid_city(6, 6)
            .workers(4)
            .requests(50)
            .seed(3)
            .build();
        let churny = ScenarioBuilder::named("t")
            .grid_city(6, 6)
            .workers(4)
            .requests(50)
            .seed(3)
            .cancel_rate(0.3)
            .fleet_churn(1, 1)
            .build();
        assert_eq!(plain.requests, churny.requests);
        assert_eq!(plain.workers, churny.workers);
        assert!(plain.cancellations.is_empty());
        assert!(plain.fleet_events.is_empty());
    }

    #[test]
    fn multi_region_knobs_shape_the_stream() {
        let base = || {
            ScenarioBuilder::named("t")
                .grid_city(16, 16)
                .workers(4)
                .requests(600)
                .hotspots(4)
                .seed(9)
        };
        let plain = base().build();
        let multi = base().inter_region_trips(0.5).rush_hour_skew(1.5).build();
        // Same request count and ids, different spatial/temporal shape.
        assert_eq!(plain.requests.len(), multi.requests.len());
        assert_ne!(plain.requests, multi.requests);
        let mean_len = |s: &Scenario| {
            s.requests
                .iter()
                .map(|r| {
                    s.network
                        .point(r.origin)
                        .euclidean_m(&s.network.point(r.destination))
                })
                .sum::<f64>()
                / s.requests.len() as f64
        };
        assert!(
            mean_len(&multi) > mean_len(&plain),
            "inter-region trips must lengthen the mean OD pair: {:.0} vs {:.0}",
            mean_len(&multi),
            mean_len(&plain)
        );
        // Explicit defaults are the identity (the knobs ride the same
        // seed streams).
        let explicit = base().inter_region_trips(0.0).rush_hour_skew(1.0).build();
        assert_eq!(plain.requests, explicit.requests);
        assert_eq!(plain.workers, explicit.workers);
    }

    #[test]
    fn congestion_knob_changes_no_seeded_draw() {
        let base = || {
            ScenarioBuilder::named("t")
                .grid_city(6, 6)
                .workers(4)
                .requests(40)
                .seed(13)
        };
        let plain = base().build();
        let congested = base()
            .congestion(CongestionProfile::chengdu_two_peak())
            .build();
        // Supply-side congestion must not perturb demand or fleet.
        assert_eq!(plain.requests, congested.requests);
        assert_eq!(plain.workers, congested.workers);
        assert!(plain.congestion.is_none());
        let p = congested.congestion.expect("profile installed");
        assert_eq!(
            road_network::congestion::TravelTimeProvider::name(&*p),
            "chengdu-2peak"
        );
    }

    #[test]
    fn presets_have_expected_shape() {
        // Tiny smoke build of the preset structure without paying the
        // full label-construction bill.
        let s = nyc_like(1).grid_city(8, 8).workers(10).requests(30).build();
        assert_eq!(s.name, "nyc-like");
        let s2 = chengdu_like(1)
            .ring_city(4, 8)
            .workers(5)
            .requests(20)
            .build();
        assert_eq!(s2.name, "chengdu-like");
        assert_eq!(s2.network.num_vertices(), 4 * 8 + 1);
    }

    #[test]
    fn metropolis_smoke_scale_keeps_the_city_and_horizon() {
        // Build the metropolis preset at ÷10_000 demand scale: the
        // city and day-long horizon are the real thing; only the
        // stream/fleet are scaled down (as `bench ingest` does).
        let s = metropolis(7).workers(10).requests(100).build();
        assert_eq!(s.name, "metropolis");
        assert_eq!(s.network.num_vertices(), 48 * 96 + 1);
        assert_eq!(s.workers.len(), 10);
        assert_eq!(s.requests.len(), 100);
        let horizon = 24 * 60 * MINUTE_CS;
        assert!(s.requests.iter().all(|r| r.release <= horizon));
        assert!(s
            .requests
            .iter()
            .all(|r| r.deadline == r.release + 10 * MINUTE_CS));
    }

    #[test]
    fn fleet_mix_changes_no_seeded_draw() {
        let base = || {
            ScenarioBuilder::named("t")
                .grid_city(6, 6)
                .workers(30)
                .requests(40)
                .seed(13)
        };
        let plain = base().build();
        let mixed = base().fleet_mix(FleetMix::mixed()).build();
        // The mix must not perturb demand or the fleet's placement;
        // classes/capacities are redrawn from their own stream.
        assert_eq!(plain.requests, mixed.requests);
        assert_eq!(plain.workers.len(), mixed.workers.len());
        for (p, m) in plain.workers.iter().zip(&mixed.workers) {
            assert_eq!(p.id, m.id);
            assert_eq!(p.origin, m.origin);
        }
        assert!(plain.classes.is_none());
        let table = mixed.classes.expect("mixed fleet installs a table");
        assert_eq!(table.len(), 3);
        assert!(mixed.workers.iter().all(|w| w.capacity >= 1));
        // All three classes appear in a fleet of 30 with overwhelming
        // probability at this seed (pinned).
        let mut seen = [false; 3];
        for w in &mixed.workers {
            seen[w.class.idx()] = true;
        }
        assert!(seen.iter().all(|&s| s), "classes drawn: {seen:?}");
        // An explicit single mix is the identity, byte for byte.
        let single = base().fleet_mix(FleetMix::single()).build();
        assert_eq!(plain.workers, single.workers);
        assert_eq!(plain.requests, single.requests);
        assert!(single.classes.is_none());
    }

    #[test]
    fn mode_transfer_splits_trips_into_constrained_legs() {
        let s = mode_transfer(5)
            .ring_city(6, 12)
            .workers(10)
            .requests(60)
            .build();
        assert_eq!(s.name, "mode-transfer");
        assert!(s.requests.len() > 60, "some trips must have split");
        assert!(s.requests.windows(2).all(|w| w[0].release <= w[1].release));
        // Ids re-issued densely after the split.
        for (i, r) in s.requests.iter().enumerate() {
            assert_eq!(r.id, RequestId(i as u32));
        }
        let feeder = s
            .requests
            .iter()
            .filter(|r| r.class == ClassConstraint::Only(ClassId(2)))
            .count();
        let trunk = s
            .requests
            .iter()
            .filter(|r| r.class == ClassConstraint::Only(ClassId(1)))
            .count();
        assert_eq!(feeder, trunk, "legs come in pairs");
        assert!(feeder > 0, "a 30% fraction over 60 trips must split some");
    }

    #[test]
    #[should_panic(expected = "fractions must sum to 1")]
    fn fleet_mix_fractions_must_sum_to_one() {
        use urpsm_core::types::VehicleClass;
        let _ = ScenarioBuilder::named("bad")
            .fleet_mix(FleetMix::new(vec![
                (VehicleClass::standard(), 0.5),
                (
                    VehicleClass {
                        name: "van",
                        capacity: 6,
                        speed_permille: 1_100,
                        range: None,
                    },
                    0.2,
                ),
            ]))
            .build();
    }

    #[test]
    #[should_panic(expected = "zero capacity")]
    fn fleet_mix_rejects_zero_capacity_classes() {
        use urpsm_core::types::VehicleClass;
        let _ = ScenarioBuilder::named("bad")
            .fleet_mix(FleetMix::new(vec![(
                VehicleClass {
                    name: "ghost",
                    capacity: 0,
                    speed_permille: 1_000,
                    range: None,
                },
                1.0,
            )]))
            .build();
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn mode_transfer_needs_a_multi_class_mix() {
        let _ = ScenarioBuilder::named("bad")
            .mode_transfer_fraction(0.5)
            .fleet_mix(FleetMix::single())
            .build();
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn zero_horizon_under_a_stream_is_rejected() {
        let _ = ScenarioBuilder::named("bad")
            .requests(10)
            .horizon(0)
            .build();
    }

    #[test]
    #[should_panic(expected = "deadline offset")]
    fn zero_deadline_offset_is_rejected() {
        let _ = ScenarioBuilder::named("bad").deadline_offset(0).build();
    }

    #[test]
    #[should_panic(expected = "grid cell")]
    fn non_finite_grid_cell_is_rejected() {
        let _ = ScenarioBuilder::named("bad").grid_cell_m(f64::NAN).build();
    }

    #[test]
    #[should_panic(expected = "nx, ny")]
    fn empty_grid_city_is_rejected() {
        let _ = ScenarioBuilder::named("bad").grid_city(0, 4).build();
    }

    #[test]
    #[should_panic(expected = "spokes")]
    fn degenerate_ring_city_is_rejected() {
        let _ = ScenarioBuilder::named("bad").ring_city(3, 2).build();
    }
}
