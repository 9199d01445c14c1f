//! Request-stream generation (§6.1's dataset features, synthesized).
//!
//! Spatial model: origins are drawn from a Gaussian hotspot mixture
//! over the network's vertices (downtown-heavy, like taxi demand), via
//! a precomputed alias-free cumulative table. Destinations are points
//! drawn around the origin (or around another hotspot), snapped to
//! their nearest vertex on a grid of the vertices built once per
//! generator.
//! Temporal model: arrival times follow a double-peak "rush hour"
//! profile over the simulated day. `K_r` follows the public NYC TLC
//! passenger-count distribution (the paper generates Chengdu's `K_r`
//! from the NYC distribution too). Deadlines are `t_r + Δ` and
//! penalties `β · dis(o_r, d_r)`, both exactly as Table 5 configures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use road_network::geo::Point;
use road_network::graph::RoadNetwork;
use road_network::grid::GridIndex;
use road_network::oracle::DistanceOracle;
use road_network::{Cost, VertexId, INF};
use urpsm_core::types::{Request, RequestId, Time};

/// The NYC TLC passenger-count distribution (2016 yellow cabs,
/// rounded): `P(K_r = i+1) = WEIGHTS[i] / 1000`.
pub const KR_WEIGHTS: [u32; 6] = [709, 145, 42, 21, 52, 31];

/// A cumulative weight table for sampling indices proportionally to
/// non-negative weights (the spatial hotspot-mixture sampler).
///
/// Edge cases are handled at *construction*, where they are bugs the
/// caller can see, rather than at sampling time, where the old inline
/// table panicked on an empty weight list (`len − 1` underflow) and the
/// `min(len − 1)` clamp silently redirected any partition-point
/// overshoot to the last index: [`WeightedCdf::new`] refuses empty
/// tables and non-positive total mass, clamps non-finite or negative
/// weights to zero, and with a finite positive total the draw
/// `x ∈ [0, total)` makes `partition_point` provably in-range —
/// pinned by a debug assertion and the empirical-distribution proptest.
#[derive(Debug, Clone)]
pub struct WeightedCdf {
    cumulative: Vec<f64>,
}

impl WeightedCdf {
    /// Builds the table. Non-finite and negative weights are treated as
    /// zero. Returns `None` when `weights` is empty or the total mass
    /// is not a positive finite number — there is nothing meaningful to
    /// sample from such a table.
    pub fn new(weights: impl IntoIterator<Item = f64>) -> Option<Self> {
        let mut cumulative = Vec::new();
        let mut acc = 0.0f64;
        for w in weights {
            let w = if w.is_finite() && w > 0.0 { w } else { 0.0 };
            acc += w;
            cumulative.push(acc);
        }
        if cumulative.is_empty() || !acc.is_finite() || acc <= 0.0 {
            return None;
        }
        Some(WeightedCdf { cumulative })
    }

    /// Number of weights in the table.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the table is empty (never true: `new` refuses those).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Samples one index with probability proportional to its weight.
    /// Zero-weight indices are never returned.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let x = rng.gen_range(0.0..total);
        // First index whose cumulative mass reaches x; x < total keeps
        // it in range, and equal consecutive cumulative values (zero
        // weights) are skipped in favour of the earlier index. The
        // half-open draw can still produce exactly 0.0, which would
        // land on a zero-weight *prefix* — route it to the first
        // positive-mass index instead.
        let i = if x > 0.0 {
            self.cumulative.partition_point(|&c| c < x)
        } else {
            self.cumulative.partition_point(|&c| c <= 0.0)
        };
        debug_assert!(i < self.cumulative.len(), "partition point overshot");
        i.min(self.cumulative.len() - 1)
    }
}

/// Spatial/temporal configuration of a request stream.
#[derive(Debug, Clone)]
pub struct RequestStreamConfig {
    /// Number of requests to generate.
    pub count: usize,
    /// Length of the simulated period in centiseconds.
    pub horizon: Time,
    /// Deadline offset Δ: `e_r = t_r + deadline_offset`.
    pub deadline_offset: Time,
    /// Penalty factor β: `p_r = β · dis(o_r, d_r)`.
    pub penalty_factor: u64,
    /// Number of Gaussian hotspots (≥1); hotspot 0 is the city center.
    pub hotspots: usize,
    /// Hotspot standard deviation in meters.
    pub hotspot_sigma_m: f64,
    /// Fraction of uniform "background" demand mixed in.
    pub background: f64,
    /// Fraction of trips that are *inter-region*: their destination is
    /// drawn around a different hotspot than the one the origin belongs
    /// to, instead of the local lognormal trip model (clamped to
    /// `[0, 1]`; needs ≥ 2 hotspots to have any effect). This is what
    /// makes demand actually cross geo-shard seams.
    pub inter_hotspot: f64,
    /// Multiplier on the rush-hour peak mass (default 1.0 keeps the
    /// classic 25 % morning / 30 % evening split; larger values
    /// concentrate arrivals into the peaks, capped so the peaks never
    /// consume the whole day; 0.0 flattens the day to uniform).
    pub rush_skew: f64,
}

impl Default for RequestStreamConfig {
    fn default() -> Self {
        RequestStreamConfig {
            count: 1_000,
            horizon: 24 * 60 * crate::MINUTE_CS,
            deadline_offset: 10 * crate::MINUTE_CS,
            penalty_factor: 10,
            hotspots: 4,
            hotspot_sigma_m: 1_500.0,
            background: 0.2,
            inter_hotspot: 0.0,
            rush_skew: 1.0,
        }
    }
}

/// Seeded generator of realistic request streams over a network.
pub struct RequestStreamGenerator<'a> {
    network: &'a RoadNetwork,
    cfg: RequestStreamConfig,
    rng: StdRng,
    /// Per-vertex sampling weights as a cumulative table.
    cdf: WeightedCdf,
    /// Hotspot centers (index 0 is the city center) — kept for the
    /// inter-region destination model.
    centers: Vec<Point>,
    /// The network's vertices on a grid: where a drawn trip endpoint
    /// is snapped to its nearest vertex.
    vertices: GridIndex,
}

impl<'a> RequestStreamGenerator<'a> {
    /// Builds the spatial sampling table for `network`, and the vertex
    /// grid that destinations are snapped on.
    pub fn new(network: &'a RoadNetwork, mut cfg: RequestStreamConfig, seed: u64) -> Self {
        assert!(cfg.hotspots >= 1, "need at least one hotspot");
        cfg.inter_hotspot = cfg.inter_hotspot.clamp(0.0, 1.0);
        cfg.rush_skew = cfg.rush_skew.max(0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let bbox = network.bounding_box();
        // Hotspot centers: city center plus seeded off-center spots.
        let center = Point::new(
            (bbox.min.x + bbox.max.x) / 2.0,
            (bbox.min.y + bbox.max.y) / 2.0,
        );
        let mut centers = vec![center];
        for _ in 1..cfg.hotspots {
            centers.push(Point::new(
                rng.gen_range(bbox.min.x..=bbox.max.x),
                rng.gen_range(bbox.min.y..=bbox.max.y),
            ));
        }
        // Mixture density per vertex → cumulative table. Every vertex
        // carries at least the background mass, so the only way the
        // table can be refused is an empty network — report that as
        // the caller's bug, with a message, instead of the old
        // `len − 1` underflow panic at the first sample.
        let two_sigma_sq = 2.0 * cfg.hotspot_sigma_m * cfg.hotspot_sigma_m;
        let cdf = WeightedCdf::new(network.vertices().map(|v| {
            let p = network.point(v);
            let mut w = cfg.background.max(1e-9);
            for c in &centers {
                let d = p.euclidean_m(c);
                w += (-d * d / two_sigma_sq).exp();
            }
            w
        }))
        .expect("request streams need a network with at least one vertex");
        RequestStreamGenerator {
            network,
            cfg,
            rng,
            cdf,
            centers,
            vertices: network.vertex_grid(),
        }
    }

    /// Samples one vertex from the hotspot mixture.
    fn sample_vertex(&mut self) -> VertexId {
        VertexId(self.cdf.sample(&mut self.rng) as u32)
    }

    /// Samples an arrival time from the double-peak day profile:
    /// 25% morning peak (~08:30), 30% evening peak (~18:00), the rest
    /// uniform, all scaled onto `[0, horizon)`. `rush_skew` multiplies
    /// both peak masses (capped so they never consume the whole day);
    /// the default 1.0 reproduces the classic split draw for draw.
    fn sample_release(&mut self) -> Time {
        let h = self.cfg.horizon as f64;
        let s = self.cfg.rush_skew.min(0.95 / 0.55);
        let morning = 0.25 * s;
        let evening = 0.30 * s;
        let u: f64 = self.rng.gen();
        let frac = if u < morning {
            let g: f64 = self.sample_gauss(8.5 / 24.0, 0.06);
            g.clamp(0.0, 0.999)
        } else if u < morning + evening {
            let g: f64 = self.sample_gauss(18.0 / 24.0, 0.08);
            g.clamp(0.0, 0.999)
        } else {
            self.rng.gen_range(0.0..1.0)
        };
        (frac * h) as Time
    }

    fn sample_gauss(&mut self, mean: f64, sigma: f64) -> f64 {
        // Box–Muller is overkill; sum of 4 uniforms ≈ normal enough
        // for a demand curve and avoids extra dependencies.
        let s: f64 = (0..4).map(|_| self.rng.gen::<f64>()).sum::<f64>() / 4.0;
        mean + (s - 0.5) * sigma * 6.93 // matches the sum's std dev
    }

    /// The hotspot whose center is nearest to `p` — the "region" a
    /// point belongs to in the inter-region trip model.
    fn region_of(&self, p: &Point) -> usize {
        let mut best = (f64::INFINITY, 0usize);
        for (i, c) in self.centers.iter().enumerate() {
            let d = c.euclidean_m(p);
            if d < best.0 {
                best = (d, i);
            }
        }
        best.1
    }

    /// The vertex nearest to `p` (ties to the lowest id), off the
    /// vertex grid. `p` may lie outside the city's bounding box.
    fn snap(&self, p: Point) -> VertexId {
        let v = self.vertices.nearest(p).expect("network is non-empty");
        VertexId(v as u32)
    }

    /// Samples a destination for a trip starting at `origin`: a
    /// uniformly random direction with a lognormal trip length
    /// (median ≈ 2.4 km, like urban taxi trips), snapped to the
    /// nearest network vertex. Without this, OD pairs would span the
    /// whole city and almost nothing would be servable within the
    /// 5–25 minute deadlines of Table 5.
    ///
    /// With a non-zero `inter_hotspot` fraction, that share of trips
    /// instead targets a *different* hotspot than the origin's own —
    /// commuter-style cross-region demand that a geo-sharded dispatcher
    /// must carry over its seams — at a Gaussian point around it,
    /// snapped the same way.
    ///
    /// Either target point can fall outside the bounding box (a long
    /// trip from near the edge, or a hotspot's tail); the snap takes
    /// the nearest vertex all the same, reading a few grid cells.
    fn sample_destination(&mut self, origin: VertexId) -> VertexId {
        let o = self.network.point(origin);
        if self.cfg.inter_hotspot > 0.0
            && self.centers.len() > 1
            && self.rng.gen_bool(self.cfg.inter_hotspot)
        {
            let home = self.region_of(&o);
            let mut pick = self.rng.gen_range(0..self.centers.len() - 1);
            if pick >= home {
                pick += 1;
            }
            let c = self.centers[pick];
            let sigma = self.cfg.hotspot_sigma_m;
            let target = Point::new(
                c.x + self.sample_gauss(0.0, sigma),
                c.y + self.sample_gauss(0.0, sigma),
            );
            return self.snap(target);
        }
        let dir = self.rng.gen_range(0.0..std::f64::consts::TAU);
        // Lognormal via the sum-of-uniforms normal approximation.
        let z = self.sample_gauss(0.0, 1.0);
        let len_m = (2_400.0 * (0.55 * z).exp()).clamp(400.0, 9_000.0);
        let target = Point::new(o.x + len_m * dir.cos(), o.y + len_m * dir.sin());
        self.snap(target)
    }

    /// Samples `K_r` from the NYC passenger-count distribution.
    fn sample_capacity(&mut self) -> u32 {
        let total: u32 = KR_WEIGHTS.iter().sum();
        let mut x = self.rng.gen_range(0..total);
        for (i, &w) in KR_WEIGHTS.iter().enumerate() {
            if x < w {
                return (i + 1) as u32;
            }
            x -= w;
        }
        1
    }

    /// Generates the full stream, sorted by release time. Requests
    /// whose origin and destination coincide or are disconnected are
    /// re-drawn; penalties take one `dis` query each (§6.1).
    pub fn generate(&mut self, oracle: &dyn DistanceOracle) -> Vec<Request> {
        let mut out = Vec::with_capacity(self.cfg.count);
        let mut releases: Vec<Time> = (0..self.cfg.count).map(|_| self.sample_release()).collect();
        releases.sort_unstable();
        for (i, release) in releases.into_iter().enumerate() {
            let (origin, destination, direct) = loop {
                let o = self.sample_vertex();
                let d = self.sample_destination(o);
                if o == d {
                    continue;
                }
                let dist = oracle.dis(o, d);
                if dist < INF {
                    break (o, d, dist);
                }
            };
            out.push(Request {
                class: Default::default(),
                id: RequestId(i as u32),
                origin,
                destination,
                release,
                deadline: release + self.cfg.deadline_offset,
                penalty: penalty_for(self.cfg.penalty_factor, direct),
                capacity: self.sample_capacity(),
            });
        }
        out
    }
}

/// `p_r = β · dis(o_r, d_r)` (Table 5).
#[inline]
pub fn penalty_for(factor: u64, direct: Cost) -> Cost {
    factor.saturating_mul(direct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network_gen::grid_city;
    use road_network::matrix::MatrixOracle;

    fn setup(count: usize, seed: u64) -> Vec<Request> {
        let g = grid_city(12, 12, 400.0, 3);
        let oracle = MatrixOracle::from_network(&g);
        let cfg = RequestStreamConfig {
            count,
            ..Default::default()
        };
        let mut gen = RequestStreamGenerator::new(&g, cfg, seed);
        gen.generate(&oracle)
    }

    #[test]
    fn stream_is_sorted_and_well_formed() {
        let rs = setup(500, 11);
        assert_eq!(rs.len(), 500);
        for w in rs.windows(2) {
            assert!(w[0].release <= w[1].release);
        }
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(r.id, RequestId(i as u32));
            assert_ne!(r.origin, r.destination);
            assert_eq!(r.deadline, r.release + 10 * crate::MINUTE_CS);
            assert!(r.penalty > 0);
            assert!((1..=6).contains(&r.capacity));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(setup(100, 5), setup(100, 5));
        assert_ne!(setup(100, 5), setup(100, 6));
    }

    #[test]
    fn capacity_distribution_matches_weights() {
        let rs = setup(4_000, 9);
        let ones = rs.iter().filter(|r| r.capacity == 1).count();
        let frac = ones as f64 / rs.len() as f64;
        assert!((frac - 0.709).abs() < 0.05, "got {frac}");
    }

    #[test]
    fn hotspots_skew_spatial_demand() {
        let g = grid_city(20, 20, 400.0, 3);
        let oracle = MatrixOracle::from_network(&g);
        let cfg = RequestStreamConfig {
            count: 2_000,
            hotspots: 1, // center only
            hotspot_sigma_m: 800.0,
            background: 0.05,
            ..Default::default()
        };
        let mut gen = RequestStreamGenerator::new(&g, cfg, 1);
        let rs = gen.generate(&oracle);
        let bbox = g.bounding_box();
        let cx = (bbox.min.x + bbox.max.x) / 2.0;
        let cy = (bbox.min.y + bbox.max.y) / 2.0;
        let center = Point::new(cx, cy);
        let near = rs
            .iter()
            .filter(|r| g.point(r.origin).euclidean_m(&center) < 2_000.0)
            .count();
        // The 2 km disc covers ~20% of the city's area but should
        // attract well over half the demand.
        assert!(near * 2 > rs.len(), "only {near}/{} near center", rs.len());
    }

    #[test]
    fn rush_hours_create_peaks() {
        let rs = setup(6_000, 21);
        let horizon = 24 * 60 * crate::MINUTE_CS;
        let bucket = |t: Time| (t * 24 / horizon) as usize; // hour buckets
        let mut counts = [0usize; 24];
        for r in &rs {
            counts[bucket(r.release).min(23)] += 1;
        }
        let avg = rs.len() / 24;
        // Morning (08:00-09:00) and evening (17:00-19:00) clearly above average.
        assert!(counts[8] > avg * 3 / 2, "morning peak missing: {counts:?}");
        assert!(
            counts[17] + counts[18] > avg * 3,
            "evening peak missing: {counts:?}"
        );
    }

    #[test]
    fn trip_lengths_look_like_taxi_trips() {
        let g = grid_city(20, 20, 600.0, 3); // 11.4 km × 11.4 km city
        let oracle = MatrixOracle::from_network(&g);
        let cfg = RequestStreamConfig {
            count: 1_000,
            ..Default::default()
        };
        let mut gen = RequestStreamGenerator::new(&g, cfg, 4);
        let rs = gen.generate(&oracle);
        let mut lens: Vec<f64> = rs
            .iter()
            .map(|r| g.point(r.origin).euclidean_m(&g.point(r.destination)))
            .collect();
        lens.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = lens[lens.len() / 2];
        assert!(
            (1_200.0..4_500.0).contains(&median),
            "median trip {median} m out of urban range"
        );
        // Long tail exists but is bounded.
        assert!(*lens.last().unwrap() <= 9_500.0);
    }

    /// Fraction of requests whose destination's nearest hotspot differs
    /// from the origin's (the generator's own region notion).
    fn cross_region_fraction(g: &RoadNetwork, gen: &RequestStreamGenerator, rs: &[Request]) -> f64 {
        let crossing = rs
            .iter()
            .filter(|r| gen.region_of(&g.point(r.origin)) != gen.region_of(&g.point(r.destination)))
            .count();
        crossing as f64 / rs.len() as f64
    }

    #[test]
    fn inter_region_trips_cross_hotspots() {
        let g = grid_city(24, 24, 500.0, 3); // 11.5 km city
        let oracle = MatrixOracle::from_network(&g);
        let mk = |inter: f64| RequestStreamConfig {
            count: 1_200,
            hotspots: 4,
            hotspot_sigma_m: 900.0,
            background: 0.05,
            inter_hotspot: inter,
            ..Default::default()
        };
        let mut local_gen = RequestStreamGenerator::new(&g, mk(0.0), 5);
        let local = local_gen.generate(&oracle);
        let mut cross_gen = RequestStreamGenerator::new(&g, mk(0.6), 5);
        let cross = cross_gen.generate(&oracle);

        let f_local = cross_region_fraction(&g, &local_gen, &local);
        let f_cross = cross_region_fraction(&g, &cross_gen, &cross);
        assert!(
            f_cross > f_local + 0.25,
            "inter-region knob must move demand across regions: {f_local:.2} -> {f_cross:.2}"
        );
        // Cross-region trips may exceed the local lognormal cap.
        let max_len = |rs: &[Request]| {
            rs.iter()
                .map(|r| g.point(r.origin).euclidean_m(&g.point(r.destination)))
                .fold(0.0f64, f64::max)
        };
        assert!(max_len(&cross) >= max_len(&local));
    }

    #[test]
    fn zero_inter_region_keeps_the_stream_byte_identical() {
        // The knob at 0.0 must not consume randomness: default streams
        // are unchanged for every existing seed.
        let g = grid_city(12, 12, 400.0, 3);
        let oracle = MatrixOracle::from_network(&g);
        let explicit = RequestStreamConfig {
            count: 300,
            inter_hotspot: 0.0,
            rush_skew: 1.0,
            ..Default::default()
        };
        let plain = RequestStreamConfig {
            count: 300,
            ..Default::default()
        };
        let a = RequestStreamGenerator::new(&g, explicit, 11).generate(&oracle);
        let b = RequestStreamGenerator::new(&g, plain, 11).generate(&oracle);
        assert_eq!(a, b);
    }

    #[test]
    fn rush_skew_piles_demand_into_the_peaks() {
        let g = grid_city(12, 12, 400.0, 3);
        let oracle = MatrixOracle::from_network(&g);
        let horizon = 24 * 60 * crate::MINUTE_CS;
        let peak_mass = |skew: f64| {
            let cfg = RequestStreamConfig {
                count: 4_000,
                rush_skew: skew,
                ..Default::default()
            };
            let rs = RequestStreamGenerator::new(&g, cfg, 21).generate(&oracle);
            // Hours 8 and 17–18 cover both peak centers.
            rs.iter()
                .filter(|r| {
                    let hr = (r.release * 24 / horizon).min(23);
                    hr == 8 || hr == 17 || hr == 18
                })
                .count() as f64
                / rs.len() as f64
        };
        let flat = peak_mass(0.0);
        let default = peak_mass(1.0);
        let skewed = peak_mass(1.6);
        assert!(
            flat < default && default < skewed,
            "peak mass must grow with skew: {flat:.2} / {default:.2} / {skewed:.2}"
        );
        // 0.0 flattens to roughly uniform (3 of 24 hour buckets).
        assert!((flat - 3.0 / 24.0).abs() < 0.04, "flat day: {flat:.2}");
    }

    #[test]
    fn penalty_formula() {
        assert_eq!(penalty_for(10, 123), 1_230);
        assert_eq!(penalty_for(0, 123), 0);
    }

    #[test]
    fn cdf_refuses_degenerate_weight_tables() {
        use rand::SeedableRng;
        // Empty, all-zero and non-finite-total tables are construction
        // errors, not sampling-time panics (PR-5 regression).
        assert!(WeightedCdf::new(std::iter::empty()).is_none());
        assert!(WeightedCdf::new([0.0, 0.0]).is_none());
        assert!(WeightedCdf::new([-1.0, f64::NAN]).is_none());
        assert!(WeightedCdf::new([f64::INFINITY]).is_none());
        // Negative/NaN entries are clamped to zero, not summed.
        let cdf = WeightedCdf::new([-5.0, 1.0, f64::NAN]).expect("one positive weight");
        assert_eq!(cdf.len(), 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..500 {
            assert_eq!(cdf.sample(&mut rng), 1);
        }
    }

    #[test]
    fn cdf_never_returns_interior_zero_weight_indices() {
        use rand::SeedableRng;
        let cdf = WeightedCdf::new([1.0, 0.0, 0.0, 3.0, 0.0]).expect("positive mass");
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut counts = [0usize; 5];
        for _ in 0..4_000 {
            counts[cdf.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1] + counts[2] + counts[4], 0, "{counts:?}");
        assert!(counts[0] > 0 && counts[3] > counts[0]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// The empirical sampling distribution matches the weights: for
        /// every index, the observed frequency is within a generous
        /// 3σ + 2% band of `w_i / Σw` (and effectively zero for
        /// zero-weight indices).
        #[test]
        fn cdf_empirical_distribution_matches_weights(
            weights in proptest::collection::vec(0.0f64..10.0, 1..10),
            seed in 0u64..1_000,
        ) {
            use proptest::prelude::*;
            use rand::SeedableRng;
            let total: f64 = weights.iter().sum();
            prop_assume!(total > 0.5);
            let cdf = WeightedCdf::new(weights.iter().copied()).expect("positive mass");
            const N: usize = 20_000;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut counts = vec![0usize; weights.len()];
            for _ in 0..N {
                counts[cdf.sample(&mut rng)] += 1;
            }
            for (i, &w) in weights.iter().enumerate() {
                let expected = w / total;
                let got = counts[i] as f64 / N as f64;
                let band = 0.02 + 3.0 * (expected * (1.0 - expected) / N as f64).sqrt();
                prop_assert!(
                    (got - expected).abs() <= band,
                    "index {i}: got {got:.4}, expected {expected:.4} (±{band:.4}); weights {weights:?}"
                );
            }
        }
    }
}
