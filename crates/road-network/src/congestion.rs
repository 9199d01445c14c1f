//! Time-dependent travel times: congestion profiles over a static oracle.
//!
//! The URPSM paper assumes a *static* distance oracle — `dis(u, v)` is
//! the free-flow travel time, independent of when the trip starts. Real
//! cities disagree twice a day. This module layers a piecewise-constant
//! **congestion profile** over any static metric: the day is cut into
//! fixed buckets, each bucket (optionally per grid-region) carries a
//! speed *multiplier* `m ≥ 1`, and a leg of free-flow cost `D` departing
//! at `t` takes however long it takes to accumulate `D` units of
//! progress at rate `1/m(t)`.
//!
//! Two properties hold **by construction** (DESIGN.md §7):
//!
//! * **FIFO (no overtaking).** Arrival time is the solution of
//!   `∫_t^{T} 1/m(s) ds = D` with `1/m > 0`, which is strictly
//!   increasing in the departure time: leaving later never means
//!   arriving earlier. The integer implementation preserves this — see
//!   [`CongestionProfile::leg_time`].
//! * **Static costs are admissible lower bounds.** With every
//!   multiplier `≥ 1`, progress is never faster than free flow, so
//!   `leg_time(u, D, t) ≥ D` for every `t`. Every Euclidean / static
//!   bound the planners use (`euc ≤ dis ≤` stretched time) keeps
//!   underestimating, and the flat profile (`m ≡ 1`) is the *identity*:
//!   `leg_time(u, D, t) = D` exactly, bit for bit.
//!
//! The provider deliberately works on **leg base costs**, not vertex
//! pairs: callers pass `D = dis(u, v)` (which routes already cache in
//! their `leg[]` arrays, Lemma 7) and get back the stretched travel
//! time. No additional shortest-distance queries are ever issued, and
//! the economics of the system (planned / driven / freed distance) stay
//! in free-flow units — only *schedules* stretch.

use crate::geo::{BoundingBox, Point};
use crate::{Cost, VertexId, INF};

/// One hour in the centisecond cost unit.
pub const HOUR_CS: u64 = 360_000;

/// Largest accepted multiplier (8×): keeps the per-bucket progress
/// arithmetic comfortably inside `u64` and guarantees the integration
/// loop advances by at least one progress unit per bucket.
pub const MAX_MULTIPLIER_PM: u32 = 8_000;

/// Departure-time-aware travel times for route legs.
///
/// Implementations must be deterministic pure functions of their inputs
/// (schedules are rebuilt from them on every route mutation, at every
/// thread and shard width) and must satisfy, for every `from`:
///
/// * **identity at zero**: `leg_time(from, 0, t) == 0`,
/// * **conservation**: `leg_time(from, base, t) >= base`
///   (multipliers are `≥ 1`; static plans stay admissible),
/// * **FIFO**: `t1 <= t2  ⇒  t1 + leg_time(from, base, t1) <=
///   t2 + leg_time(from, base, t2)`,
/// * **monotonicity in base**: `b1 <= b2 ⇒ leg_time(from, b1, t) <=
///   leg_time(from, b2, t)` (cancellation bridging may only shrink
///   schedules).
pub trait TravelTimeProvider: Send + Sync {
    /// Travel time of a leg with free-flow cost `base` that starts at
    /// vertex `from` and departs at time `depart`. Must return `base`
    /// unchanged when `base` is `0` or `>= INF`.
    fn leg_time(&self, from: VertexId, base: Cost, depart: u64) -> Cost;

    /// `true` when this provider is the identity (every multiplier is
    /// exactly 1). Callers may use this to skip feasibility re-checks —
    /// a flat provider can never change a schedule.
    fn is_flat(&self) -> bool;

    /// Human-readable profile name (experiment tables, logs).
    fn name(&self) -> &str;

    /// Destination-aware variant of [`TravelTimeProvider::leg_time`]:
    /// the travel time of a leg from `from` to `to` with free-flow cost
    /// `base`, departing at `depart`. The default ignores `to` and
    /// forwards to `leg_time`, which keeps every PR-5 profile overlay
    /// byte-identical; providers backed by a true time-dependent oracle
    /// (see [`crate::td`]) override it to *reroute* — the returned time
    /// follows the path that is shortest at `depart`, not the free-flow
    /// path. The same four contracts apply (identity at zero,
    /// conservation, FIFO, monotonicity in base) for every `(from, to)`.
    fn leg_time_between(&self, from: VertexId, _to: VertexId, base: Cost, depart: u64) -> Cost {
        self.leg_time(from, base, depart)
    }

    /// Path-level expansion hook for worker motion. A provider that
    /// reroutes (overrides [`TravelTimeProvider::leg_time_between`])
    /// must also describe *which* vertices the leg now visits:
    /// implementations emit `(vertex, arrival_time, cumulative
    /// free-flow offset)` for every vertex after `from` — the last
    /// triple being exactly `(to, depart + leg_time_between(from, to,
    /// base, depart), base)` — and return `true`. Returning `false`
    /// (the default) tells the caller to expand the *static* shortest
    /// path instead, which is correct exactly when `leg_time_between`
    /// keeps the default free-flow-path semantics.
    fn td_expand(
        &self,
        _from: VertexId,
        _to: VertexId,
        _base: Cost,
        _depart: u64,
        _emit: &mut dyn FnMut(VertexId, u64, Cost),
    ) -> bool {
        false
    }
}

/// A piecewise-constant congestion profile: per time-of-day bucket
/// speed multipliers, optionally distinct per grid-region.
///
/// Multipliers are stored in per-mille (`1000` = free flow, `1700` =
/// 1.7× travel time) so every schedule computation is exact integer
/// arithmetic — the same inputs produce the same bit pattern on every
/// platform, which is what the byte-identical differential suites
/// (`tests/congestion_equivalence.rs`) pin.
#[derive(Debug, Clone)]
pub struct CongestionProfile {
    name: String,
    /// Bucket length in centiseconds; the profile cycles with period
    /// `bucket_len * multipliers_pm[0].len()`.
    bucket_len: u64,
    /// `multipliers_pm[region][bucket]`, all in `1000..=MAX_MULTIPLIER_PM`.
    /// Every region table has the same length.
    multipliers_pm: Vec<Vec<u32>>,
    /// `vertex -> region` (empty ⇒ every vertex is region 0).
    vertex_region: Vec<u16>,
    /// Cached: every multiplier is exactly 1000.
    flat: bool,
}

/// Why a profile definition was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// No buckets (or no regions) were supplied.
    Empty,
    /// A multiplier is below 1.0 — that would break the admissibility
    /// of every static lower bound (DESIGN.md §7).
    BelowOne {
        /// The offending per-mille value.
        found: u32,
    },
    /// A multiplier exceeds [`MAX_MULTIPLIER_PM`].
    TooLarge {
        /// The offending per-mille value.
        found: u32,
    },
    /// The bucket is shorter than 1 second — the integration loop
    /// needs room to make progress inside every bucket.
    BucketTooShort,
    /// Region tables disagree on the number of buckets.
    RaggedRegions,
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Empty => write!(f, "profile needs at least one region and bucket"),
            ProfileError::BelowOne { found } => write!(
                f,
                "multiplier {found}‰ < 1000‰ would break lower-bound admissibility"
            ),
            ProfileError::TooLarge { found } => {
                write!(f, "multiplier {found}‰ exceeds {MAX_MULTIPLIER_PM}‰")
            }
            ProfileError::BucketTooShort => write!(f, "bucket must be at least 100 cs"),
            ProfileError::RaggedRegions => write!(f, "all regions need the same bucket count"),
        }
    }
}

impl std::error::Error for ProfileError {}

impl CongestionProfile {
    /// The identity profile: one all-day bucket at exactly 1×. Runs
    /// with this profile are byte-identical to runs with no profile at
    /// all (pinned by `tests/congestion_equivalence.rs`).
    pub fn flat() -> Self {
        CongestionProfile {
            name: "flat".to_string(),
            bucket_len: 24 * HOUR_CS,
            multipliers_pm: vec![vec![1000]],
            vertex_region: Vec::new(),
            flat: true,
        }
    }

    /// A single-region profile from per-bucket multipliers (as floats,
    /// converted to per-mille). `bucket_len` is in centiseconds.
    pub fn uniform(name: &str, bucket_len: u64, multipliers: &[f64]) -> Result<Self, ProfileError> {
        let pm: Vec<u32> = multipliers
            .iter()
            .map(|&m| (m * 1000.0).round() as u32)
            .collect();
        Self::per_region(name, bucket_len, vec![pm], Vec::new())
    }

    /// A constant all-day multiplier (handy for tests: every leg takes
    /// exactly `ceil(base · m)` regardless of departure time).
    pub fn constant(name: &str, multiplier: f64) -> Result<Self, ProfileError> {
        Self::uniform(name, 24 * HOUR_CS, &[multiplier])
    }

    /// The general constructor: per-region bucket tables plus a
    /// per-vertex region map (empty map ⇒ region 0 everywhere; vertices
    /// beyond the map's length also fall back to region 0).
    pub fn per_region(
        name: &str,
        bucket_len: u64,
        multipliers_pm: Vec<Vec<u32>>,
        vertex_region: Vec<u16>,
    ) -> Result<Self, ProfileError> {
        if multipliers_pm.is_empty() || multipliers_pm[0].is_empty() {
            return Err(ProfileError::Empty);
        }
        if bucket_len < 100 {
            return Err(ProfileError::BucketTooShort);
        }
        let buckets = multipliers_pm[0].len();
        for table in &multipliers_pm {
            if table.len() != buckets {
                return Err(ProfileError::RaggedRegions);
            }
            for &m in table {
                if m < 1000 {
                    return Err(ProfileError::BelowOne { found: m });
                }
                if m > MAX_MULTIPLIER_PM {
                    return Err(ProfileError::TooLarge { found: m });
                }
            }
        }
        let flat = multipliers_pm.iter().all(|t| t.iter().all(|&m| m == 1000));
        let max_region = multipliers_pm.len() - 1;
        let mut vertex_region = vertex_region;
        for r in &mut vertex_region {
            *r = (*r).min(max_region as u16);
        }
        Ok(CongestionProfile {
            name: name.to_string(),
            bucket_len,
            multipliers_pm,
            vertex_region,
            flat,
        })
    }

    /// The two-peak Chengdu-style day: 24 hourly buckets, a morning
    /// peak around 08:00 and a taller evening peak around 18:00, calm
    /// shoulders, free flow at night — the supply-side mirror of the
    /// demand generator's 25% / 30% rush-hour arrival split.
    pub fn chengdu_two_peak() -> Self {
        let mut pm = vec![1000u32; 24];
        pm[7] = 1300;
        pm[8] = 1700;
        pm[9] = 1350;
        pm[16] = 1200;
        pm[17] = 1600;
        pm[18] = 1750;
        pm[19] = 1300;
        Self::per_region("chengdu-2peak", HOUR_CS, vec![pm], Vec::new())
            .expect("preset is well-formed")
    }

    /// Assigns every vertex a region on an `nx × ny` lattice over the
    /// points' bounding box (the same square-cut idea as the dispatch
    /// plane's `ShardMap`), for building per-region profiles where,
    /// say, the downtown core jams harder than the suburbs.
    pub fn regionize(points: &[Point], nx: usize, ny: usize) -> Vec<u16> {
        let (nx, ny) = (nx.max(1), ny.max(1));
        let bbox = BoundingBox::around(points.iter().copied());
        let w = (bbox.max.x - bbox.min.x).max(f64::MIN_POSITIVE);
        let h = (bbox.max.y - bbox.min.y).max(f64::MIN_POSITIVE);
        points
            .iter()
            .map(|p| {
                let ix = (((p.x - bbox.min.x) / w * nx as f64) as usize).min(nx - 1);
                let iy = (((p.y - bbox.min.y) / h * ny as f64) as usize).min(ny - 1);
                (iy * nx + ix) as u16
            })
            .collect()
    }

    /// The profile's day length in centiseconds.
    pub fn period(&self) -> u64 {
        self.bucket_len * self.multipliers_pm[0].len() as u64
    }

    /// Bucket length in centiseconds. The profile is piecewise-constant
    /// per bucket, which is what makes the time-bucketed TD cache
    /// (`road_network::td`) *exact* rather than approximate.
    pub fn bucket_len(&self) -> u64 {
        self.bucket_len
    }

    /// The multiplier in force for `region` at time `t` (per-mille).
    #[inline]
    fn multiplier_pm(&self, region: usize, t: u64) -> u64 {
        let table = &self.multipliers_pm[region];
        let bucket = ((t / self.bucket_len) as usize) % table.len();
        u64::from(table[bucket])
    }

    #[inline]
    fn region_of(&self, v: VertexId) -> usize {
        self.vertex_region
            .get(v.idx())
            .map_or(0, |&r| usize::from(r))
    }
}

impl TravelTimeProvider for CongestionProfile {
    /// Integrates progress through the bucket sequence.
    ///
    /// Inside a bucket with multiplier `m`, `Δt` wall-clock time covers
    /// `⌊Δt · 1000 / m⌋` progress, and finishing `p` remaining progress
    /// takes `⌈p · m / 1000⌉` time. FIFO survives the rounding: a leg
    /// that finishes within its bucket arrives no later than the bucket
    /// end (`p ≤ ⌊Δt·1000/m⌋ ⇒ ⌈p·m/1000⌉ ≤ Δt`), while any later
    /// departure that spills over arrives after it.
    fn leg_time(&self, from: VertexId, base: Cost, depart: u64) -> Cost {
        if base == 0 || base >= INF || depart >= INF {
            return base.min(INF);
        }
        if self.flat {
            return base;
        }
        let region = self.region_of(from);
        let mut remaining = base;
        let mut t = depart;
        loop {
            let elapsed = t - depart;
            if elapsed >= INF {
                return INF;
            }
            let m = self.multiplier_pm(region, t);
            let bucket_end = (t / self.bucket_len + 1) * self.bucket_len;
            if m == 1000 {
                let cap = bucket_end - t;
                if remaining <= cap {
                    return elapsed + remaining;
                }
                remaining -= cap;
            } else {
                // u128 keeps `(end − t) · 1000` and `remaining · m`
                // exact for every representable cost.
                let cap = ((u128::from(bucket_end - t) * 1000) / u128::from(m)) as u64;
                if remaining <= cap {
                    let finish = (u128::from(remaining) * u128::from(m)).div_ceil(1000) as u64;
                    return (elapsed + finish).min(INF);
                }
                remaining -= cap;
            }
            t = bucket_end;
        }
    }

    fn is_flat(&self) -> bool {
        self.flat
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peak() -> CongestionProfile {
        CongestionProfile::chengdu_two_peak()
    }

    #[test]
    fn flat_profile_is_the_identity() {
        let p = CongestionProfile::flat();
        assert!(p.is_flat());
        for (base, t) in [(0u64, 0u64), (1, 7), (123_456, 999_999), (INF, 3)] {
            assert_eq!(p.leg_time(VertexId(0), base, t), base.min(INF));
        }
        // The two-peak preset is the identity off-peak too.
        let q = peak();
        assert!(!q.is_flat());
        assert_eq!(
            q.leg_time(VertexId(0), 5_000, 0),
            5_000,
            "midnight is free flow"
        );
    }

    #[test]
    fn peak_hours_stretch_travel_times() {
        let p = peak();
        // Fully inside the 08:00 bucket (1.7×).
        let depart = 8 * HOUR_CS + 10;
        assert_eq!(p.leg_time(VertexId(0), 10_000, depart), 17_000);
        // Straddling 07:00→08:00: 1.3× then 1.7×.
        let depart = 8 * HOUR_CS - 1_300; // 1300 cs before the 08:00 edge
                                          // First 1300 cs at 1.3× cover 1000 progress; the remaining
                                          // 9000 at 1.7× take 15300.
        assert_eq!(p.leg_time(VertexId(0), 10_000, depart), 1_300 + 15_300);
    }

    #[test]
    fn conservation_and_base_monotonicity() {
        let p = peak();
        for t in (0..24 * HOUR_CS).step_by((HOUR_CS / 3) as usize) {
            let mut prev = 0;
            for base in [0u64, 1, 17, 500, 9_999, 360_001] {
                let lt = p.leg_time(VertexId(0), base, t);
                assert!(lt >= base, "conservation broke at t={t} base={base}");
                assert!(lt >= prev, "monotonicity broke at t={t} base={base}");
                prev = lt;
            }
        }
    }

    #[test]
    fn fifo_no_overtaking_across_the_whole_day() {
        // Dense deterministic sweep across every bucket edge of the
        // two-peak day: departing later never means arriving earlier.
        let p = peak();
        for base in [1u64, 777, 12_345, 150_000] {
            let mut last_arrival = 0u64;
            let mut t = 0u64;
            while t < 25 * HOUR_CS {
                let arrival = t + p.leg_time(VertexId(0), base, t);
                assert!(
                    arrival >= last_arrival,
                    "overtaking: base={base} t={t} arrival={arrival} < {last_arrival}"
                );
                last_arrival = arrival;
                t += 997; // co-prime step so edges get straddled
            }
        }
    }

    #[test]
    fn day_wraps_around() {
        let p = peak();
        let a = p.leg_time(VertexId(0), 4_321, 8 * HOUR_CS);
        let b = p.leg_time(VertexId(0), 4_321, 8 * HOUR_CS + 3 * p.period());
        assert_eq!(a, b);
    }

    #[test]
    fn regions_pick_their_own_tables() {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(0.0, 100.0),
            Point::new(100.0, 100.0),
        ];
        let regions = CongestionProfile::regionize(&points, 2, 2);
        assert_eq!(regions, vec![0, 1, 2, 3]);
        let p = CongestionProfile::per_region(
            "core-vs-suburb",
            HOUR_CS,
            vec![vec![1000], vec![2000], vec![1000], vec![1000]],
            regions,
        )
        .unwrap();
        assert_eq!(p.leg_time(VertexId(0), 1_000, 0), 1_000);
        assert_eq!(p.leg_time(VertexId(1), 1_000, 0), 2_000);
        // Vertices beyond the map fall back to region 0.
        assert_eq!(p.leg_time(VertexId(9), 1_000, 0), 1_000);
    }

    #[test]
    fn invalid_profiles_are_refused() {
        assert_eq!(
            CongestionProfile::uniform("bad", HOUR_CS, &[0.9]).unwrap_err(),
            ProfileError::BelowOne { found: 900 }
        );
        assert_eq!(
            CongestionProfile::uniform("bad", HOUR_CS, &[9.5]).unwrap_err(),
            ProfileError::TooLarge { found: 9_500 }
        );
        assert_eq!(
            CongestionProfile::uniform("bad", 10, &[1.5]).unwrap_err(),
            ProfileError::BucketTooShort
        );
        assert_eq!(
            CongestionProfile::uniform("bad", HOUR_CS, &[]).unwrap_err(),
            ProfileError::Empty
        );
        assert_eq!(
            CongestionProfile::per_region("bad", HOUR_CS, vec![vec![1000], vec![]], Vec::new())
                .unwrap_err(),
            ProfileError::RaggedRegions
        );
        assert!(CongestionProfile::constant("ok", 1.5).is_ok());
    }

    #[test]
    fn constant_profile_ceils_exactly() {
        let p = CongestionProfile::constant("x1.5", 1.5).unwrap();
        assert_eq!(p.leg_time(VertexId(0), 2, 0), 3);
        assert_eq!(p.leg_time(VertexId(0), 3, 0), 5); // ceil(4.5)
        assert_eq!(p.leg_time(VertexId(0), 1_000, 12 * HOUR_CS), 1_500);
    }

    #[test]
    fn inf_and_zero_pass_through() {
        let p = peak();
        assert_eq!(p.leg_time(VertexId(0), 0, 8 * HOUR_CS), 0);
        assert_eq!(p.leg_time(VertexId(0), INF, 8 * HOUR_CS), INF);
        assert_eq!(p.leg_time(VertexId(0), 5, INF), 5.min(INF));
    }
}
