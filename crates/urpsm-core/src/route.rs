//! Worker routes with the auxiliary schedule arrays of §4.3.
//!
//! A [`Route`] is the paper's `S_w = ⟨l_0, l_1, …, l_n⟩`: the worker's
//! current location `l_0` followed by an ordered sequence of pickup and
//! delivery stops. It is one array of `n + 1` locations, and location
//! `l_k` carries exactly the entries the DP insertion needs:
//!
//! * `arr[k]` — arrival time at `l_k` (Eq. 7),
//! * `ddl[k]` — latest feasible arrival at `l_k` (Eq. 6; `∞` for `l_0`),
//! * `slack[k]` — tolerable detour between `l_k` and `l_{k+1}` (Eq. 8;
//!   `slack[n] = ∞`),
//! * `picked[k]` — passengers/items on board after `l_k` (Eq. 9;
//!   `picked[0]` is the onboard load),
//! * `leg[k]` — `dis(l_{k-1}, l_k)`, the auxiliary distance array noted
//!   in Lemma 7, so schedules rebuild without new shortest-distance
//!   queries (`leg[0] = 0`).
//!
//! Speculative insertion *planning* never mutates a route; a chosen
//! [`InsertionPlan`] is applied with [`Route::apply_insertion`], which
//! splices the two locations in and rebuilds the schedule in `O(n)`.
//!
//! Only arrivals that can move are re-timed: a mutation keeps every
//! `arr[k]` whose leg and departure it leaves alone (an insertion keeps
//! the prefix up to its splice, a snap or a pop keeps everything), so a
//! time-dependent provider is asked only about legs whose timing can
//! change. Debug builds re-time the kept prefix and assert it unchanged.

use std::sync::Arc;

use road_network::congestion::TravelTimeProvider;
use road_network::{cost_add, Cost, VertexId, INF};
use smallvec::SmallVec;

use crate::types::{Request, RequestId, Stop, StopKind, Time};

/// Inline capacity of a route in stops: 8 stops = 4 pooled requests per
/// vehicle, which covers the common case at the paper's capacities
/// (Table 5 sweeps `K_w` around 4; even capacity 20 workers rarely
/// carry 8 *pending* stops at once). Longer routes spill to the heap
/// and keep working — the inline size is a fast path, not a limit.
pub const ROUTE_INLINE_STOPS: usize = 8;

/// One location `l_k` of a route and its schedule entries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Location {
    /// The stop at `l_k` for `k ≥ 1`. For `l_0` only `vertex` and
    /// `ddl = ∞` are read, and no accessor hands it out as a stop.
    stop: Stop,
    arr: Time,
    slack: Cost,
    picked: u32,
    /// `dis(l_{k-1}, l_k)`; `0` for `l_0`.
    leg: Cost,
}

impl Location {
    /// `l_0`: the worker at `vertex` at `time` with `load` on board.
    fn start(vertex: VertexId, time: Time, load: u32) -> Self {
        Location {
            stop: Stop {
                vertex,
                ddl: INF,
                ..Stop::default()
            },
            arr: time,
            slack: INF,
            picked: load,
            leg: 0,
        }
    }

    /// A stop reached over a leg of free-flow cost `leg`; the rebuild
    /// that follows every splice fills in its schedule.
    fn stop(stop: Stop, leg: Cost) -> Self {
        Location {
            stop,
            leg,
            ..Location::default()
        }
    }
}

/// How the two new stops sit in the old route; carries the leg costs the
/// commit needs so no shortest-distance query is repeated (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanShape {
    /// `i = j = n` (Fig. 2a): append `… l_n → o_r → d_r`.
    Append {
        /// `dis(l_n, o_r)`.
        dis_tail_pickup: Cost,
    },
    /// `i = j < n` (Fig. 2b): splice `l_i → o_r → d_r → l_{i+1}`.
    Adjacent {
        /// `dis(l_i, o_r)`.
        dis_prev_pickup: Cost,
        /// `dis(d_r, l_{i+1})`.
        dis_delivery_next: Cost,
    },
    /// `i < j` (Fig. 2c): pickup between `l_i, l_{i+1}`, delivery
    /// between `l_j, l_{j+1}` (or appended when `j = n`).
    Split {
        /// `dis(l_i, o_r)`.
        dis_prev_pickup: Cost,
        /// `dis(o_r, l_{i+1})`.
        dis_pickup_next: Cost,
        /// `dis(l_j, d_r)`.
        dis_prev_delivery: Cost,
        /// `dis(d_r, l_{j+1})`; `None` when the delivery is appended.
        dis_delivery_next: Option<Cost>,
    },
}

/// The result of an insertion operator: where to put `o_r` and `d_r`
/// and what it costs (Def. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertionPlan {
    /// Position `i`: `o_r` goes right after `l_i` (`0 ≤ i ≤ n`).
    pub pickup_after: usize,
    /// Position `j`: `d_r` goes right after `l_j` (`i ≤ j ≤ n`,
    /// interpreted in the *original* indexing; `i = j` puts `d_r`
    /// immediately after `o_r`).
    pub delivery_after: usize,
    /// The increased distance `Δ*` (Eq. 5).
    pub delta: Cost,
    /// `L = dis(o_r, d_r)`, the one query every operator shares.
    pub direct: Cost,
    /// Leg costs needed to commit without re-querying.
    pub shape: PlanShape,
}

/// A worker's route: its locations and their schedule entries.
///
/// # Time-dependent travel times
///
/// `leg[k]` always stores the **free-flow** cost `dis(l_{k-1}, l_k)` —
/// the unit every economic quantity (planned / driven / freed distance,
/// `Δ*`, the unified objective) is measured in. When a
/// [`TravelTimeProvider`] is installed ([`Route::set_congestion`]), the
/// *schedule* stretches: `arr[k] = arr[k-1] + leg_time(l_{k-1},
/// leg[k], arr[k-1])`. With no provider (or the flat profile) the two
/// coincide bit for bit, which is the flat-equivalence contract of
/// DESIGN.md §7.
///
/// One wrinkle keeps mid-leg re-timing exact: when the simulator snaps
/// a worker onto an intermediate vertex of its current leg
/// ([`Route::snap_on_leg`]), the head leg's travel time is *frozen* at
/// the remainder of the original prediction instead of being
/// re-integrated from the snap point — integer re-integration from an
/// interior point could drift by rounding, and a snap must never move
/// `arr[1]`. Any structural change to the head leg (insertion at
/// position 0, a pop, a cancellation bridging the first stop, a tail
/// replacement, a teleport) clears the freeze; the new head leg is
/// integrated from its start, which is always a vertex at a known time
/// (after a pop it already was, so a pop re-times nothing).
pub struct Route {
    /// `l_0, l_1, …, l_n`: never empty. `locs[0].arr` is the route's
    /// start time — when the worker is (or will be) at `l_0` — and its
    /// only copy.
    locs: SmallVec<Location, { ROUTE_INLINE_STOPS + 1 }>,
    /// Departure-time-aware travel times; `None` = free flow.
    congestion: Option<Arc<dyn TravelTimeProvider>>,
    /// Per-mille vehicle-class travel-time multiplier (1000 = network
    /// baseline). Composes on the *input* side of the provider seam:
    /// the free-flow base is stretched before the provider sees it, so
    /// FIFO / conservation / monotonicity hold pointwise per scaled
    /// base. Like `congestion`, this is context, not state.
    speed_permille: u32,
    /// Per-class range budget: the route is infeasible while its
    /// remaining planned free-flow distance exceeds this (battery
    /// between depot recharges). `None` = unlimited.
    range: Option<Cost>,
    /// Frozen head-leg travel time after a mid-leg snap (see the type
    /// docs). Invariant while set: `arr[1] = arr[0] + head_time`.
    head_time: Option<Cost>,
}

// Manual `Clone` so `clone_from` reuses the destination's buffer: a
// planner's spare route is `clone_from`-ed once per re-timed idle
// candidate, and with the inline array (or retained heap capacity
// after a spill) that copy allocates nothing.
impl Clone for Route {
    fn clone(&self) -> Self {
        Route {
            locs: self.locs.clone(),
            congestion: self.congestion.clone(),
            speed_permille: self.speed_permille,
            range: self.range,
            head_time: self.head_time,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.locs.clone_from(&source.locs);
        self.congestion.clone_from(&source.congestion);
        self.speed_permille = source.speed_permille;
        self.range = source.range;
        self.head_time = source.head_time;
    }
}

// The provider is *context*, not state: two routes with the same
// schedule are the same route. (It also keeps `Route: Eq` now that a
// `dyn` handle lives inside.)
impl PartialEq for Route {
    fn eq(&self, other: &Self) -> bool {
        self.locs == other.locs && self.head_time == other.head_time
    }
}

impl Eq for Route {}

impl std::fmt::Debug for Route {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Route")
            .field("locs", &self.locs)
            .field("head_time", &self.head_time)
            .field(
                "congestion",
                &self.congestion.as_ref().map(|p| p.name().to_string()),
            )
            .field("speed_permille", &self.speed_permille)
            .field("range", &self.range)
            .finish()
    }
}

/// A degenerate empty route (worker at vertex 0, time 0). Exists so
/// scratch routes can be constructed before any real route is known;
/// `clone_from` overwrites every field before first use.
impl Default for Route {
    fn default() -> Self {
        Route::new(VertexId(0), 0)
    }
}

impl Route {
    /// An empty route for a worker standing at `start` at `time`.
    pub fn new(start: VertexId, time: Time) -> Self {
        Route {
            locs: SmallVec::from_slice(&[Location::start(start, time, 0)]),
            congestion: None,
            speed_permille: crate::types::SPEED_BASELINE_PM,
            range: None,
            head_time: None,
        }
    }

    /// Installs (or removes) a departure-time-aware travel-time
    /// provider and rebuilds the schedule under it. The legs — and
    /// with them every economic quantity — are untouched; only `arr`
    /// and `slack` change. A flat provider reproduces the free-flow
    /// schedule exactly.
    pub fn set_congestion(&mut self, provider: Option<Arc<dyn TravelTimeProvider>>) {
        self.congestion = provider;
        self.head_time = None;
        self.rebuild();
    }

    /// The installed travel-time provider, if any.
    #[inline]
    pub fn congestion(&self) -> Option<&Arc<dyn TravelTimeProvider>> {
        self.congestion.as_ref()
    }

    /// Installs this worker's vehicle-class profile: a per-mille
    /// travel-time multiplier (`1000` = baseline) and an optional range
    /// budget, then rebuilds the schedule. Called by the platform when
    /// a class table is installed or a worker joins — planners never
    /// touch this; the class reaches them only as a stretched schedule
    /// plus the [`Route::insertion_feasible`] gate.
    pub fn set_class_profile(&mut self, speed_permille: u32, range: Option<Cost>) {
        self.speed_permille = speed_permille;
        self.range = range;
        self.head_time = None;
        self.rebuild();
    }

    /// The per-class range budget, if any.
    #[inline]
    pub fn range(&self) -> Option<Cost> {
        self.range
    }

    /// `true` when the schedule — or feasibility — can diverge from the
    /// free-flow plan: a non-identity provider is installed, the class
    /// travels slower than baseline, or a range budget applies.
    /// Planners use this to decide whether a free-flow plan needs the
    /// stretched feasibility re-check ([`Route::insertion_feasible`]);
    /// broadening the definition here is what keeps class effects
    /// visible to them with zero planner-side edits (DESIGN.md §12).
    #[inline]
    pub fn time_dependent(&self) -> bool {
        self.congestion.as_ref().is_some_and(|p| !p.is_flat())
            || self.speed_permille != crate::types::SPEED_BASELINE_PM
            || self.range.is_some()
    }

    /// A free-flow cost stretched by this worker's class multiplier —
    /// the one formula behind both the schedule (every leg's base
    /// passes through it) and the simulator's along-leg integration,
    /// so the two cannot disagree. `INF` stays `INF`; the baseline
    /// class is the identity.
    #[inline]
    pub fn class_stretch(&self, base: Cost) -> Cost {
        if self.speed_permille == crate::types::SPEED_BASELINE_PM || base >= INF {
            base
        } else {
            base.saturating_mul(self.speed_permille as Cost) / 1_000
        }
    }

    /// Travel time of a leg from `from` to `to` with free-flow cost
    /// `base`, departing at `depart`, under the installed provider (free
    /// flow without one).
    ///
    /// This is the *only* seam between schedules and providers, and it
    /// passes both endpoints: a profile overlay ignores the destination,
    /// while a rerouting provider
    /// (`road_network::td`) answers with the path that is shortest *at
    /// `depart`*. The stored schedule ([`Route::leg_time_at`]) and the
    /// insertion gate's splice walk ([`Route::insertion_feasible`]) both
    /// flow through here, so a plan is always judged by the schedule it
    /// will drive. The vehicle class composes here too: the base handed
    /// to the provider is class-stretched first. Scaling the *input* to
    /// the provider (not its output) preserves the provider's FIFO
    /// contract: output-side scaling can reorder arrivals when the inner
    /// profile satisfies FIFO with equality.
    #[inline]
    fn leg_time(&self, from: VertexId, to: VertexId, base: Cost, depart: Time) -> Cost {
        let base = self.class_stretch(base);
        match &self.congestion {
            None => base,
            Some(p) => p.leg_time_between(from, to, base, depart),
        }
    }

    /// Travel time of stored leg `k`, departing at `depart` (= `arr[k-1]`
    /// during a rebuild): [`Route::leg_time`], or the frozen head time
    /// after a mid-leg snap.
    #[inline]
    fn leg_time_at(&self, k: usize, depart: Time) -> Cost {
        if k == 1 {
            if let Some(frozen) = self.head_time {
                return frozen;
            }
        }
        self.leg_time(self.vertex(k - 1), self.vertex(k), self.locs[k].leg, depart)
    }

    /// Number of stops `n` (the paper's route has `n + 1` locations).
    #[inline]
    pub fn len(&self) -> usize {
        self.locs.len() - 1
    }

    /// Whether the route has no pending stops.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.locs.len() == 1
    }

    /// The stops `l_1 … l_n`, in route order.
    #[inline]
    pub fn stops(&self) -> impl Iterator<Item = &Stop> + '_ {
        self.locs[1..].iter().map(|l| &l.stop)
    }

    /// Location `l_k` (`k = 0` is the worker's current location).
    #[inline]
    pub fn vertex(&self, k: usize) -> VertexId {
        self.locs[k].stop.vertex
    }

    /// Arrival time `arr[k]` (Eq. 7).
    #[inline]
    pub fn arr(&self, k: usize) -> Time {
        self.locs[k].arr
    }

    /// Latest feasible arrival `ddl[k]` (Eq. 6); `∞` for `k = 0`.
    #[inline]
    pub fn ddl(&self, k: usize) -> Time {
        self.locs[k].stop.ddl
    }

    /// Slack time `slack[k]` (Eq. 8); `∞` for `k = n`.
    #[inline]
    pub fn slack(&self, k: usize) -> Cost {
        self.locs[k].slack
    }

    /// On-board load `picked[k]` after `l_k` (Eq. 9).
    #[inline]
    pub fn picked(&self, k: usize) -> u32 {
        self.locs[k].picked
    }

    /// Stored leg distance `dis(l_{k-1}, l_k)` for `k ≥ 1`.
    #[inline]
    pub fn leg(&self, k: usize) -> Cost {
        self.locs[k].leg
    }

    /// The worker's current location `l_0`.
    #[inline]
    pub fn start_vertex(&self) -> VertexId {
        self.vertex(0)
    }

    /// The time the worker is/will be at `l_0` (`arr[0]`).
    #[inline]
    pub fn start_time(&self) -> Time {
        self.arr(0)
    }

    /// Passengers/items currently on board (`picked[0]`).
    #[inline]
    pub fn onboard(&self) -> u32 {
        self.picked(0)
    }

    /// Remaining planned travel time, `Σ leg[k]`.
    pub fn remaining_distance(&self) -> Cost {
        self.locs.iter().map(|l| l.leg).sum()
    }

    /// Rebuilds `arr[1..]`, `picked[1..]` and `slack` from the stops,
    /// legs and start state in `O(n)`.
    fn rebuild(&mut self) {
        self.rebuild_from(1);
    }

    /// Re-times `arr[first..]` and recomputes `picked[1..]` and `slack`,
    /// keeping `arr[..first]` as stored. Every splice has already put
    /// its locations in place, so nothing here grows the array.
    ///
    /// Sound exactly when the mutation left the leg, both endpoints and
    /// the departure of every kept arrival alone (each caller says
    /// why). Debug builds re-time the kept prefix and assert that it is
    /// unchanged, so a mutation that moves an arrival it did not re-time
    /// fails every debug test that reaches it.
    fn rebuild_from(&mut self, first: usize) {
        let n = self.len();
        #[cfg(debug_assertions)]
        self.debug_assert_timed_before(first.min(n + 1));
        for k in first..=n {
            let depart = self.locs[k - 1].arr;
            self.locs[k].arr = cost_add(depart, self.leg_time_at(k, depart));
        }
        for k in 1..=n {
            let before = self.locs[k - 1].picked;
            let l = &mut self.locs[k];
            l.picked = match l.stop.kind {
                StopKind::Pickup => before + l.stop.load,
                StopKind::Delivery => before.saturating_sub(l.stop.load),
            };
        }
        self.locs[n].slack = INF;
        for k in (0..n).rev() {
            let next = self.locs[k + 1];
            let headroom = next.stop.ddl.saturating_sub(next.arr);
            self.locs[k].slack = next.slack.min(headroom);
        }
    }

    /// Debug builds: every arrival `arr[1..first]` equals its full
    /// re-time — the invariant [`Route::rebuild_from`] relies on.
    #[cfg(debug_assertions)]
    fn debug_assert_timed_before(&self, first: usize) {
        cross_check(|| {
            for k in 1..first {
                let depart = self.locs[k - 1].arr;
                let retimed = cost_add(depart, self.leg_time_at(k, depart));
                assert_eq!(
                    self.locs[k].arr, retimed,
                    "kept arr[{k}] is stale: a mutation moved an arrival it did not re-time"
                );
            }
        });
    }

    /// Re-times the route to a new current location (e.g. the worker
    /// moved to `v`, arriving at `time`). `new_first_leg` must be
    /// `dis(v, l_1)` when the route is non-empty.
    ///
    /// # Panics
    /// If the route has stops but no `new_first_leg` is supplied.
    pub fn set_start(&mut self, v: VertexId, time: Time, new_first_leg: Option<Cost>) {
        self.locs[0].stop.vertex = v;
        self.locs[0].arr = time;
        self.head_time = None;
        if !self.is_empty() {
            self.locs[1].leg = new_first_leg.expect("non-empty route needs dis(l_0, l_1)");
        }
        self.rebuild();
    }

    /// Snaps the worker onto an intermediate vertex of its *current*
    /// first leg: `v` is a vertex of the driven path, reached at
    /// `time`, with `remaining_base` free-flow cost left to `l_1`.
    /// Unlike [`Route::set_start`] this **freezes** the head leg's
    /// travel time at `arr[1] − time`, so the predicted arrival at
    /// `l_1` — and with it the whole downstream schedule — is exactly
    /// unchanged by the snap (re-integrating a congestion profile from
    /// an interior point could drift by integer rounding).
    ///
    /// # Panics
    /// If the route is empty or `time > arr[1]`.
    pub fn snap_on_leg(&mut self, v: VertexId, time: Time, remaining_base: Cost) {
        assert!(!self.is_empty(), "no leg to snap onto");
        let arr1 = self.locs[1].arr;
        assert!(time <= arr1, "snap time {time} past arr[1] = {arr1}");
        self.locs[0].stop.vertex = v;
        self.locs[0].arr = time;
        self.locs[1].leg = remaining_base;
        self.head_time = Some(arr1 - time);
        // The freeze keeps `arr[1]`, and every later leg departs from an
        // unchanged arrival: nothing is re-timed.
        self.rebuild_from(self.len() + 1);
        debug_assert_eq!(self.locs[1].arr, arr1, "a snap must never move arr[1]");
    }

    /// Re-times an idle/parked worker to `time` without moving it.
    ///
    /// On an empty route this is one store: `arr[0]` is the only entry
    /// that depends on the start time (`picked[0]`, `slack[0] = ∞` and
    /// the cleared head freeze already hold — every path that empties a
    /// route ends in a rebuild with the freeze dropped).
    pub fn set_start_time(&mut self, time: Time) {
        self.locs[0].arr = time;
        if self.is_empty() {
            debug_assert!(
                self.head_time.is_none() && self.locs[0].slack == INF,
                "an empty route holds nothing but its start state"
            );
            return;
        }
        self.head_time = None;
        self.rebuild();
    }

    /// Pops the first stop (the worker has reached it), advancing `l_0`
    /// to the stop's vertex at its arrival time and updating the
    /// on-board load. Returns the stop and its arrival time.
    ///
    /// # Panics
    /// If the route is empty.
    pub fn pop_front_stop(&mut self) -> (Stop, Time) {
        assert!(!self.is_empty(), "no stop to pop");
        let reached = self.locs.remove(1);
        // `l_1` becomes `l_0`: reached at its arrival with its load on
        // board, and every remaining leg departs when it did (the new
        // head, never frozen before, from `reached.arr`): the arrivals
        // shift down one slot, none re-timed.
        self.locs[0] = Location::start(reached.stop.vertex, reached.arr, reached.picked);
        self.head_time = None;
        self.rebuild_from(self.len() + 1);
        (reached.stop, reached.arr)
    }

    /// Applies a committed insertion plan for request `r`, splicing the
    /// pickup and delivery stops and rebuilding the schedule in `O(n)`
    /// using only the distances carried by the plan. Arrivals up to the
    /// splice are kept; only legs `i + 1 ..= n + 2` are re-timed.
    pub fn apply_insertion(&mut self, plan: &InsertionPlan, r: &Request) {
        let n = self.len();
        let (i, j) = plan_positions(plan, n);
        if i == 0 {
            // The head leg is replaced by dis(l_0, o_r) — a fresh leg
            // departing from the current vertex; any snap freeze on
            // the old head no longer applies.
            self.head_time = None;
        }
        let (pickup, delivery) = request_stops(plan, r);

        match plan.shape {
            PlanShape::Append { dis_tail_pickup } => {
                self.locs.extend_from_slice(&[
                    Location::stop(pickup, dis_tail_pickup),
                    Location::stop(delivery, plan.direct),
                ]);
            }
            PlanShape::Adjacent {
                dis_prev_pickup,
                dis_delivery_next,
            } => {
                // Old leg l_i → l_{i+1} becomes three legs.
                self.locs.insert_from_slice(
                    i + 1,
                    &[
                        Location::stop(pickup, dis_prev_pickup),
                        Location::stop(delivery, plan.direct),
                    ],
                );
                self.locs[i + 3].leg = dis_delivery_next;
            }
            PlanShape::Split {
                dis_prev_pickup,
                dis_pickup_next,
                dis_prev_delivery,
                dis_delivery_next,
            } => {
                self.locs
                    .insert(i + 1, Location::stop(pickup, dis_prev_pickup));
                self.locs[i + 2].leg = dis_pickup_next;
                // After the pickup splice, old `l_j` sits at index
                // `j + 1`, and old `l_{j+1}` (if any) at `j + 2`.
                self.locs
                    .insert(j + 2, Location::stop(delivery, dis_prev_delivery));
                if let Some(next) = dis_delivery_next.filter(|_| j < n) {
                    self.locs[j + 3].leg = next;
                }
            }
        }
        // Legs `1..=i` and their departures are untouched.
        self.rebuild_from(i + 1);
    }

    /// Removes the pending stops of a cancelled request, bridging each
    /// gap with the direct leg `dis(l_{k-1}, l_{k+1})` supplied by
    /// `dis`. Returns the planned distance freed by the removal.
    ///
    /// Only a request whose **pickup is still pending** can be removed:
    /// if the route holds no pickup stop for `rid` (the rider is
    /// onboard or already delivered), the route is left untouched and
    /// `None` is returned — that is the invariability constraint, there
    /// is no API to drop a rider who has been picked up.
    ///
    /// Removal can only shrink arrival times (triangle inequality), so
    /// the remaining schedule stays feasible by construction.
    pub fn remove_request(
        &mut self,
        rid: RequestId,
        mut dis: impl FnMut(VertexId, VertexId) -> Cost,
    ) -> Option<Cost> {
        if !self
            .stops()
            .any(|s| s.request == rid && s.kind == StopKind::Pickup)
        {
            return None;
        }
        let before = self.remaining_distance();
        // Positions (the paper's `l_k` indexing) of the stops to
        // remove; reverse order keeps earlier indices valid. At most a
        // pickup and a delivery, so two inline slots suffice.
        let positions: SmallVec<usize, 2> = (1..=self.len())
            .filter(|&k| self.locs[k].stop.request == rid)
            .collect();
        for &k in positions.iter().rev() {
            let removed = self.locs.remove(k).leg;
            if k < self.locs.len() {
                // A stop follows the removed one: bridge the gap. The
                // bridge is capped at the coverage it replaces — on a
                // metric oracle the triangle inequality makes the cap
                // a no-op, but a snapped time-dependent head leg holds
                // a driven *remainder* rather than `dis(l_0, l_1)`,
                // and an uncapped bridge past it would mint planned
                // distance no commit ever accounted for (the unsigned
                // `freed` ledger cannot express negative amounts).
                let coverage = cost_add(removed, self.locs[k].leg);
                self.locs[k].leg = dis(self.vertex(k - 1), self.vertex(k)).min(coverage);
            }
            if k == 1 {
                // The head leg was replaced by a fresh bridge from the
                // current vertex: drop any snap freeze.
                self.head_time = None;
            }
        }
        // Everything before the first removed stop is untouched.
        self.rebuild_from(positions[0]);
        let after = self.remaining_distance();
        debug_assert!(
            after <= before,
            "bridging legs must not grow the route (capped bridges)"
        );
        Some(before.saturating_sub(after))
    }

    /// Replaces all pending stops with a re-ordered sequence (used by
    /// the kinetic-tree baseline, which — unlike insertion — may
    /// permute existing stops). `legs[k]` must be
    /// `dis(l_{k-1}, l_k)` with `l_0` the unchanged start vertex;
    /// `legs.len() == stops.len()`.
    ///
    /// The caller is responsible for only passing sequences that keep
    /// every previously committed request on the route (the
    /// invariability constraint); [`Route::validate`] plus the platform
    /// layer enforce this in debug builds.
    pub fn replace_tail(&mut self, stops: &[Stop], legs: &[Cost]) {
        assert_eq!(stops.len(), legs.len(), "one leg per stop");
        self.locs.truncate(1); // keep l_0
        self.locs.extend(
            stops
                .iter()
                .zip(legs)
                .map(|(&stop, &leg)| Location::stop(stop, leg)),
        );
        self.head_time = None;
        self.rebuild();
    }

    /// Whether applying `plan` for `r` keeps the route feasible
    /// **under the installed travel-time provider** (Def. 4 on the
    /// stretched schedule). The insertion operators plan with free-flow
    /// detours — admissible but optimistic under congestion — so
    /// planners call this before a candidate plan may win whenever
    /// [`Route::time_dependent`] holds (DESIGN.md §7).
    ///
    /// The answer is exactly that of `clone + apply_insertion +`
    /// [`Route::schedule_feasible`], without the copy:
    ///
    /// * stops `1..=i` are read off the stored entries — the splice
    ///   leaves their legs and departures alone, a frozen head included;
    /// * the range budget is checked against `Σleg − replaced + added`;
    /// * the spliced stops are walked from `arr[i]` through the same
    ///   leg-time formula the schedule uses, stopping at the first
    ///   violated deadline or load.
    ///
    /// That also equals the full [`Route::validate`] for every input
    /// the planners produce: the base route is a committed — hence valid
    /// — route and the splice puts a fresh request's pickup strictly
    /// before its delivery without reordering anything, so precedence
    /// holds by construction.
    ///
    /// `O(n)`, no allocation and no `dis` query, but one provider call
    /// per walked leg: under the time-dependent oracle each is a TD-A\*
    /// search or a cache hit, which is why planners gate only a plan
    /// that could win. Debug builds check the walk against the copy.
    ///
    /// # Panics
    /// If the plan's positions do not fit this route or its shape.
    pub fn insertion_feasible(&self, plan: &InsertionPlan, r: &Request, capacity: u32) -> bool {
        let feasible = self.walk_insertion(plan, r, capacity);
        #[cfg(debug_assertions)]
        cross_check(|| {
            let mut spliced = self.clone();
            spliced.apply_insertion(plan, r);
            assert_eq!(
                feasible,
                spliced.schedule_feasible(capacity),
                "the splice walk disagrees with apply_insertion on {plan:?}"
            );
        });
        feasible
    }

    /// The body of [`Route::insertion_feasible`].
    fn walk_insertion(&self, plan: &InsertionPlan, r: &Request, capacity: u32) -> bool {
        let n = self.len();
        let (i, j) = plan_positions(plan, n);
        if self.onboard() > capacity {
            return false;
        }
        if let Some(range) = self.range {
            let (replaced, added) = match plan.shape {
                PlanShape::Append { dis_tail_pickup } => (0, dis_tail_pickup + plan.direct),
                PlanShape::Adjacent {
                    dis_prev_pickup,
                    dis_delivery_next,
                } => (
                    self.leg(i + 1),
                    dis_prev_pickup + plan.direct + dis_delivery_next,
                ),
                PlanShape::Split {
                    dis_prev_pickup,
                    dis_pickup_next,
                    dis_prev_delivery,
                    dis_delivery_next,
                } => {
                    let (into_next, out_of_delivery) = match dis_delivery_next {
                        Some(next) if j < n => (self.leg(j + 1), next),
                        _ => (0, 0),
                    };
                    (
                        self.leg(i + 1) + into_next,
                        dis_prev_pickup + dis_pickup_next + dis_prev_delivery + out_of_delivery,
                    )
                }
            };
            if self.remaining_distance() - replaced + added > range {
                return false;
            }
        }
        if !fits(&self.locs[1..=i], capacity) {
            return false;
        }

        let (pickup, delivery) = request_stops(plan, r);
        let mut walk = SpliceWalk {
            route: self,
            at: self.vertex(i),
            time: self.arr(i),
            load: self.picked(i),
            capacity,
        };
        match plan.shape {
            PlanShape::Append { dis_tail_pickup } => {
                walk.visit(&pickup, dis_tail_pickup) && walk.visit(&delivery, plan.direct)
            }
            PlanShape::Adjacent {
                dis_prev_pickup,
                dis_delivery_next,
            } => {
                walk.visit(&pickup, dis_prev_pickup)
                    && walk.visit(&delivery, plan.direct)
                    && walk.visit(&self.locs[i + 1].stop, dis_delivery_next)
                    && walk.stored(i + 2..=n)
            }
            PlanShape::Split {
                dis_prev_pickup,
                dis_pickup_next,
                dis_prev_delivery,
                dis_delivery_next,
            } => {
                walk.visit(&pickup, dis_prev_pickup)
                    && walk.visit(&self.locs[i + 1].stop, dis_pickup_next)
                    && walk.stored(i + 2..=j)
                    && walk.visit(&delivery, dis_prev_delivery)
                    && match dis_delivery_next {
                        Some(next) if j < n => {
                            walk.visit(&self.locs[j + 1].stop, next) && walk.stored(j + 2..=n)
                        }
                        _ => true,
                    }
            }
        }
    }

    /// Whether replacing the pending tail with `stops`/`legs` keeps the
    /// route feasible under the installed travel-time provider — the
    /// [`Route::insertion_feasible`] gate for re-ordering planners
    /// (kinetic tree), checked on the caller's scratch `probe` route.
    /// Re-ordering *can* permute stops, so this one keeps the full
    /// [`Route::validate`] (its precedence pass is an O(n²) scan over
    /// the stops; the kinetic search does far more per call, so the
    /// gate is not the bottleneck).
    pub fn tail_feasible_with(
        &self,
        probe: &mut Route,
        stops: &[Stop],
        legs: &[Cost],
        capacity: u32,
    ) -> bool {
        probe.clone_from(self);
        probe.replace_tail(stops, legs);
        probe.validate(capacity).is_ok()
    }

    /// The schedule half of [`Route::validate`]: deadlines and capacity
    /// straight off the `arr`/`picked` entries, no precedence pass, no
    /// allocation. Sound on its own whenever the stop *sequence* is
    /// known valid — which is the case after `apply_insertion` on a
    /// committed route (see [`Route::insertion_feasible`]).
    pub fn schedule_feasible(&self, worker_capacity: u32) -> bool {
        self.onboard() <= worker_capacity
            && self
                .range
                .is_none_or(|range| self.remaining_distance() <= range)
            && fits(&self.locs[1..], worker_capacity)
    }

    /// Iterates the route's locations `l_0, l_1, …, l_n` (the start
    /// vertex followed by every stop's vertex) without collecting —
    /// the borrow-only twin of calling [`Route::vertex`] in a loop.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.locs.iter().map(|l| l.stop.vertex)
    }

    /// Full `O(n)` feasibility re-check (Def. 4), used by tests and the
    /// simulator's audit rather than the DP fast paths:
    /// precedence (pickup before delivery; deliveries may lack a pickup
    /// only if the request is already on board), deadlines and capacity.
    pub fn validate(&self, worker_capacity: u32) -> Result<(), String> {
        if self.onboard() > worker_capacity {
            return Err(format!(
                "initial load {} exceeds capacity {worker_capacity}",
                self.onboard()
            ));
        }
        if let Some(range) = self.range {
            let remaining = self.remaining_distance();
            if remaining > range {
                return Err(format!(
                    "range violated: remaining planned distance {remaining} exceeds budget {range}"
                ));
            }
        }
        // Precedence: an O(n²) scan over the stops, so the check
        // allocates nothing. A pickup must be the request's first stop,
        // a delivery its only one, and every pickup needs a later
        // delivery. A delivery with no pickup is an onboard rider.
        for (k, s) in self.stops().enumerate() {
            let mut earlier = self.stops().take(k).filter(|e| e.request == s.request);
            match s.kind {
                StopKind::Pickup if earlier.next().is_some() => {
                    return Err(format!("duplicate stop for {} at {k}", s.request));
                }
                StopKind::Delivery if earlier.any(|e| e.kind == StopKind::Delivery) => {
                    return Err(format!("double delivery for {}", s.request));
                }
                _ => {}
            }
        }
        for (k, s) in self.stops().enumerate() {
            if s.kind == StopKind::Pickup
                && !self
                    .stops()
                    .skip(k + 1)
                    .any(|e| e.request == s.request && e.kind == StopKind::Delivery)
            {
                return Err(format!("pickup without delivery for {}", s.request));
            }
        }
        // Deadlines and capacity from the schedule entries.
        for (k, l) in self.locs.iter().enumerate().skip(1) {
            if l.arr > l.stop.ddl {
                return Err(format!(
                    "deadline violated at stop {k}: arr {} > ddl {}",
                    l.arr, l.stop.ddl
                ));
            }
            if l.picked > worker_capacity {
                return Err(format!(
                    "capacity violated after stop {k}: {} > {worker_capacity}",
                    l.picked
                ));
            }
        }
        Ok(())
    }
}

/// Whether every location of `locs` is reached by its deadline and
/// leaves at most `capacity` on board — the per-stop test of
/// [`Route::schedule_feasible`].
fn fits(locs: &[Location], capacity: u32) -> bool {
    locs.iter()
        .all(|l| l.arr <= l.stop.ddl && l.picked <= capacity)
}

/// `(i, j)` of `plan` on a route of `n` stops.
///
/// # Panics
/// If the positions are out of range or do not fit the plan's shape.
fn plan_positions(plan: &InsertionPlan, n: usize) -> (usize, usize) {
    let (i, j) = (plan.pickup_after, plan.delivery_after);
    assert!(
        i <= j && j <= n,
        "plan positions out of range: ({i},{j}) with n={n}"
    );
    match plan.shape {
        PlanShape::Append { .. } => assert!(i == n && j == n, "Append shape requires i = j = n"),
        PlanShape::Adjacent { .. } => assert!(i == j && i < n, "Adjacent shape requires i = j < n"),
        PlanShape::Split {
            dis_delivery_next, ..
        } => {
            assert!(i < j, "Split shape requires i < j");
            assert!(
                j == n || dis_delivery_next.is_some(),
                "Split with j < n needs dis_delivery_next"
            );
        }
    }
    (i, j)
}

/// The pickup and delivery stops `plan` splices in for `r`, with the
/// deadlines of Eq. 6 (the pickup's is `e_r − L`).
fn request_stops(plan: &InsertionPlan, r: &Request) -> (Stop, Stop) {
    let pickup = Stop {
        request: r.id,
        vertex: r.origin,
        kind: StopKind::Pickup,
        load: r.capacity,
        ddl: r.pickup_deadline(plan.direct),
    };
    let delivery = Stop {
        request: r.id,
        vertex: r.destination,
        kind: StopKind::Delivery,
        load: r.capacity,
        ddl: r.deadline,
    };
    (pickup, delivery)
}

/// The insertion gate's cursor along a spliced stop sequence: where the
/// vehicle stands, when, and with what on board.
struct SpliceWalk<'a> {
    route: &'a Route,
    at: VertexId,
    time: Time,
    load: u32,
    capacity: u32,
}

impl SpliceWalk<'_> {
    /// Drives on to `stop` over a leg of free-flow cost `base`; `false`
    /// when the stop is reached past its deadline or leaves the vehicle
    /// over capacity — the per-stop test of [`Route::schedule_feasible`].
    fn visit(&mut self, stop: &Stop, base: Cost) -> bool {
        let leg = self.route.leg_time(self.at, stop.vertex, base, self.time);
        self.time = cost_add(self.time, leg);
        self.at = stop.vertex;
        self.load = match stop.kind {
            StopKind::Pickup => self.load + stop.load,
            StopKind::Delivery => self.load.saturating_sub(stop.load),
        };
        self.time <= stop.ddl && self.load <= self.capacity
    }

    /// Visits the route's own stops `l_k`, `k ∈ ks`, over their stored
    /// legs.
    fn stored(&mut self, mut ks: std::ops::RangeInclusive<usize>) -> bool {
        let route = self.route;
        ks.all(|k| self.visit(&route.locs[k].stop, route.leg(k)))
    }
}

#[cfg(debug_assertions)]
thread_local! {
    /// Set while a debug cross-check re-derives what the fast path
    /// already knows, so tests that count provider calls can tell the
    /// check's calls from the fast path's.
    static CROSS_CHECKING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs a debug-build cross-check, marked as such for call counters.
#[cfg(debug_assertions)]
fn cross_check(check: impl FnOnce()) {
    let outer = CROSS_CHECKING.replace(true);
    check();
    CROSS_CHECKING.set(outer);
}

/// A provider that forwards to `inner` and counts the
/// `leg_time_between` calls a route's fast paths make; the calls of a
/// debug-build cross-check are not counted.
#[cfg(test)]
pub(crate) struct CountingProvider<P> {
    inner: P,
    calls: std::sync::atomic::AtomicU64,
}

#[cfg(test)]
impl<P> CountingProvider<P> {
    pub fn new(inner: P) -> Self {
        CountingProvider {
            inner,
            calls: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Calls counted so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
impl<P: TravelTimeProvider> TravelTimeProvider for CountingProvider<P> {
    fn leg_time(&self, from: VertexId, base: Cost, depart: u64) -> Cost {
        self.inner.leg_time(from, base, depart)
    }

    fn is_flat(&self) -> bool {
        self.inner.is_flat()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn leg_time_between(&self, from: VertexId, to: VertexId, base: Cost, depart: u64) -> Cost {
        #[cfg(debug_assertions)]
        let counted = !CROSS_CHECKING.get();
        #[cfg(not(debug_assertions))]
        let counted = true;
        if counted {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        self.inner.leg_time_between(from, to, base, depart)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RequestId;

    fn stop(rid: u32, v: u32, kind: StopKind, load: u32, ddl: Time) -> Stop {
        Stop {
            request: RequestId(rid),
            vertex: VertexId(v),
            kind,
            load,
            ddl,
        }
    }

    fn req(rid: u32, o: u32, d: u32, deadline: Time, cap: u32) -> Request {
        Request {
            class: Default::default(),
            id: RequestId(rid),
            origin: VertexId(o),
            destination: VertexId(d),
            release: 0,
            deadline,
            penalty: 10,
            capacity: cap,
        }
    }

    #[test]
    fn empty_route_arrays() {
        let r = Route::new(VertexId(5), 42);
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
        assert_eq!(r.vertex(0), VertexId(5));
        assert_eq!(r.arr(0), 42);
        assert_eq!(r.ddl(0), INF);
        assert_eq!(r.slack(0), INF);
        assert_eq!(r.picked(0), 0);
        assert_eq!(r.remaining_distance(), 0);
        assert!(r.validate(4).is_ok());
    }

    #[test]
    fn append_plan_builds_schedule() {
        let mut route = Route::new(VertexId(0), 10);
        let r = req(1, 7, 8, 200, 1);
        let plan = InsertionPlan {
            pickup_after: 0,
            delivery_after: 0,
            delta: 30 + 50,
            direct: 50,
            shape: PlanShape::Append {
                dis_tail_pickup: 30,
            },
        };
        route.apply_insertion(&plan, &r);
        assert_eq!(route.len(), 2);
        assert_eq!(route.vertex(1), VertexId(7));
        assert_eq!(route.vertex(2), VertexId(8));
        assert_eq!(route.arr(1), 40);
        assert_eq!(route.arr(2), 90);
        assert_eq!(route.ddl(1), 150); // e_r − L = 200 − 50
        assert_eq!(route.ddl(2), 200);
        assert_eq!(route.picked(0), 0);
        assert_eq!(route.picked(1), 1);
        assert_eq!(route.picked(2), 0);
        // slack[1] = ddl[2] − arr[2] = 110; slack[0] = min(110, 150−40).
        assert_eq!(route.slack(2), INF);
        assert_eq!(route.slack(1), 110);
        assert_eq!(route.slack(0), 110);
        assert_eq!(route.remaining_distance(), 80);
        assert!(route.validate(1).is_ok());
    }

    #[test]
    fn adjacent_plan_splices_three_legs() {
        // Existing route: 0 →(100) s1 with generous deadline.
        let mut route = Route::new(VertexId(0), 0);
        let first = req(1, 1, 2, 10_000, 1);
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 0,
                delivery_after: 0,
                delta: 100,
                direct: 40,
                shape: PlanShape::Append {
                    dis_tail_pickup: 60,
                },
            },
            &first,
        );
        assert_eq!(route.len(), 2);

        // Insert a second request between l_0 and l_1 (i = j = 0 < n).
        let second = req(2, 3, 4, 10_000, 2);
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 0,
                delivery_after: 0,
                delta: 25,
                direct: 15,
                shape: PlanShape::Adjacent {
                    dis_prev_pickup: 20,
                    dis_delivery_next: 50,
                },
            },
            &second,
        );
        assert_eq!(route.len(), 4);
        assert_eq!(route.vertex(1), VertexId(3)); // o_r2
        assert_eq!(route.vertex(2), VertexId(4)); // d_r2
        assert_eq!(route.vertex(3), VertexId(1)); // o_r1
        assert_eq!(route.vertex(4), VertexId(2)); // d_r1
        assert_eq!(route.leg(1), 20);
        assert_eq!(route.leg(2), 15);
        assert_eq!(route.leg(3), 50);
        assert_eq!(route.leg(4), 40);
        assert_eq!(route.picked(1), 2);
        assert_eq!(route.picked(2), 0);
        assert!(route.validate(2).is_ok());
    }

    #[test]
    fn split_plan_inserts_across_stops() {
        // Route with two stops: pickup r1 at v1, deliver at v2.
        let mut route = Route::new(VertexId(0), 0);
        let r1 = req(1, 1, 2, 10_000, 1);
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 0,
                delivery_after: 0,
                delta: 100,
                direct: 70,
                shape: PlanShape::Append {
                    dis_tail_pickup: 30,
                },
            },
            &r1,
        );
        // Insert r2 with pickup after l_0 (i=0) and delivery after l_2 (j=2=n).
        let r2 = req(2, 5, 6, 10_000, 1);
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 0,
                delivery_after: 2,
                delta: 999, // not used by apply
                direct: 55,
                shape: PlanShape::Split {
                    dis_prev_pickup: 10,
                    dis_pickup_next: 25,
                    dis_prev_delivery: 35,
                    dis_delivery_next: None,
                },
            },
            &r2,
        );
        assert_eq!(route.len(), 4);
        assert_eq!(route.vertex(1), VertexId(5)); // o_r2
        assert_eq!(route.vertex(2), VertexId(1)); // o_r1
        assert_eq!(route.vertex(3), VertexId(2)); // d_r1
        assert_eq!(route.vertex(4), VertexId(6)); // d_r2
        assert_eq!(route.leg(1), 10);
        assert_eq!(route.leg(2), 25);
        assert_eq!(route.leg(3), 70);
        assert_eq!(route.leg(4), 35);
        // r2 rides from stop 1 through stop 4.
        assert_eq!(route.picked(1), 1);
        assert_eq!(route.picked(2), 2);
        assert_eq!(route.picked(3), 1);
        assert_eq!(route.picked(4), 0);
        assert!(route.validate(2).is_ok());
    }

    #[test]
    fn split_with_middle_delivery() {
        // Build a 4-stop route, then split-insert with j < n.
        let mut route = Route::new(VertexId(0), 0);
        let r1 = req(1, 1, 2, 100_000, 1);
        let r2 = req(2, 3, 4, 100_000, 1);
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 0,
                delivery_after: 0,
                delta: 0,
                direct: 50,
                shape: PlanShape::Append {
                    dis_tail_pickup: 10,
                },
            },
            &r1,
        );
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 2,
                delivery_after: 2,
                delta: 0,
                direct: 60,
                shape: PlanShape::Append {
                    dis_tail_pickup: 20,
                },
            },
            &r2,
        );
        // Route: o1(v1) d1(v2) o2(v3) d2(v4); insert r3: i=1, j=3.
        let r3 = req(3, 7, 8, 100_000, 1);
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 1,
                delivery_after: 3,
                delta: 0,
                direct: 44,
                shape: PlanShape::Split {
                    dis_prev_pickup: 5,
                    dis_pickup_next: 6,
                    dis_prev_delivery: 7,
                    dis_delivery_next: Some(8),
                },
            },
            &r3,
        );
        let verts: Vec<u32> = route.vertices().map(|v| v.0).collect();
        assert_eq!(verts, vec![0, 1, 7, 2, 3, 8, 4]);
        assert_eq!(route.leg(2), 5); // v1 → o_r3
        assert_eq!(route.leg(3), 6); // o_r3 → v2
        assert_eq!(route.leg(5), 7); // v3 → d_r3
        assert_eq!(route.leg(6), 8); // d_r3 → v4
        assert!(route.validate(3).is_ok());
    }

    #[test]
    fn pop_front_advances_start_and_load() {
        let mut route = Route::new(VertexId(0), 0);
        let r = req(1, 1, 2, 10_000, 3);
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 0,
                delivery_after: 0,
                delta: 0,
                direct: 40,
                shape: PlanShape::Append {
                    dis_tail_pickup: 25,
                },
            },
            &r,
        );
        assert_eq!(route.arr(1), 25);
        let (s, t) = route.pop_front_stop();
        assert_eq!(s.kind, StopKind::Pickup);
        assert_eq!(t, 25);
        assert_eq!(route.start_vertex(), VertexId(1));
        assert_eq!(route.start_time(), 25);
        assert_eq!(route.onboard(), 3);
        assert_eq!(route.len(), 1);

        let (s, t) = route.pop_front_stop();
        assert_eq!(s.kind, StopKind::Delivery);
        assert_eq!(t, 65);
        assert_eq!(route.onboard(), 0);
        assert!(route.is_empty());
    }

    #[test]
    fn validate_catches_violations() {
        let mut route = Route::new(VertexId(0), 0);
        let r = req(1, 1, 2, 50, 1);
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 0,
                delivery_after: 0,
                delta: 0,
                direct: 40,
                shape: PlanShape::Append {
                    dis_tail_pickup: 25,
                },
            },
            &r,
        );
        // arr at delivery = 65 > deadline 50.
        assert!(route.validate(4).unwrap_err().contains("deadline"));

        // Capacity violation.
        let mut route = Route::new(VertexId(0), 0);
        let r = req(1, 1, 2, 10_000, 5);
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 0,
                delivery_after: 0,
                delta: 0,
                direct: 40,
                shape: PlanShape::Append {
                    dis_tail_pickup: 25,
                },
            },
            &r,
        );
        assert!(route.validate(4).unwrap_err().contains("capacity"));
    }

    #[test]
    fn validate_catches_pickup_without_delivery() {
        let mut route = Route::new(VertexId(0), 0);
        route
            .locs
            .push(Location::stop(stop(1, 1, StopKind::Pickup, 1, 1_000), 10));
        route.rebuild();
        assert!(route
            .validate(4)
            .unwrap_err()
            .contains("pickup without delivery"));
    }

    #[test]
    fn validate_catches_a_duplicate_or_out_of_order_pickup() {
        let mut route = Route::new(VertexId(0), 0);
        for kind in [StopKind::Pickup, StopKind::Pickup, StopKind::Delivery] {
            route
                .locs
                .push(Location::stop(stop(1, 1, kind, 1, 1_000), 10));
        }
        route.rebuild();
        assert_eq!(
            route.validate(4),
            Err("duplicate stop for r1 at 1".to_string())
        );

        // A pickup after its own delivery is out of order.
        let mut route = Route::new(VertexId(0), 0);
        route.locs[0].picked = 1;
        for kind in [StopKind::Delivery, StopKind::Pickup, StopKind::Delivery] {
            route
                .locs
                .push(Location::stop(stop(1, 1, kind, 1, 1_000), 10));
        }
        route.rebuild();
        assert_eq!(
            route.validate(4),
            Err("duplicate stop for r1 at 1".to_string())
        );
    }

    #[test]
    fn validate_catches_a_double_delivery() {
        let mut route = Route::new(VertexId(0), 0);
        for kind in [StopKind::Pickup, StopKind::Delivery, StopKind::Delivery] {
            route
                .locs
                .push(Location::stop(stop(1, 1, kind, 1, 1_000), 10));
        }
        route.rebuild();
        assert_eq!(route.validate(4), Err("double delivery for r1".to_string()));
    }

    #[test]
    fn delivery_only_is_valid_for_onboard_rider() {
        let mut route = Route::new(VertexId(0), 0);
        route.locs[0].picked = 1;
        route
            .locs
            .push(Location::stop(stop(1, 1, StopKind::Delivery, 1, 1_000), 10));
        route.rebuild();
        assert!(route.validate(4).is_ok());
        assert_eq!(route.picked(1), 0);
    }

    #[test]
    fn remove_request_bridges_gaps_and_frees_distance() {
        // Line metric: dis(u, v) = |u − v| · 10.
        let dis = |a: VertexId, b: VertexId| u64::from(a.0.abs_diff(b.0)) * 10;
        let mut route = Route::new(VertexId(0), 0);
        let r1 = req(1, 2, 10, 100_000, 1);
        let r2 = req(2, 4, 6, 100_000, 1);
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 0,
                delivery_after: 0,
                delta: 100,
                direct: dis(r1.origin, r1.destination),
                shape: PlanShape::Append {
                    dis_tail_pickup: dis(VertexId(0), r1.origin),
                },
            },
            &r1,
        );
        // Splice r2 between r1's pickup and delivery: 0 → 2 → 4 → 6 → 10.
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 1,
                delivery_after: 1,
                delta: 0,
                direct: dis(r2.origin, r2.destination),
                shape: PlanShape::Adjacent {
                    dis_prev_pickup: dis(r1.origin, r2.origin),
                    dis_delivery_next: dis(r2.destination, r1.destination),
                },
            },
            &r2,
        );
        assert_eq!(route.remaining_distance(), 100);

        // Removing r2 bridges 2 → 10 directly; on a line nothing is
        // freed (no detour), and the arrays stay consistent.
        let freed = route.remove_request(RequestId(2), dis).expect("pending");
        assert_eq!(freed, 0);
        let verts: Vec<u32> = route.vertices().map(|v| v.0).collect();
        assert_eq!(verts, vec![0, 2, 10]);
        assert_eq!(route.leg(2), 80);
        assert!(route.validate(1).is_ok());

        // Removing the tail request frees its whole remaining path.
        let freed = route.remove_request(RequestId(1), dis).expect("pending");
        assert_eq!(freed, 100);
        assert!(route.is_empty());
        assert_eq!(route.remaining_distance(), 0);
    }

    /// A head leg snapped onto a time-dependent detour holds a driven
    /// *remainder*, not `dis(l_0, l_1)` — bridging past it must not
    /// mint planned distance the ledger never committed (the bridge is
    /// capped at the coverage it replaces, and `freed` stays ≥ 0).
    #[test]
    fn remove_request_caps_the_bridge_over_a_snapped_head() {
        let dis = |a: VertexId, b: VertexId| u64::from(a.0.abs_diff(b.0)) * 100;
        let mut route = Route::new(VertexId(0), 0);
        let r1 = req(1, 5, 10, 100_000, 1);
        let r2 = req(2, 7, 12, 100_000, 1);
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 0,
                delivery_after: 0,
                delta: 1_000,
                direct: 500,
                shape: PlanShape::Append {
                    dis_tail_pickup: 500,
                },
            },
            &r1,
        );
        // 0 → 5 → 7 → 10 → 12.
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 1,
                delivery_after: 2,
                delta: 400,
                direct: 500,
                shape: PlanShape::Split {
                    dis_prev_pickup: 200,
                    dis_pickup_next: 300,
                    dis_prev_delivery: 200,
                    dis_delivery_next: None,
                },
            },
            &r2,
        );
        // Snap mid-leg onto a detour vertex: 120 base units remain to
        // l_1 per the driven ledger, though dis(2, 5) = 300.
        route.snap_on_leg(VertexId(2), 380, 120);
        let before = route.remaining_distance(); // 120+200+300+200
        assert_eq!(before, 820);

        // Cancelling r1 bridges 2 → 7 (head) and 7 → 12 (tail). The
        // head bridge dis(2, 7) = 500 exceeds the replaced coverage
        // 120 + 200 = 320 and is capped there; the tail bridge
        // dis(7, 12) = 500 equals its coverage 300 + 200 exactly.
        let freed = route.remove_request(RequestId(1), dis).expect("pending");
        assert_eq!(freed, 0, "capped bridges never mint planned distance");
        assert_eq!(route.remaining_distance(), before);
        assert_eq!(route.leg(1), 320);
        assert_eq!(route.leg(2), 500);
        let verts: Vec<u32> = route.vertices().map(|v| v.0).collect();
        assert_eq!(verts, vec![2, 7, 12]);
        assert!(route.validate(1).is_ok());
    }

    #[test]
    fn remove_request_refuses_onboard_and_unknown() {
        let dis = |a: VertexId, b: VertexId| u64::from(a.0.abs_diff(b.0)) * 10;
        let mut route = Route::new(VertexId(0), 0);
        let r = req(1, 3, 8, 100_000, 1);
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 0,
                delivery_after: 0,
                delta: 80,
                direct: 50,
                shape: PlanShape::Append {
                    dis_tail_pickup: 30,
                },
            },
            &r,
        );
        // Unknown request: untouched.
        assert_eq!(route.remove_request(RequestId(9), dis), None);
        assert_eq!(route.len(), 2);
        // Picked up: the delivery is committed forever (invariability).
        route.pop_front_stop();
        assert_eq!(route.remove_request(RequestId(1), dis), None);
        assert_eq!(route.len(), 1);
    }

    #[test]
    fn remove_first_stop_rebridges_from_start() {
        let dis = |a: VertexId, b: VertexId| u64::from(a.0.abs_diff(b.0)) * 10;
        let mut route = Route::new(VertexId(0), 0);
        let r1 = req(1, 5, 6, 100_000, 1);
        let r2 = req(2, 1, 9, 100_000, 1);
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 0,
                delivery_after: 0,
                delta: 60,
                direct: 10,
                shape: PlanShape::Append {
                    dis_tail_pickup: 50,
                },
            },
            &r1,
        );
        // r2 wraps around r1: 0 → 1 → 5 → 6 → 9.
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 0,
                delivery_after: 2,
                delta: 0,
                direct: 80,
                shape: PlanShape::Split {
                    dis_prev_pickup: dis(VertexId(0), VertexId(1)),
                    dis_pickup_next: dis(VertexId(1), VertexId(5)),
                    dis_prev_delivery: dis(VertexId(6), VertexId(9)),
                    dis_delivery_next: None,
                },
            },
            &r2,
        );
        // Removing r2 strips the first and last stops; the first leg
        // re-bridges from the start vertex.
        let freed = route.remove_request(RequestId(2), dis).expect("pending");
        assert_eq!(freed, 30); // 90 planned, 60 remain (0→5→6)
        let verts: Vec<u32> = route.vertices().map(|v| v.0).collect();
        assert_eq!(verts, vec![0, 5, 6]);
        assert_eq!(route.leg(1), 50);
        assert!(route.validate(1).is_ok());
    }

    fn x15() -> Arc<dyn TravelTimeProvider> {
        Arc::new(road_network::congestion::CongestionProfile::constant("x1.5", 1.5).expect("valid"))
    }

    fn appended(deadline: Time) -> Route {
        let mut route = Route::new(VertexId(0), 0);
        let r = req(1, 1, 2, deadline, 1);
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 0,
                delivery_after: 0,
                delta: 0,
                direct: 40,
                shape: PlanShape::Append {
                    dis_tail_pickup: 25,
                },
            },
            &r,
        );
        route
    }

    #[test]
    fn congestion_stretches_arrivals_but_not_legs() {
        let mut route = appended(10_000);
        assert_eq!((route.arr(1), route.arr(2)), (25, 65));
        route.set_congestion(Some(x15()));
        assert!(route.time_dependent());
        // Schedule stretches 1.5×; legs (the economics) stay free-flow.
        assert_eq!((route.arr(1), route.arr(2)), (38, 98));
        assert_eq!((route.leg(1), route.leg(2)), (25, 40));
        assert_eq!(route.remaining_distance(), 65);
        // A flat provider is the identity.
        route.set_congestion(Some(Arc::new(
            road_network::congestion::CongestionProfile::flat(),
        )));
        assert!(!route.time_dependent());
        assert_eq!((route.arr(1), route.arr(2)), (25, 65));
    }

    #[test]
    fn snap_on_leg_freezes_the_head_arrival() {
        let mut route = appended(10_000);
        route.set_congestion(Some(x15()));
        let arr1 = route.arr(1); // 38
        let arr2 = route.arr(2); // 98
                                 // Snap onto an interior vertex: 10 base units driven (15 cs).
        route.snap_on_leg(VertexId(9), 15, 15);
        assert_eq!(route.start_vertex(), VertexId(9));
        assert_eq!(route.arr(1), arr1, "snap must not move arr[1]");
        assert_eq!(route.arr(2), arr2, "snap must not move arr[2]");
        assert_eq!(route.leg(1), 15, "head leg re-bases to the remainder");
        // The freeze clears on the next structural change.
        route.pop_front_stop();
        assert_eq!(route.start_time(), arr1);
        assert_eq!(route.arr(1), arr2);
    }

    #[test]
    fn insertion_feasible_gates_on_the_stretched_schedule() {
        // Free-flow delivery at 65; a 1.5× profile pushes it to 98.
        let plan = InsertionPlan {
            pickup_after: 0,
            delivery_after: 0,
            delta: 0,
            direct: 40,
            shape: PlanShape::Append {
                dis_tail_pickup: 25,
            },
        };
        let r = req(1, 1, 2, 80, 1); // feasible free-flow, late at 1.5×
        let mut route = Route::new(VertexId(0), 0);
        assert!(route.insertion_feasible(&plan, &r, 4));
        route.set_congestion(Some(x15()));
        assert!(!route.insertion_feasible(&plan, &r, 4));
        // A roomier deadline passes under congestion too.
        let r = req(1, 1, 2, 200, 1);
        assert!(route.insertion_feasible(&plan, &r, 4));
        assert!(route.is_empty(), "the gate must not mutate the route");
    }

    /// Only legs whose timing can change are re-timed. An insertion at
    /// `i` — applied, or walked by the gate — asks the provider about
    /// legs `i + 1 ..= n + 2` and nothing else; a snap and a pop ask
    /// about nothing. Each mutation leaves the route equal to a
    /// from-scratch rebuild. The profile's 1 s buckets make most legs
    /// straddle a multiplier change, and the slow class stretches every
    /// base before the provider sees it.
    #[test]
    fn mutations_retime_only_the_legs_that_moved() {
        let provider = Arc::new(CountingProvider::new(
            road_network::congestion::CongestionProfile::uniform(
                "waves",
                100,
                &[1.0, 1.5, 2.0, 1.25],
            )
            .expect("valid"),
        ));
        let dis = |a: VertexId, b: VertexId| u64::from(a.0.abs_diff(b.0)) * 40;
        let calls = |mutate: &mut dyn FnMut()| {
            let before = provider.calls();
            mutate();
            provider.calls() - before
        };
        let rebuilt = |route: &Route| {
            let mut full = route.clone();
            full.rebuild();
            full
        };
        let mut route = Route::new(VertexId(0), 0);
        route.set_congestion(Some(provider.clone()));
        route.set_class_profile(1_300, None);
        // 0 → 2 → 5 → 7 → 9 → 11 → 14.
        for (id, o, d) in [(1u32, 2u32, 5u32), (2, 7, 9), (3, 11, 14)] {
            let n = route.len();
            let plan = InsertionPlan {
                pickup_after: n,
                delivery_after: n,
                delta: 0,
                direct: dis(VertexId(o), VertexId(d)),
                shape: PlanShape::Append {
                    dis_tail_pickup: dis(route.vertex(n), VertexId(o)),
                },
            };
            route.apply_insertion(&plan, &req(id, o, d, 1_000_000, 1));
        }

        // Every plan position of a fresh request on a route of n stops.
        let r = req(9, 20, 21, 1_000_000, 1);
        let plans = |route: &Route| {
            let n = route.len();
            let mut plans = Vec::new();
            for i in 0..=n {
                for j in i..=n {
                    let shape = if i == n {
                        PlanShape::Append {
                            dis_tail_pickup: dis(route.vertex(n), r.origin),
                        }
                    } else if i == j {
                        PlanShape::Adjacent {
                            dis_prev_pickup: dis(route.vertex(i), r.origin),
                            dis_delivery_next: dis(r.destination, route.vertex(i + 1)),
                        }
                    } else {
                        PlanShape::Split {
                            dis_prev_pickup: dis(route.vertex(i), r.origin),
                            dis_pickup_next: dis(r.origin, route.vertex(i + 1)),
                            dis_prev_delivery: dis(route.vertex(j), r.destination),
                            dis_delivery_next: (j < n)
                                .then(|| dis(r.destination, route.vertex(j + 1))),
                        }
                    };
                    plans.push(InsertionPlan {
                        pickup_after: i,
                        delivery_after: j,
                        delta: 0,
                        direct: dis(r.origin, r.destination),
                        shape,
                    });
                }
            }
            plans
        };
        let check_insertions = |route: &Route| {
            let n = route.len();
            for plan in plans(route) {
                let i = plan.pickup_after;
                let legs = (n + 2 - i) as u64;
                let mut feasible = false;
                let walked = calls(&mut || feasible = route.insertion_feasible(&plan, &r, 8));
                assert!(feasible, "roomy deadlines: {plan:?}");
                assert_eq!(walked, legs, "the gate walks from the splice: {plan:?}");
                let mut spliced = route.clone();
                let applied = calls(&mut || spliced.apply_insertion(&plan, &r));
                assert_eq!(applied, legs, "apply re-times from the splice: {plan:?}");
                assert_eq!(spliced, rebuilt(&spliced), "{plan:?}");
            }
        };
        check_insertions(&route);

        // A snap freezes the head: nothing moves, nothing is re-timed,
        // and an insertion behind the frozen head keeps it.
        let (arr1, v1) = (route.arr(1), route.vertex(1));
        assert_eq!(
            calls(&mut || route.snap_on_leg(VertexId(1), arr1 / 3, 45)),
            0
        );
        assert_eq!(route, rebuilt(&route));
        assert_eq!((route.arr(1), route.vertex(1)), (arr1, v1));
        check_insertions(&route);

        // Pops shift the schedule down a slot — the first one clearing
        // the freeze — and re-time nothing.
        let arrivals = |route: &Route, from: usize| -> Vec<Time> {
            (from..=route.len()).map(|k| route.arr(k)).collect()
        };
        while !route.is_empty() {
            let (next, after) = (route.arr(1), arrivals(&route, 2));
            let mut reached = 0;
            let popped = calls(&mut || reached = route.pop_front_stop().1);
            assert_eq!(popped, 0, "a pop re-times nothing");
            assert_eq!((reached, arrivals(&route, 1)), (next, after));
            assert_eq!(route, rebuilt(&route));
        }
    }

    #[test]
    fn cancellation_under_congestion_frees_base_distance() {
        let dis = |a: VertexId, b: VertexId| u64::from(a.0.abs_diff(b.0)) * 10;
        let mut route = Route::new(VertexId(0), 0);
        for (id, o, d) in [(1u32, 2u32, 10u32), (2, 4, 6)] {
            let r = req(id, o, d, 100_000, 1);
            let plan = if id == 1 {
                InsertionPlan {
                    pickup_after: 0,
                    delivery_after: 0,
                    delta: 100,
                    direct: dis(r.origin, r.destination),
                    shape: PlanShape::Append {
                        dis_tail_pickup: dis(VertexId(0), r.origin),
                    },
                }
            } else {
                InsertionPlan {
                    pickup_after: 1,
                    delivery_after: 1,
                    delta: 0,
                    direct: dis(r.origin, r.destination),
                    shape: PlanShape::Adjacent {
                        dis_prev_pickup: dis(VertexId(2), r.origin),
                        dis_delivery_next: dis(r.destination, VertexId(10)),
                    },
                }
            };
            route.apply_insertion(&plan, &r);
        }
        route.set_congestion(Some(x15()));
        let arr_before = route.arr(4);
        // Freed distance is measured in free-flow units even though the
        // schedule is stretched, and removal only shrinks arrivals.
        let freed = route.remove_request(RequestId(2), dis).expect("pending");
        assert_eq!(freed, 0); // line metric: no detour
        assert_eq!(route.remaining_distance(), 100);
        assert!(route.arr(2) <= arr_before);
        assert_eq!(route.arr(2), 150); // 100 base · 1.5
        assert!(route.validate(1).is_ok());
    }

    #[test]
    fn set_start_retimes_schedule() {
        let mut route = Route::new(VertexId(0), 0);
        let r = req(1, 1, 2, 10_000, 1);
        route.apply_insertion(
            &InsertionPlan {
                pickup_after: 0,
                delivery_after: 0,
                delta: 0,
                direct: 40,
                shape: PlanShape::Append {
                    dis_tail_pickup: 25,
                },
            },
            &r,
        );
        route.set_start(VertexId(9), 100, Some(5));
        assert_eq!(route.vertex(0), VertexId(9));
        assert_eq!(route.arr(1), 105);
        assert_eq!(route.arr(2), 145);

        let mut idle = Route::new(VertexId(3), 7);
        idle.set_start_time(99);
        assert_eq!(idle.arr(0), 99);
    }

    /// The one-store re-time of an empty route leaves every field as
    /// the full rebuild it replaced would: checked on a fresh route, on
    /// one drained by pops, and on one emptied by a cancellation after
    /// a mid-leg snap under a stretching profile and a slow class (the
    /// path that must have dropped the head freeze by itself).
    #[test]
    fn set_start_time_on_an_empty_route_equals_a_full_rebuild() {
        let dis = |a: VertexId, b: VertexId| u64::from(a.0.abs_diff(b.0)) * 10;
        let fresh = Route::new(VertexId(3), 7);
        let mut popped = appended(10_000);
        popped.pop_front_stop();
        popped.pop_front_stop();
        let mut cancelled = appended(10_000);
        cancelled.set_congestion(Some(x15()));
        cancelled.set_class_profile(1_300, Some(5_000));
        cancelled.snap_on_leg(VertexId(9), 10, 15);
        assert!(cancelled.head_time.is_some());
        cancelled
            .remove_request(RequestId(1), dis)
            .expect("pending");

        for mut route in [fresh, popped, cancelled] {
            assert!(route.is_empty());
            let t = route.start_time() + 500;
            let mut rebuilt = route.clone();
            rebuilt.locs[0].arr = t;
            rebuilt.head_time = None;
            rebuilt.rebuild();

            route.set_start_time(t);
            assert_eq!(route.start_time(), t);
            // `==` skips the context fields; `Debug` prints them all.
            assert_eq!(route, rebuilt);
            assert_eq!(format!("{route:?}"), format!("{rebuilt:?}"));
            assert_eq!(route.locs.len(), 1);
            assert_eq!(route.head_time, None);
            assert_eq!((route.slack(0), route.picked(0)), (INF, route.onboard()));
        }
    }
}
