//! Vertex-granular worker movement.
//!
//! Between stops a worker drives the shortest path; when the clock
//! advances we snap the worker to the *next* path vertex it will reach
//! (a vehicle mid-edge cannot turn around, so its effective replanning
//! location is the edge head). This matches the paper's model — in
//! Example 2, worker `w1`'s `l_0` is `v1`, an intermediate vertex of
//! its path, at the moment a new request arrives.
//!
//! A static leg is expanded from one oracle call,
//! [`DistanceOracle::shortest_path_offsets`]: the path with each
//! vertex's free-flow offset along it. On the hub-label oracle that is
//! two walks up the labels' search trees, whose label distances are the
//! offsets, so motion issues no `dis` (DESIGN.md §10 "Paths from the
//! labels"). The walk lands in a buffer the caller lends
//! [`WorkerMotion::advance`] — the service keeps one for its whole
//! fleet — so an expansion allocates nothing once that buffer has grown
//! to the longest leg (DESIGN.md §8). A time-dependent provider expands
//! its own legs ([`TravelTimeProvider::td_expand`]) and bypasses it.
//!
//! Each worker caches its expanded current leg; the cache is keyed on
//! `(l_0, l_1, arr[1], leg base)` so any committed insertion,
//! reorder, or cancellation bridge that changes the first leg
//! transparently forces a re-expansion. The base belongs in the key:
//! under a time-dependent provider a reorder can re-base a snapped
//! head leg while `l_0`, `l_1` *and* `arr[1]` all stay put (the TD
//! arrival is a property of the physical path, which the snapped
//! vertex lies on), and crediting from the stale expansion would
//! drift the driven ledger.
//!
//! # Who gets advanced
//!
//! [`WorkerMotion::advance`] is a no-op for a worker with nothing to
//! drive, with an undrivable head leg, or already at or ahead of the
//! clock, and the service does not call it for them: on each clock
//! move it advances every *due* worker — `PlatformState::due(w) ≤ t`,
//! the platform's motion index (DESIGN.md §1) — in ascending id,
//! reading only the blocks of 64 workers whose minimum `due` is. An
//! idle worker, including one that drains its route inside `advance`,
//! is not touched at all: it stays at its last stop's arrival time and
//! the platform's lazy idle clock reads its departure as `max(arr[0],
//! now)`.
//!
//! # Distance vs. time
//!
//! `driven` is accounted in **free-flow distance** units (the unit of
//! every planned/freed quantity), not wall-clock: each path entry
//! carries its cumulative free-flow offset along the leg, and snaps
//! credit offset deltas. Without a congestion profile the two
//! coincide; with one, wall-clock stretches while the ledger
//! `driven == Σ planned` stays exact — the audit pins it.
//!
//! # Disconnected legs
//!
//! When the oracle has no path for a leg (`shortest_path_offsets` →
//! `false` — possible for bridge legs spliced by a cancellation on a
//! directed or partitioned graph), the leg is synthesized as a single
//! hop timed by the route's own schedule — never by re-querying `dis`,
//! whose `INF` answer used to fabricate an expansion that violated the
//! "expanded path time equals leg travel time" invariant and corrupted
//! the driven ledger. A leg whose scheduled arrival is `INF` is
//! undrivable: the worker holds its position (and its clean ledger)
//! and the audit surfaces the stranded assignment.

use road_network::congestion::TravelTimeProvider;
use road_network::oracle::DistanceOracle;
use road_network::{cost_add, Cost, VertexId, INF};
use smallvec::SmallVec;
use urpsm_core::platform::PlatformState;
use urpsm_core::types::{Time, WorkerId};

/// Cached expansion of one worker's current leg.
#[derive(Debug, Default, Clone)]
pub struct WorkerMotion {
    /// `(vertex, arrival time, cumulative free-flow offset)` along the
    /// current leg, inclusive of both endpoints. Empty = nothing
    /// cached. Inline up to 16 triples: urban legs are a handful of
    /// vertices, so the common expansion never touches the heap.
    path: SmallVec<(VertexId, Time, Cost), 16>,
    /// Index of the last position the worker was snapped to.
    cursor: usize,
    /// Cache key: `(l_0 at expansion, l_1, arr[1], leg base)`. The leg
    /// base must participate: a route mutation can replace a snapped
    /// head remainder with a re-queried `dis(l_0, l_1)` while *every
    /// other* coordinate collides — under a time-dependent provider the
    /// arrival at `l_1` is a property of the physical TD path, which
    /// the snapped vertex lies on, so `arr[1]` is genuinely preserved
    /// (kinetic reorders and front insertions onto the same `l_1` both
    /// produce this). A base-blind key would then keep crediting from
    /// the stale expansion and drift the driven ledger.
    key: (VertexId, VertexId, Time, Cost),
    /// Total driven free-flow distance so far.
    pub driven: Cost,
    /// How many times [`WorkerMotion::advance`] was entered.
    #[cfg(test)]
    pub(crate) entered: u64,
}

impl WorkerMotion {
    /// Invalidates the cached leg (after a stop pop).
    pub fn invalidate(&mut self) {
        self.path.clear();
        self.cursor = 0;
    }

    /// Expands the current leg of `w` if the cache is stale; a static
    /// leg is walked into `walk` first.
    fn ensure_expanded(
        &mut self,
        state: &PlatformState,
        w: WorkerId,
        oracle: &dyn DistanceOracle,
        walk: &mut Vec<(VertexId, Cost)>,
    ) {
        let route = &state.agent(w).route;
        let key = (route.vertex(0), route.vertex(1), route.arr(1), route.leg(1));
        if !self.path.is_empty() && self.key == key {
            return;
        }
        self.path.clear();
        self.cursor = 0;
        self.key = key;
        let (from, to) = (route.vertex(0), route.vertex(1));
        let t0 = route.start_time();
        let leg_base = route.leg(1);
        let congestion: Option<&dyn TravelTimeProvider> =
            route.congestion().map(|p| p.as_ref() as _);
        // The vehicle-class multiplier stretches the free-flow base
        // *before* any provider sees it. Offsets in `path` stay in
        // unscaled free-flow units (the driven ledger's currency); only
        // timestamps stretch.
        let stretch = |b: Cost| route.class_stretch(b);
        // Vertex time at cumulative free-flow offset `b`, integrated
        // from the leg start — the same composition `Route::rebuild`
        // used for arr[1] (class stretch, then provider), so the
        // endpoints agree by construction.
        let at_offset = |b: Cost| match congestion {
            None => cost_add(t0, stretch(b)),
            Some(p) => cost_add(t0, p.leg_time(from, stretch(b), t0)),
        };
        self.path.push((from, t0, 0));
        // A rerouting provider (road_network::td) knows which vertices
        // the leg actually visits *at this departure time* — ask it
        // first. It emits nothing and returns false in every static
        // case (flat profile, degenerate legs), where the free-flow
        // shortest path below is exact. The provider is handed the
        // class-stretched base (exactly what the route's schedule fed
        // it), and the offsets it emits — relative to that scaled
        // base — are renormalized back onto the stored free-flow base
        // so the final offset lands exactly on `leg_base`.
        let scaled_base = stretch(leg_base);
        let td_expanded = match congestion {
            Some(p) => p.td_expand(from, to, scaled_base, t0, &mut |v, at, off| {
                let off = if scaled_base == leg_base || scaled_base == 0 {
                    off
                } else {
                    ((u128::from(off) * u128::from(leg_base)) / u128::from(scaled_base)) as Cost
                };
                self.path.push((v, at, off));
            }),
            None => false,
        };
        if !td_expanded {
            if oracle.shortest_path_offsets(from, to, walk) && walk.len() >= 2 && walk[0].0 == from
            {
                // Offsets are normalized to the leg's stored base: for
                // an ordinary leg `leg_base` equals the path total and
                // the scaling is exact identity, but a cancellation-
                // bridge leg is *capped* at the coverage it replaced
                // (`Route::remove_request`), so its base may undershoot
                // the concrete path. Scaling keeps the invariant "last
                // offset equals the leg base", which is what the driven
                // ledger telescopes over.
                let total = walk[walk.len() - 1].1;
                let scale = |b: Cost| -> Cost {
                    if total == 0 {
                        leg_base
                    } else {
                        ((u128::from(leg_base) * u128::from(b)) / u128::from(total)) as Cost
                    }
                };
                self.path.extend(walk[1..].iter().map(|&(v, b)| {
                    let s = scale(b);
                    (v, at_offset(s), s)
                }));
            } else {
                // No concrete path: synthesize the leg as one hop using
                // the schedule's own base cost and arrival.
                self.path.push((to, route.arr(1), leg_base));
            }
        }
        // Path timing must agree with the schedule's leg (both are the
        // same integration of the same free-flow cost). A frozen head
        // (`Route::snap_on_leg`) never reaches this point: a snap
        // re-keys the cache instead of re-expanding.
        debug_assert_eq!(
            self.path.last().expect("non-empty").1,
            route.arr(1),
            "expanded path time must equal leg travel time"
        );
        debug_assert_eq!(
            self.path.last().expect("non-empty").2,
            leg_base,
            "expanded path length must equal the leg's base cost"
        );
    }

    /// Moves worker `w` forward to time `t`.
    ///
    /// Pops every stop reached by `t` (returning them via `on_stop`),
    /// then snaps the worker onto the next vertex of its current leg.
    /// `walk` is scratch: a static leg's path query writes into it.
    pub fn advance(
        &mut self,
        state: &mut PlatformState,
        w: WorkerId,
        t: Time,
        oracle: &dyn DistanceOracle,
        walk: &mut Vec<(VertexId, Cost)>,
        mut on_stop: impl FnMut(urpsm_core::types::Stop, Time),
    ) {
        #[cfg(test)]
        {
            self.entered += 1;
        }
        loop {
            // An idle worker has nothing to drive; its clock is lazy
            // (`WorkerHead::departure`).
            if state.head(w).idle {
                return;
            }
            let route = &state.agent(w).route;
            let arr1 = route.arr(1);
            if arr1 >= INF {
                // Undrivable leg (disconnected bridge): hold position
                // rather than teleporting to an unreachable vertex at
                // time INF and poisoning the driven ledger. The audit
                // reports the stranded assignment.
                return;
            }
            if arr1 <= t {
                // The whole remaining head leg gets driven: its base
                // cost (after any snap, `leg[1]` is exactly the
                // remainder).
                let leg_remaining = route.leg(1);
                let (stop, at) = state.pop_worker_stop(w);
                self.driven += leg_remaining;
                self.invalidate();
                on_stop(stop, at);
                continue;
            }
            // Mid-leg: snap to the next path vertex reached at ≥ t.
            if route.start_time() >= t {
                return; // already ahead of the clock
            }
            self.ensure_expanded(state, w, oracle, walk);
            let mut k = self.cursor;
            while self.path[k].1 < t {
                k += 1;
            }
            debug_assert!(k < self.path.len());
            if k != self.cursor {
                let (v, at, offset) = self.path[k];
                let total_base = self.path.last().expect("non-empty").2;
                // The expansion must still describe the stored leg:
                // crediting from a stale path desynchronizes driven
                // from planned (the cache key above exists to make
                // this impossible).
                debug_assert_eq!(
                    total_base,
                    cost_add(route.leg(1), self.path[self.cursor].2),
                    "stale expansion: the stored leg changed under the cached path"
                );
                self.driven += offset - self.path[self.cursor].2;
                state.snap_worker_on_leg(w, v, at, total_base - offset);
                self.cursor = k;
                // Re-key so the position update doesn't look stale
                // (the snap shrank the leg base by exactly `offset`).
                self.key = (v, self.key.1, self.key.2, total_base - offset);
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_network::geo::Point;
    use road_network::matrix::MatrixOracle;
    use road_network::oracle::{CountingOracle, HubLabelOracle};
    use std::sync::Arc;
    use urpsm_core::insertion::linear_dp_insertion;
    use urpsm_core::types::{Request, RequestId, StopKind, Worker};

    fn line_oracle(n: usize) -> Arc<MatrixOracle> {
        let mut b = road_network::builder::NetworkBuilder::new();
        for i in 0..n {
            b.add_vertex(Point::new(i as f64, 0.0));
        }
        for i in 1..n as u32 {
            b.add_edge_with_cost(VertexId(i - 1), VertexId(i), 100)
                .unwrap();
        }
        b.set_top_speed_mps(1.0);
        Arc::new(MatrixOracle::from_network(&b.finish().unwrap()))
    }

    fn setup() -> (PlatformState, Arc<MatrixOracle>) {
        let oracle = line_oracle(30);
        let ws = vec![Worker {
            class: Default::default(),
            id: WorkerId(0),
            origin: VertexId(0),
            capacity: 4,
        }];
        let state = PlatformState::new(oracle.clone(), &ws, 5.0, 0);
        (state, oracle)
    }

    fn assign(state: &mut PlatformState, id: u32, o: u32, d: u32) {
        let r = Request {
            class: Default::default(),
            id: RequestId(id),
            origin: VertexId(o),
            destination: VertexId(d),
            release: state.now(),
            deadline: 1_000_000,
            penalty: 1,
            capacity: 1,
        };
        let plan = linear_dp_insertion(&state.agent(WorkerId(0)).route, 4, &r, state.oracle())
            .expect("feasible");
        state.commit(WorkerId(0), &r, &plan);
    }

    #[test]
    fn advances_through_stops_and_mid_leg() {
        let (mut state, oracle) = setup();
        assign(&mut state, 1, 5, 10);
        let (mut motion, mut buf) = (WorkerMotion::default(), Vec::new());
        let mut stops = Vec::new();

        // t=250: mid-way to the pickup at vertex 5 (arr 500). The
        // worker snaps to vertex 3 (reached at t=300).
        motion.advance(&mut state, WorkerId(0), 250, &*oracle, &mut buf, |s, t| {
            stops.push((s, t));
        });
        assert!(stops.is_empty());
        let route = &state.agent(WorkerId(0)).route;
        assert_eq!(route.vertex(0), VertexId(3));
        assert_eq!(route.start_time(), 300);
        assert_eq!(route.arr(1), 500, "pickup arrival unchanged");

        // t=700: past the pickup (500), mid-way to the drop (1000).
        motion.advance(&mut state, WorkerId(0), 700, &*oracle, &mut buf, |s, t| {
            stops.push((s, t));
        });
        assert_eq!(stops.len(), 1);
        assert_eq!(stops[0].0.kind, StopKind::Pickup);
        assert_eq!(stops[0].1, 500);
        let route = &state.agent(WorkerId(0)).route;
        assert_eq!(route.vertex(0), VertexId(7)); // reached at 700

        // t=2000: everything done; worker idles at the drop vertex.
        motion.advance(
            &mut state,
            WorkerId(0),
            2_000,
            &*oracle,
            &mut buf,
            |s, t| {
                stops.push((s, t));
            },
        );
        assert_eq!(stops.len(), 2);
        assert_eq!(stops[1].0.kind, StopKind::Delivery);
        assert_eq!(stops[1].1, 1_000);
        // Idle at the drop vertex since the delivery: nothing re-times
        // the route, the lazy clock reads its departure.
        state.advance_clock(2_000);
        let head = state.head(WorkerId(0));
        assert!(head.idle);
        assert_eq!(head.vertex, VertexId(10));
        assert_eq!((head.start, head.departure(state.now())), (1_000, 2_000));
        // Driven = 0→5→10 = 1000 travel units.
        assert_eq!(motion.driven, 1_000);
    }

    #[test]
    fn insertion_mid_leg_replans_from_snapped_vertex() {
        let (mut state, oracle) = setup();
        assign(&mut state, 1, 10, 20);
        let (mut motion, mut buf) = (WorkerMotion::default(), Vec::new());
        motion.advance(&mut state, WorkerId(0), 450, &*oracle, &mut buf, |_, _| {});
        // Snapped to vertex 5 at t=500.
        assert_eq!(state.agent(WorkerId(0)).route.vertex(0), VertexId(5));

        // New request picked up on the way (vertex 7).
        assign(&mut state, 2, 7, 15);
        let mut stops = Vec::new();
        motion.advance(
            &mut state,
            WorkerId(0),
            10_000,
            &*oracle,
            &mut buf,
            |s, t| {
                stops.push((s, t));
            },
        );
        assert_eq!(stops.len(), 4);
        // Pickup r2 at 7 (t=700), pickup r1 at 10 (t=1000),
        // deliver r2 at 15 (t=1500), deliver r1 at 20 (t=2000).
        assert_eq!(stops[0].1, 700);
        assert_eq!(stops[1].1, 1_000);
        assert_eq!(stops[2].1, 1_500);
        assert_eq!(stops[3].1, 2_000);
        // Driven total: 0→…→20 = 2000, no detours on a line.
        assert_eq!(motion.driven, 2_000);
        assert_eq!(state.total_assigned_distance(), 2_000);
    }

    #[test]
    fn idle_worker_is_left_alone() {
        let (mut state, oracle) = setup();
        state.advance_clock(777);
        let (mut motion, mut buf) = (WorkerMotion::default(), Vec::new());
        motion.advance(&mut state, WorkerId(0), 777, &*oracle, &mut buf, |_, _| {});
        let head = state.head(WorkerId(0));
        assert_eq!((head.start, head.departure(state.now())), (0, 777));
        assert_eq!(motion.driven, 0);
    }

    /// An oracle that answers distances but never produces a concrete
    /// path — the shape of the `shortest_path → None` regression.
    struct Pathless(Arc<MatrixOracle>);

    impl DistanceOracle for Pathless {
        fn num_vertices(&self) -> usize {
            self.0.num_vertices()
        }
        fn point(&self, v: VertexId) -> road_network::geo::Point {
            self.0.point(v)
        }
        fn top_speed_mps(&self) -> f64 {
            self.0.top_speed_mps()
        }
        fn dis(&self, u: VertexId, v: VertexId) -> Cost {
            self.0.dis(u, v)
        }
        fn shortest_path(&self, _u: VertexId, _v: VertexId) -> Option<Vec<VertexId>> {
            None
        }
    }

    #[test]
    fn pathless_legs_are_synthesized_from_the_schedule() {
        // Regression (PR 5): the old fallback re-queried `dis` to time
        // a fabricated two-vertex path; the leg must instead be timed
        // by the route's own schedule so the expansion invariant and
        // the driven ledger hold exactly.
        let oracle = Pathless(line_oracle(30));
        let ws = vec![Worker {
            class: Default::default(),
            id: WorkerId(0),
            origin: VertexId(0),
            capacity: 4,
        }];
        let mut state = PlatformState::new(line_oracle(30), &ws, 5.0, 0);
        assign(&mut state, 1, 5, 10);
        let (mut motion, mut buf) = (WorkerMotion::default(), Vec::new());
        let mut stops = Vec::new();
        // Mid-leg with no path: the only known position ahead is the
        // stop itself, reached at its scheduled arrival.
        motion.advance(&mut state, WorkerId(0), 250, &oracle, &mut buf, |s, t| {
            stops.push((s, t));
        });
        let route = &state.agent(WorkerId(0)).route;
        assert_eq!(route.vertex(0), VertexId(5));
        assert_eq!(route.start_time(), 500);
        assert_eq!(route.arr(1), 500, "pickup arrival unchanged");
        motion.advance(
            &mut state,
            WorkerId(0),
            10_000,
            &oracle,
            &mut buf,
            |s, t| {
                stops.push((s, t));
            },
        );
        assert_eq!(stops.len(), 2);
        assert_eq!(stops[1].1, 1_000);
        assert_eq!(motion.driven, 1_000, "driven ledger stays exact");
        assert_eq!(state.total_assigned_distance(), 1_000);
    }

    /// The label walk's offsets, and no `dis`: a static leg is costed
    /// from its path walk alone.
    struct NoDis(HubLabelOracle);

    impl DistanceOracle for NoDis {
        fn num_vertices(&self) -> usize {
            self.0.num_vertices()
        }
        fn point(&self, v: VertexId) -> road_network::geo::Point {
            self.0.point(v)
        }
        fn top_speed_mps(&self) -> f64 {
            self.0.top_speed_mps()
        }
        fn dis(&self, u: VertexId, v: VertexId) -> Cost {
            panic!("motion asked for dis({u}, {v})")
        }
        fn shortest_path(&self, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
            self.0.shortest_path(u, v)
        }
        fn shortest_path_offsets(
            &self,
            u: VertexId,
            v: VertexId,
            out: &mut Vec<(VertexId, Cost)>,
        ) -> bool {
            self.0.shortest_path_offsets(u, v, out)
        }
    }

    /// Every leg of a worker's day on a 6 × 6 grid of equal blocks
    /// (many equal-cost paths), free flow and stretched 1.5×, expands
    /// from the label walk's offsets into exactly the `(vertex, time,
    /// offset)` triples the per-edge `dis` loop produced — the trait
    /// default a [`CountingOracle`] keeps, counted to be sure it ran.
    #[test]
    fn label_offsets_expand_legs_as_the_per_edge_loop_did() {
        use road_network::congestion::CongestionProfile;
        let mut b = road_network::builder::NetworkBuilder::new();
        for i in 0..36u32 {
            b.add_vertex(Point::new(f64::from(i % 6), f64::from(i / 6)));
        }
        for i in 0..36u32 {
            if i % 6 < 5 {
                b.add_edge_with_cost(VertexId(i), VertexId(i + 1), 100)
                    .unwrap();
            }
            if i < 30 {
                b.add_edge_with_cost(VertexId(i), VertexId(i + 6), 100)
                    .unwrap();
            }
        }
        b.set_top_speed_mps(1.0);
        let g = Arc::new(b.finish().unwrap());
        let labels = NoDis(HubLabelOracle::build(g.clone()));
        let mut walk = Vec::new();
        let per_edge = CountingOracle::new(HubLabelOracle::build(g.clone()));
        for stretch in [None, Some(1.5)] {
            let ws = [Worker {
                class: Default::default(),
                id: WorkerId(0),
                origin: VertexId(0),
                capacity: 4,
            }];
            let mut state =
                PlatformState::new(Arc::new(HubLabelOracle::build(g.clone())), &ws, 5.0, 0);
            state.set_congestion(
                stretch.map(|x| Arc::new(CongestionProfile::constant("stretch", x).unwrap()) as _),
            );
            per_edge.reset();
            let (mut motion, mut legs, mut edges) = (WorkerMotion::default(), 0, 0);
            for (id, (o, d)) in [(14, 35), (30, 5), (21, 8), (35, 0)]
                .into_iter()
                .enumerate()
            {
                assign(&mut state, id as u32, o, d);
                while !state.head(WorkerId(0)).idle {
                    let mut reference = WorkerMotion::default();
                    motion.ensure_expanded(&state, WorkerId(0), &labels, &mut walk);
                    reference.ensure_expanded(&state, WorkerId(0), &per_edge, &mut walk);
                    assert_eq!(
                        motion.path[..],
                        reference.path[..],
                        "{stretch:?}, request {id}"
                    );
                    legs += 1;
                    edges += motion.path.len() as u64 - 1;
                    // Half way along the leg, then onto its stop.
                    let route = &state.agent(WorkerId(0)).route;
                    let (t0, t1) = (route.start_time(), route.arr(1));
                    let half = (t0 + t1) / 2;
                    motion.advance(&mut state, WorkerId(0), half, &labels, &mut walk, |_, _| {});
                    motion.advance(&mut state, WorkerId(0), t1, &labels, &mut walk, |_, _| {});
                }
            }
            assert!(legs >= 8, "{stretch:?}: every request drives two legs");
            assert_eq!(per_edge.stats().path, legs);
            assert_eq!(
                per_edge.stats().dis,
                edges,
                "one dis per edge in the default"
            );
            assert_eq!(motion.driven, state.total_assigned_distance());
        }
    }

    #[test]
    fn undrivable_inf_leg_holds_position_and_ledger() {
        // Regression (PR 5): a leg the oracle cannot connect (INF) used
        // to teleport the worker to the unreachable vertex at time INF
        // and add INF to `driven`. The worker must hold instead.
        use urpsm_core::types::Stop;
        let (mut state, oracle) = setup();
        let r = Request {
            class: Default::default(),
            id: RequestId(1),
            origin: VertexId(4),
            destination: VertexId(6),
            release: 0,
            deadline: road_network::INF,
            penalty: 1,
            capacity: 1,
        };
        let stops = vec![
            Stop {
                request: r.id,
                vertex: r.origin,
                kind: StopKind::Pickup,
                load: 1,
                ddl: road_network::INF,
            },
            Stop {
                request: r.id,
                vertex: r.destination,
                kind: StopKind::Delivery,
                load: 1,
                ddl: road_network::INF,
            },
        ];
        state.commit_reordered(
            WorkerId(0),
            &r,
            &stops,
            &[road_network::INF, 200],
            road_network::INF + 200,
        );
        assert!(state.agent(WorkerId(0)).route.arr(1) >= road_network::INF);
        let (mut motion, mut buf) = (WorkerMotion::default(), Vec::new());
        motion.advance(
            &mut state,
            WorkerId(0),
            5_000,
            &*oracle,
            &mut buf,
            |_, _| {
                panic!("no stop is reachable");
            },
        );
        let route = &state.agent(WorkerId(0)).route;
        assert_eq!(route.vertex(0), VertexId(0), "worker must hold position");
        assert_eq!(route.start_time(), 0);
        assert_eq!(motion.driven, 0, "no INF may leak into the ledger");
    }

    #[test]
    fn congested_expansion_matches_the_stretched_schedule() {
        use road_network::congestion::CongestionProfile;
        let (mut state, oracle) = setup();
        state.set_congestion(Some(Arc::new(
            CongestionProfile::constant("x1.5", 1.5).unwrap(),
        )));
        assign(&mut state, 1, 5, 10);
        assert_eq!(state.agent(WorkerId(0)).route.arr(1), 750);
        let (mut motion, mut buf) = (WorkerMotion::default(), Vec::new());
        let mut stops = Vec::new();
        // t=400: vertex k is reached at 150·k — snap to vertex 3 (450).
        motion.advance(&mut state, WorkerId(0), 400, &*oracle, &mut buf, |_, _| {});
        let route = &state.agent(WorkerId(0)).route;
        assert_eq!(route.vertex(0), VertexId(3));
        assert_eq!(route.start_time(), 450);
        assert_eq!(route.arr(1), 750, "snap must not move the schedule");
        assert_eq!(motion.driven, 300, "driven is base distance, not time");

        motion.advance(
            &mut state,
            WorkerId(0),
            10_000,
            &*oracle,
            &mut buf,
            |s, t| {
                stops.push((s, t));
            },
        );
        assert_eq!(stops.len(), 2);
        assert_eq!(stops[0].1, 750); // pickup, stretched
        assert_eq!(stops[1].1, 1_500); // delivery, stretched
        assert_eq!(motion.driven, 1_000, "ledger in free-flow units");
        assert_eq!(state.total_assigned_distance(), 1_000);
    }
}
