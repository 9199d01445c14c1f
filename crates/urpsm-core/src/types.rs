//! Problem entities of the URPSM model (Definitions 2–4 of the paper).

use road_network::{Cost, VertexId};

/// Simulation/platform time, in the same integer centisecond unit as
/// [`Cost`] (the paper uses travel time and distance interchangeably).
pub type Time = u64;

/// Identifier of a worker (driver / courier).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub u32);

impl WorkerId {
    /// Index form for slice access.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Identifier of a request (rider / parcel).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u32);

impl RequestId {
    /// Index form for slice access.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of a vehicle class, indexing into a [`ClassTable`].
///
/// The default class `0` is the homogeneous "standard" fleet of the
/// paper: unit speed, no range limit. Heterogeneous fleets add further
/// classes; eligibility against them is decided exclusively in the two
/// seams documented on [`ClassTable`] — planners never see this type.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u16);

impl ClassId {
    /// The homogeneous default class every seeded worker belongs to.
    pub const STANDARD: ClassId = ClassId(0);

    /// Index form for slice access.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ClassId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Per-mille travel-time multiplier of the standard class: free-flow
/// legs pass through unchanged.
pub const SPEED_BASELINE_PM: u32 = 1_000;

/// A vehicle class: the static profile shared by every worker of that
/// class. Classes compose with the travel-time machinery on the *input*
/// side — a class's `speed_permille` stretches the free-flow base fed
/// into the route's `TravelTimeProvider`, which preserves the
/// provider's FIFO / conservation / monotonicity contracts pointwise
/// (see DESIGN.md §12).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VehicleClass {
    /// Human-readable label ("sedan", "van", "ebike", …).
    pub name: &'static str,
    /// Capacity `K_w` each worker of this class is provisioned with
    /// (the mean for Gaussian fleet generation). Must be ≥ 1.
    pub capacity: u32,
    /// Per-mille multiplier applied to free-flow leg times: `1000` is
    /// the network baseline, `1250` travels 25% slower. Must be
    /// ≥ [`SPEED_BASELINE_PM`] so straight-line-at-top-speed lower
    /// bounds (candidate shortlist, Euclidean decision phase) stay
    /// admissible for every class.
    pub speed_permille: u32,
    /// Optional range budget: maximum *free-flow* distance a worker of
    /// this class may have planned ahead of it at any time (battery
    /// between depot recharges — completing a stop frees its legs, the
    /// depot model of DESIGN.md §12). `None` = unlimited.
    pub range: Option<Cost>,
}

impl VehicleClass {
    /// The homogeneous default class: unit speed, no range limit.
    pub fn standard() -> Self {
        VehicleClass {
            name: "standard",
            capacity: 3,
            speed_permille: SPEED_BASELINE_PM,
            range: None,
        }
    }

    /// Whether this class behaves exactly like the paper's homogeneous
    /// fleet (no schedule stretch, no range gate) — the fast path every
    /// existing byte-identity pin rides on.
    #[inline]
    pub fn is_standard_profile(&self) -> bool {
        self.speed_permille == SPEED_BASELINE_PM && self.range.is_none()
    }
}

impl Default for VehicleClass {
    fn default() -> Self {
        Self::standard()
    }
}

/// Which vehicle classes may serve a request.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassConstraint {
    /// Any class (the paper's setting; the default).
    #[default]
    Any,
    /// Exactly one class: only workers of that class may serve it.
    Only(ClassId),
}

impl ClassConstraint {
    /// Whether a worker of class `class` may serve the request.
    #[inline]
    pub fn allows(self, class: ClassId) -> bool {
        match self {
            ClassConstraint::Any => true,
            ClassConstraint::Only(c) => c == class,
        }
    }

    /// Whether some vehicle class satisfies both constraints — i.e. two
    /// requests could ride the same vehicle as far as classes go.
    #[inline]
    pub fn compatible(self, other: ClassConstraint) -> bool {
        match (self, other) {
            (ClassConstraint::Only(a), ClassConstraint::Only(b)) => a == b,
            _ => true,
        }
    }
}

/// The fleet's vehicle classes, indexed by [`ClassId`].
///
/// This is *the* authority on class semantics: eligibility is decided
/// in exactly two seams — the class filter inside
/// `PlatformState::candidate_workers` and the capacity/range gate
/// inside `Route::insertion_feasible` — and both read their
/// parameters from here at install time. Planners consume the opaque
/// `EligibleCandidates` view those seams produce and therefore cannot
/// observe classes at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassTable {
    classes: Vec<VehicleClass>,
}

impl ClassTable {
    /// A single-class table: the paper's homogeneous fleet.
    pub fn single() -> Self {
        ClassTable {
            classes: vec![VehicleClass::standard()],
        }
    }

    /// Builds a table from explicit classes.
    ///
    /// # Panics
    /// If `classes` is empty, a class has zero capacity, or a class's
    /// `speed_permille` is below [`SPEED_BASELINE_PM`] (faster-than-
    /// baseline classes would break the admissibility of straight-line
    /// lower bounds).
    pub fn new(classes: Vec<VehicleClass>) -> Self {
        assert!(
            !classes.is_empty(),
            "class table must have at least one class"
        );
        for c in &classes {
            assert!(
                c.capacity >= 1,
                "vehicle class {:?} has zero capacity",
                c.name
            );
            assert!(
                c.speed_permille >= SPEED_BASELINE_PM,
                "vehicle class {:?} is faster than the network baseline \
                 (speed_permille {} < {}); lower bounds would be inadmissible",
                c.name,
                c.speed_permille,
                SPEED_BASELINE_PM,
            );
        }
        ClassTable { classes }
    }

    /// The class profile for `id`.
    ///
    /// # Panics
    /// If `id` is not in the table.
    #[inline]
    pub fn get(&self, id: ClassId) -> &VehicleClass {
        &self.classes[id.idx()]
    }

    /// Number of classes.
    #[inline]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Always false: tables hold at least one class.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// All classes, in id order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, &VehicleClass)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, c)| (ClassId(i as u16), c))
    }
}

impl Default for ClassTable {
    fn default() -> Self {
        Self::single()
    }
}

/// A worker `w = <o_w, K_w>` (Def. 2): an initial location and a
/// capacity (seats in a taxi, box slots of a courier), extended with a
/// [`ClassId`] for heterogeneous fleets (the default class 0 recovers
/// the paper's homogeneous setting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Worker {
    /// Stable identifier.
    pub id: WorkerId,
    /// Initial location `o_w`.
    pub origin: VertexId,
    /// Capacity `K_w`: maximum passengers/items on board at any time.
    pub capacity: u32,
    /// Vehicle class, indexing the platform's [`ClassTable`].
    pub class: ClassId,
}

/// A request `r = <o_r, d_r, t_r, e_r, p_r, K_r>` (Def. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Stable identifier.
    pub id: RequestId,
    /// Pickup vertex `o_r`.
    pub origin: VertexId,
    /// Drop-off vertex `d_r`.
    pub destination: VertexId,
    /// Release time `t_r`: the platform first learns of `r` now.
    pub release: Time,
    /// Delivery deadline `e_r`: drop-off must happen no later than this.
    /// (The pickup deadline is the derived `e_r − dis(o_r, d_r)`.)
    pub deadline: Time,
    /// Penalty `p_r` charged to the unified cost if `r` is rejected.
    pub penalty: Cost,
    /// Capacity demand `K_r`: passengers/items in this single request.
    pub capacity: u32,
    /// Which vehicle classes may serve this request (default: any).
    pub class: ClassConstraint,
}

impl Request {
    /// The latest pickup time that can still meet the delivery deadline,
    /// given the shortest pickup→drop-off travel time `l = dis(o_r, d_r)`:
    /// Eq. 6's pickup `ddl`, `e_r − L`, saturating at 0.
    #[inline]
    pub fn pickup_deadline(&self, l: Cost) -> Time {
        self.deadline.saturating_sub(l)
    }
}

/// What a stop on a route does.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StopKind {
    /// Pick the request's passengers/items up at its origin.
    #[default]
    Pickup,
    /// Drop them off at its destination.
    Delivery,
}

/// One location `l_k` of a route (Def. 4): the origin or destination of
/// an assigned request, plus the cached per-stop data the schedule
/// arrays of §4.3 are rebuilt from.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Stop {
    /// The request being picked up / delivered.
    pub request: RequestId,
    /// Where this stop happens.
    pub vertex: VertexId,
    /// Pickup or delivery.
    pub kind: StopKind,
    /// Capacity effect `K_r` of the request.
    pub load: u32,
    /// Latest feasible arrival (`ddl` of Eq. 6): `e_r − dis(o_r, d_r)`
    /// for pickups, `e_r` for deliveries.
    pub ddl: Time,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pickup_deadline_subtracts_direct_time() {
        let r = Request {
            id: RequestId(0),
            origin: VertexId(1),
            destination: VertexId(2),
            release: 100,
            deadline: 500,
            penalty: 10,
            capacity: 1,
            class: ClassConstraint::Any,
        };
        assert_eq!(r.pickup_deadline(120), 380);
        // Saturates rather than wrapping for hopeless requests.
        assert_eq!(r.pickup_deadline(10_000), 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(WorkerId(3).to_string(), "w3");
        assert_eq!(RequestId(9).to_string(), "r9");
        assert_eq!(ClassId(2).to_string(), "c2");
    }

    #[test]
    fn class_constraint_allows() {
        assert!(ClassConstraint::Any.allows(ClassId(0)));
        assert!(ClassConstraint::Any.allows(ClassId(7)));
        assert!(ClassConstraint::Only(ClassId(1)).allows(ClassId(1)));
        assert!(!ClassConstraint::Only(ClassId(1)).allows(ClassId(0)));
    }

    #[test]
    fn class_table_default_is_single_standard() {
        let table = ClassTable::default();
        assert_eq!(table.len(), 1);
        assert!(table.get(ClassId::STANDARD).is_standard_profile());
        assert_eq!(table.get(ClassId::STANDARD).name, "standard");
    }

    #[test]
    #[should_panic(expected = "zero capacity")]
    fn class_table_rejects_zero_capacity() {
        ClassTable::new(vec![VehicleClass {
            name: "ghost",
            capacity: 0,
            speed_permille: SPEED_BASELINE_PM,
            range: None,
        }]);
    }

    #[test]
    #[should_panic(expected = "faster than the network baseline")]
    fn class_table_rejects_faster_than_baseline() {
        ClassTable::new(vec![VehicleClass {
            name: "rocket",
            capacity: 2,
            speed_permille: 900,
            range: None,
        }]);
    }
}
