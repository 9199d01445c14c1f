//! Uniform grid indexes over moving items (workers).
//!
//! Two variants, matching the two index designs compared in §6.2:
//!
//! * [`GridIndex`] — plain per-cell buckets of item ids. This is what
//!   `pruneGreedyDP`, `GreedyDP`, `kinetic` and `batch` use: "the grid
//!   index of the other algorithms only stores the IDs of workers in
//!   the grid". Each bucket carries its items' points in a parallel
//!   column, so a range query is a linear scan of dense arrays.
//! * [`SortedCellGrid`] — additionally precomputes, for every cell, all
//!   cells sorted by center distance (T-Share's "spatio-temporally
//!   ordered grid lists"). Candidate search walks that list outward.
//!   This is the memory-hungry design: `O(C²)` for `C` cells, which is
//!   exactly why the paper's Fig. 5 memory panel shows `tshare` using
//!   orders of magnitude more memory at small `g`.

use crate::fxhash::FxHashMap;
use crate::geo::{BoundingBox, Point};

/// Opaque item identifier (worker id in the planners).
pub type ItemId = u64;

/// A plain uniform grid of item buckets.
#[derive(Debug, Clone)]
pub struct GridIndex {
    bbox: BoundingBox,
    cell_m: f64,
    nx: usize,
    ny: usize,
    cells: Vec<Vec<ItemId>>,
    /// `cell_pts[c][k]` is the exact position of item `cells[c][k]`:
    /// range queries filter by true distance off this column, without a
    /// lookup per item. Every bucket edit moves both columns alike.
    cell_pts: Vec<Vec<Point>>,
    /// item -> (cell, exact position), the by-id side of the index.
    items: FxHashMap<ItemId, (usize, Point)>,
}

impl GridIndex {
    /// Creates a grid covering `bbox` with square cells of `cell_m`
    /// meters (the paper's parameter `g`, in km there).
    ///
    /// # Panics
    /// If `cell_m <= 0`.
    pub fn new(bbox: BoundingBox, cell_m: f64) -> Self {
        assert!(cell_m > 0.0, "cell size must be positive");
        let nx = (bbox.width() / cell_m).ceil().max(1.0) as usize;
        let ny = (bbox.height() / cell_m).ceil().max(1.0) as usize;
        GridIndex {
            bbox,
            cell_m,
            nx,
            ny,
            cells: vec![Vec::new(); nx * ny],
            cell_pts: vec![Vec::new(); nx * ny],
            items: FxHashMap::default(),
        }
    }

    /// Grid dimensions `(columns, rows)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no items are indexed.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The cell index containing `p` (clamped to the grid).
    #[inline]
    pub fn cell_of(&self, p: Point) -> usize {
        let cx = (((p.x - self.bbox.min.x) / self.cell_m) as isize).clamp(0, self.nx as isize - 1)
            as usize;
        let cy = (((p.y - self.bbox.min.y) / self.cell_m) as isize).clamp(0, self.ny as isize - 1)
            as usize;
        cy * self.nx + cx
    }

    /// Center point of cell `c`.
    pub fn cell_center(&self, c: usize) -> Point {
        let cx = c % self.nx;
        let cy = c / self.nx;
        Point::new(
            self.bbox.min.x + (cx as f64 + 0.5) * self.cell_m,
            self.bbox.min.y + (cy as f64 + 0.5) * self.cell_m,
        )
    }

    /// Inserts or moves an item to position `p`.
    pub fn upsert(&mut self, id: ItemId, p: Point) {
        let new_cell = self.cell_of(p);
        match self.items.get_mut(&id) {
            Some((cell, old_p)) => {
                let old_cell = std::mem::replace(cell, new_cell);
                *old_p = p;
                if old_cell == new_cell {
                    let slot = Self::slot_in(&self.cells[old_cell], id);
                    self.cell_pts[old_cell][slot] = p;
                } else {
                    self.remove_from_cell(old_cell, id);
                    self.push_to_cell(new_cell, id, p);
                }
            }
            None => {
                self.items.insert(id, (new_cell, p));
                self.push_to_cell(new_cell, id, p);
            }
        }
    }

    /// Removes an item; returns whether it was present.
    pub fn remove(&mut self, id: ItemId) -> bool {
        match self.items.remove(&id) {
            Some((cell, _)) => {
                self.remove_from_cell(cell, id);
                true
            }
            None => false,
        }
    }

    fn slot_in(bucket: &[ItemId], id: ItemId) -> usize {
        bucket
            .iter()
            .position(|&x| x == id)
            .expect("an indexed item is in its cell's bucket")
    }

    fn push_to_cell(&mut self, cell: usize, id: ItemId, p: Point) {
        self.cells[cell].push(id);
        self.cell_pts[cell].push(p);
    }

    fn remove_from_cell(&mut self, cell: usize, id: ItemId) {
        let slot = Self::slot_in(&self.cells[cell], id);
        self.cells[cell].swap_remove(slot);
        self.cell_pts[cell].swap_remove(slot);
    }

    /// Exact position of an item, if indexed.
    pub fn position(&self, id: ItemId) -> Option<Point> {
        self.items.get(&id).map(|(_, p)| *p)
    }

    /// Collects ids of all items within `radius_m` of `p` (exact
    /// point-distance filter after the coarse cell sweep) into `out`.
    pub fn items_within(&self, p: Point, radius_m: f64, out: &mut Vec<ItemId>) {
        out.clear();
        self.for_each_within(p, radius_m, |id| out.push(id));
    }

    /// Calls `visit` with the id of every item within `radius_m` of `p`
    /// (exact point-distance filter after the coarse cell sweep), cell
    /// by cell in bucket order.
    pub fn for_each_within(&self, p: Point, radius_m: f64, mut visit: impl FnMut(ItemId)) {
        if radius_m < 0.0 {
            return;
        }
        // Clamp both bounds into the grid: items whose positions fall
        // outside the bounding box are clamped into border cells by
        // `cell_of`, so border cells must stay scannable even when the
        // query circle itself lies outside the box. The exact
        // point-distance filter below keeps the result correct.
        let lo_x = (((p.x - radius_m - self.bbox.min.x) / self.cell_m).floor() as isize)
            .clamp(0, self.nx as isize - 1);
        let hi_x = (((p.x + radius_m - self.bbox.min.x) / self.cell_m).floor() as isize)
            .clamp(0, self.nx as isize - 1);
        let lo_y = (((p.y - radius_m - self.bbox.min.y) / self.cell_m).floor() as isize)
            .clamp(0, self.ny as isize - 1);
        let hi_y = (((p.y + radius_m - self.bbox.min.y) / self.cell_m).floor() as isize)
            .clamp(0, self.ny as isize - 1);
        for cy in lo_y..=hi_y {
            for cx in lo_x..=hi_x {
                let c = cy as usize * self.nx + cx as usize;
                for (&id, q) in self.cells[c].iter().zip(&self.cell_pts[c]) {
                    if q.euclidean_m(&p) <= radius_m {
                        visit(id);
                    }
                }
            }
        }
    }

    /// Approximate heap usage in bytes.
    pub fn mem_bytes(&self) -> usize {
        let buckets: usize = self.cells.iter().map(|c| c.capacity() * 8).sum();
        let points: usize = self
            .cell_pts
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<Point>())
            .sum();
        self.cells.capacity() * std::mem::size_of::<Vec<ItemId>>()
            + self.cell_pts.capacity() * std::mem::size_of::<Vec<Point>>()
            + buckets
            + points
            + self.items.capacity() * (8 + std::mem::size_of::<(usize, Point)>() + 8)
    }
}

/// T-Share-style grid: per-cell list of *all* cells ordered by center
/// distance, plus the same item buckets as [`GridIndex`].
#[derive(Debug, Clone)]
pub struct SortedCellGrid {
    base: GridIndex,
    /// `sorted[c]` = every cell id ordered by distance from `c`'s
    /// center (including `c` itself, first). `O(C²)` memory by design.
    sorted: Vec<Vec<(f32, u32)>>,
}

impl SortedCellGrid {
    /// Builds the sorted cell lists for a grid over `bbox`.
    pub fn new(bbox: BoundingBox, cell_m: f64) -> Self {
        let base = GridIndex::new(bbox, cell_m);
        let c = base.num_cells();
        let centers: Vec<Point> = (0..c).map(|i| base.cell_center(i)).collect();
        let mut sorted = Vec::with_capacity(c);
        for i in 0..c {
            let mut row: Vec<(f32, u32)> = centers
                .iter()
                .enumerate()
                .map(|(j, q)| (centers[i].euclidean_m(q) as f32, j as u32))
                .collect();
            row.sort_by(|a, b| a.partial_cmp(b).expect("distances are finite"));
            sorted.push(row);
        }
        SortedCellGrid { base, sorted }
    }

    /// The underlying plain grid (item operations live there).
    pub fn grid(&self) -> &GridIndex {
        &self.base
    }

    /// Mutable access to the underlying grid.
    pub fn grid_mut(&mut self) -> &mut GridIndex {
        &mut self.base
    }

    /// Walks cells outward from the cell containing `p`, collecting
    /// items until cell-center distance exceeds `radius_m`; items are
    /// *not* point-filtered (T-Share prunes by cell reachability only,
    /// which is why it can wrongly discard workers — §6.2 notes its
    /// "searching process mistakenly removes many possible workers").
    pub fn items_in_reach(&self, p: Point, radius_m: f64, out: &mut Vec<ItemId>) {
        out.clear();
        let origin = self.base.cell_of(p);
        for &(d, cell) in &self.sorted[origin] {
            if f64::from(d) > radius_m {
                break;
            }
            out.extend_from_slice(&self.base.cells[cell as usize]);
        }
    }

    /// T-Share's *lazy single-side search*: walk cells outward and stop
    /// at the first ring of cells that yields any item at all (or when
    /// `radius_m` is exceeded). Nearer-but-busy workers shadow farther
    /// feasible ones — the designed-in lossiness behind T-Share's low
    /// served rate in §6.2.
    pub fn items_in_first_hit(&self, p: Point, radius_m: f64, out: &mut Vec<ItemId>) {
        out.clear();
        let origin = self.base.cell_of(p);
        let mut hit_dist: Option<f32> = None;
        for &(d, cell) in &self.sorted[origin] {
            if f64::from(d) > radius_m {
                break;
            }
            if let Some(h) = hit_dist {
                // Finish the equidistant ring, then stop.
                if d > h {
                    break;
                }
            }
            if !self.base.cells[cell as usize].is_empty() {
                out.extend_from_slice(&self.base.cells[cell as usize]);
                hit_dist.get_or_insert(d);
            }
        }
    }

    /// Approximate heap usage in bytes: the base grid plus the `O(C²)`
    /// sorted lists — the number the paper's Fig. 5 memory panel tracks.
    pub fn mem_bytes(&self) -> usize {
        let lists: usize = self.sorted.iter().map(|r| r.capacity() * 8).sum();
        self.base.mem_bytes()
            + lists
            + self.sorted.capacity() * std::mem::size_of::<Vec<(f32, u32)>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bbox(w: f64, h: f64) -> BoundingBox {
        let mut b = BoundingBox::empty();
        b.include(Point::new(0.0, 0.0));
        b.include(Point::new(w, h));
        b
    }

    #[test]
    fn dims_and_cells() {
        let g = GridIndex::new(bbox(10_000.0, 5_000.0), 1_000.0);
        assert_eq!(g.dims(), (10, 5));
        assert_eq!(g.num_cells(), 50);
    }

    #[test]
    fn upsert_move_remove() {
        let mut g = GridIndex::new(bbox(10_000.0, 10_000.0), 1_000.0);
        g.upsert(7, Point::new(100.0, 100.0));
        assert_eq!(g.len(), 1);
        assert_eq!(g.position(7), Some(Point::new(100.0, 100.0)));

        // Move to another cell.
        g.upsert(7, Point::new(9_500.0, 9_500.0));
        assert_eq!(g.len(), 1);
        let mut out = Vec::new();
        g.items_within(Point::new(100.0, 100.0), 500.0, &mut out);
        assert!(out.is_empty());
        g.items_within(Point::new(9_400.0, 9_400.0), 500.0, &mut out);
        assert_eq!(out, vec![7]);

        assert!(g.remove(7));
        assert!(!g.remove(7));
        assert!(g.is_empty());
    }

    #[test]
    fn within_filters_by_true_distance() {
        let mut g = GridIndex::new(bbox(10_000.0, 10_000.0), 1_000.0);
        g.upsert(1, Point::new(500.0, 500.0));
        g.upsert(2, Point::new(1_400.0, 500.0)); // 900 m away
        g.upsert(3, Point::new(3_000.0, 500.0)); // 2500 m away
        let mut out = Vec::new();
        g.items_within(Point::new(500.0, 500.0), 1_000.0, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
        g.items_within(Point::new(500.0, 500.0), 100.0, &mut out);
        assert_eq!(out, vec![1]);
        g.items_within(Point::new(500.0, 500.0), -1.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn within_matches_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = GridIndex::new(bbox(5_000.0, 5_000.0), 750.0);
        let mut pts = Vec::new();
        for id in 0..200u64 {
            let p = Point::new(rng.gen_range(0.0..5_000.0), rng.gen_range(0.0..5_000.0));
            g.upsert(id, p);
            pts.push(p);
        }
        let mut out = Vec::new();
        for _ in 0..50 {
            let q = Point::new(rng.gen_range(0.0..5_000.0), rng.gen_range(0.0..5_000.0));
            let r = rng.gen_range(0.0..2_000.0);
            g.items_within(q, r, &mut out);
            out.sort_unstable();
            let brute: Vec<ItemId> = (0..200u64)
                .filter(|&id| pts[id as usize].euclidean_m(&q) <= r)
                .collect();
            assert_eq!(out, brute);
        }
    }

    #[test]
    fn points_outside_bbox_clamp() {
        let mut g = GridIndex::new(bbox(1_000.0, 1_000.0), 500.0);
        g.upsert(1, Point::new(-400.0, 2_000.0)); // outside: clamps to a corner cell
        assert_eq!(g.len(), 1);
        let mut out = Vec::new();
        g.items_within(Point::new(-400.0, 2_000.0), 1.0, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn sorted_cell_grid_walks_outward() {
        let mut s = SortedCellGrid::new(bbox(4_000.0, 4_000.0), 1_000.0);
        s.grid_mut().upsert(1, Point::new(500.0, 500.0));
        s.grid_mut().upsert(2, Point::new(3_500.0, 3_500.0));
        let mut out = Vec::new();
        // Small reach: only the local cell cluster.
        s.items_in_reach(Point::new(500.0, 500.0), 600.0, &mut out);
        assert_eq!(out, vec![1]);
        // Reach across the whole box.
        s.items_in_reach(Point::new(500.0, 500.0), 10_000.0, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn sorted_grid_memory_dominates_plain_grid() {
        let plain = GridIndex::new(bbox(20_000.0, 20_000.0), 1_000.0);
        let sorted = SortedCellGrid::new(bbox(20_000.0, 20_000.0), 1_000.0);
        // 400 cells -> 160k sorted entries vs ~0 for the plain grid.
        assert!(sorted.mem_bytes() > plain.mem_bytes() * 10);
    }

    #[test]
    fn smaller_cells_blow_up_sorted_grid_memory() {
        // The Fig. 5 effect: tshare memory grows sharply as g shrinks.
        let coarse = SortedCellGrid::new(bbox(10_000.0, 10_000.0), 2_000.0);
        let fine = SortedCellGrid::new(bbox(10_000.0, 10_000.0), 500.0);
        assert!(fine.mem_bytes() > coarse.mem_bytes() * 50);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// One step against the index; ids come from a small pool so
        /// moves, re-inserts and removals of live items are common.
        #[derive(Debug, Clone)]
        enum Op {
            /// Insert, or move anywhere (usually across cells).
            Upsert(ItemId, Point),
            /// Move a live item a few metres (usually within its cell).
            Nudge(ItemId, f64, f64),
            Remove(ItemId),
            /// Range query centred on a point…
            Within(Point, f64),
            /// …or exactly on a live item, where radius 0 still hits.
            WithinAt(ItemId, f64),
        }

        fn op() -> impl Strategy<Value = Op> {
            // The box is 1 000 × 1 000: a fifth of the points fall outside.
            let point = || (-150.0..1_150.0, -150.0..1_150.0).prop_map(|(x, y)| Point::new(x, y));
            let id = || 0u64..24;
            let radius = || prop_oneof![Just(0.0), -50.0..0.0, 0.0..900.0];
            prop_oneof![
                (id(), point()).prop_map(|(id, p)| Op::Upsert(id, p)),
                (id(), -20.0..20.0, -20.0..20.0).prop_map(|(id, dx, dy)| Op::Nudge(id, dx, dy)),
                id().prop_map(Op::Remove),
                (point(), radius()).prop_map(|(p, r)| Op::Within(p, r)),
                (id(), radius()).prop_map(|(id, r)| Op::WithinAt(id, r)),
            ]
        }

        /// Both bucket columns agree with the by-id map, item for item.
        fn check_columns(g: &GridIndex) -> Result<(), TestCaseError> {
            let mut bucketed = 0;
            for (c, (ids, pts)) in g.cells.iter().zip(&g.cell_pts).enumerate() {
                prop_assert_eq!(ids.len(), pts.len());
                for (id, p) in ids.iter().zip(pts) {
                    prop_assert_eq!(g.items.get(id), Some(&(c, *p)));
                    prop_assert_eq!(g.cell_of(*p), c);
                }
                bucketed += ids.len();
            }
            prop_assert_eq!(bucketed, g.items.len());
            Ok(())
        }

        proptest! {
            /// The grid against a brute-force list, step by step.
            #[test]
            fn grid_matches_a_brute_force_list(ops in collection::vec(op(), 1..120)) {
                let mut g = GridIndex::new(bbox(1_000.0, 1_000.0), 250.0);
                let mut model: Vec<(ItemId, Point)> = Vec::new();
                let find = |model: &[(ItemId, Point)], id| model.iter().position(|&(x, _)| x == id);
                let mut out = Vec::new();
                for op in ops {
                    let query = match op {
                        Op::Upsert(id, p) => {
                            g.upsert(id, p);
                            match find(&model, id) {
                                Some(k) => model[k].1 = p,
                                None => model.push((id, p)),
                            }
                            None
                        }
                        Op::Nudge(id, dx, dy) => {
                            if let Some(k) = find(&model, id) {
                                let p = Point::new(model[k].1.x + dx, model[k].1.y + dy);
                                g.upsert(id, p);
                                model[k].1 = p;
                            }
                            None
                        }
                        Op::Remove(id) => {
                            let k = find(&model, id);
                            prop_assert_eq!(g.remove(id), k.is_some());
                            if let Some(k) = k {
                                model.swap_remove(k);
                            }
                            None
                        }
                        Op::Within(p, r) => Some((p, r)),
                        Op::WithinAt(id, r) => find(&model, id).map(|k| (model[k].1, r)),
                    };
                    if let Some((p, r)) = query {
                        g.items_within(p, r, &mut out);
                        out.sort_unstable();
                        let mut brute: Vec<ItemId> = model
                            .iter()
                            .filter(|(_, q)| q.euclidean_m(&p) <= r)
                            .map(|&(id, _)| id)
                            .collect();
                        brute.sort_unstable();
                        prop_assert_eq!(&out, &brute, "within {:?} of {:?}", r, p);
                    }
                    prop_assert_eq!(g.len(), model.len());
                    for id in 0..24 {
                        let expect = find(&model, id).map(|k| model[k].1);
                        prop_assert_eq!(g.position(id), expect);
                    }
                    check_columns(&g)?;
                }
            }
        }
    }
}
