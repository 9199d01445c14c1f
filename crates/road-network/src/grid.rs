//! The uniform grid index over moving items (workers), and T-Share's
//! cell order over its geometry.
//!
//! The two index designs §6.2 compares share one worker index:
//!
//! * [`GridIndex`] — plain per-cell buckets of item ids, the platform's
//!   one index of where workers are. "The grid index of the other
//!   algorithms only stores the IDs of workers in the grid": every
//!   planner reads it, T-Share included. Each bucket holds its items'
//!   ids with their points, so a range query is a linear scan of one
//!   dense array. It has one static user too: the request generator
//!   snaps trip endpoints to road vertices with [`GridIndex::nearest`]
//!   over a grid of the network's vertices.
//! * [`SortedCellTable`] — what T-Share adds on top: for every cell of
//!   a grid, all cells sorted by center distance (its "spatio-temporally
//!   ordered grid lists"). It holds no items; candidate search walks it
//!   outward and reads the buckets of the [`GridIndex`] it was built
//!   from. This is the memory-hungry design: `O(C²)` for `C` cells,
//!   which is exactly why the paper's Fig. 5 memory panel shows
//!   `tshare` using orders of magnitude more memory at small `g`.

use crate::fxhash::FxHashMap;
use crate::geo::{BoundingBox, Point};

/// Opaque item identifier (worker id in the planners).
pub type ItemId = u64;

/// What [`GridIndex::sweep_split`] reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SweepHit {
    /// An unmarked item within the radius.
    Unmarked(ItemId),
    /// A cell holding marked items, `bound_m` (its
    /// [`GridIndex::cell_min_distance`]) within the radius.
    MarkedCell {
        /// The cell.
        cell: usize,
        /// No item of the cell lies nearer than this.
        bound_m: f64,
    },
}

/// How far a cell bound is widened past its computed edge: a
/// millimetre, far above the rounding of any city coordinate, far
/// below any distance a query tells apart.
const SLACK_M: f64 = 1e-3;

/// A plain uniform grid of item buckets.
#[derive(Debug, Clone)]
pub struct GridIndex {
    bbox: BoundingBox,
    cell_m: f64,
    nx: usize,
    ny: usize,
    /// Every cell's items with their exact positions: range queries
    /// filter by true distance off the bucket, without a lookup per
    /// item.
    cells: Vec<Vec<(ItemId, Point)>>,
    /// `marked[c]` leading items of cell `c`'s bucket are *marked*, the
    /// rest are not: a caller-defined two-way split of every cell (the
    /// platform marks idle workers) that one sweep can read both halves
    /// of. Items join unmarked; a move keeps the mark.
    marked: Vec<u32>,
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
            marked: vec![0; nx * ny],
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

    /// Inserts or moves an item to position `p`. A new item is
    /// unmarked; a moved one keeps its mark.
    pub fn upsert(&mut self, id: ItemId, p: Point) {
        let new_cell = self.cell_of(p);
        match self.items.get_mut(&id) {
            Some((cell, old_p)) => {
                let old_cell = std::mem::replace(cell, new_cell);
                *old_p = p;
                if old_cell == new_cell {
                    let slot = Self::slot_in(&self.cells[old_cell], id);
                    self.cells[old_cell][slot].1 = p;
                } else {
                    let marked = self.remove_from_cell(old_cell, id);
                    self.push_to_cell(new_cell, id, p, marked);
                }
            }
            None => {
                self.items.insert(id, (new_cell, p));
                self.push_to_cell(new_cell, id, p, false);
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

    /// Marks or unmarks an item, moving it across its cell's split;
    /// returns whether it was present.
    pub fn set_marked(&mut self, id: ItemId, marked: bool) -> bool {
        let Some(&(cell, _)) = self.items.get(&id) else {
            return false;
        };
        let slot = Self::slot_in(&self.cells[cell], id);
        let split = self.marked[cell] as usize;
        if (slot < split) != marked {
            // The item trades places with the split's neighbour on the
            // other side, and the split moves past it.
            let edge = if marked { split } else { split - 1 };
            self.cells[cell].swap(slot, edge);
            self.marked[cell] = if marked { split + 1 } else { split - 1 } as u32;
        }
        true
    }

    /// Whether an item is marked, if indexed.
    pub fn is_marked(&self, id: ItemId) -> Option<bool> {
        let &(cell, _) = self.items.get(&id)?;
        Some(Self::slot_in(&self.cells[cell], id) < self.marked[cell] as usize)
    }

    fn slot_in(bucket: &[(ItemId, Point)], id: ItemId) -> usize {
        bucket
            .iter()
            .position(|&(x, _)| x == id)
            .expect("an indexed item is in its cell's bucket")
    }

    fn push_to_cell(&mut self, cell: usize, id: ItemId, p: Point, marked: bool) {
        let bucket = &mut self.cells[cell];
        bucket.push((id, p));
        if marked {
            let split = self.marked[cell] as usize;
            let last = bucket.len() - 1;
            bucket.swap(split, last);
            self.marked[cell] += 1;
        }
    }

    /// Takes `id` out of `cell`'s bucket; returns whether it was marked.
    fn remove_from_cell(&mut self, cell: usize, id: ItemId) -> bool {
        let mut slot = Self::slot_in(&self.cells[cell], id);
        let split = self.marked[cell] as usize;
        let marked = slot < split;
        if marked {
            // Move it to the end of the marked run, then fill that place
            // from the bucket's end, which is unmarked (or itself).
            self.cells[cell].swap(slot, split - 1);
            self.marked[cell] -= 1;
            slot = split - 1;
        }
        self.cells[cell].swap_remove(slot);
        marked
    }

    /// Exact position of an item, if indexed.
    pub fn position(&self, id: ItemId) -> Option<Point> {
        self.items.get(&id).map(|(_, p)| *p)
    }

    /// Calls `visit` with the id of every item within `radius_m` of `p`
    /// (exact point-distance filter after the coarse cell sweep), cell
    /// by cell in bucket order.
    pub fn for_each_within(&self, p: Point, radius_m: f64, mut visit: impl FnMut(ItemId)) {
        self.for_each_cell_in_sweep(p, radius_m, |c| {
            for &(id, q) in &self.cells[c] {
                if q.euclidean_m(&p) <= radius_m {
                    visit(id);
                }
            }
        });
    }

    /// The item nearest to `p`: [`GridIndex::nearest_where`] with no
    /// radius and no filter, so ties go to the lowest id. `None` when
    /// the grid is empty, or when every distance is NaN (a query point
    /// with a NaN coordinate).
    pub fn nearest(&self, p: Point) -> Option<ItemId> {
        self.nearest_where(p, f64::INFINITY, false, |_| true)
            .map(|(_, id)| id)
    }

    /// The nearest item to `p` that a query admits, with its distance:
    /// the lexicographic minimum of `(q.euclidean_m(&p), id)` over the
    /// items within `radius_m` of `p` (the exact filter of
    /// [`GridIndex::for_each_within`]), marked if `marked_only`, and
    /// passed by `accept`. Ties go to the lowest id.
    ///
    /// Nearest cell first, and nothing is collected: it reads the rings
    /// of cells around `p`'s cell outward, scans a non-empty cell only
    /// when its [`GridIndex::cell_min_distance`] is within the best
    /// distance so far (and the radius), and stops at the first ring
    /// whose every cell bounds beyond it. Along each axis a cell's gap
    /// to `p` grows with its offset from `p`'s own cell, whose gap is
    /// zero (`p` lies in it, or in a border cell that extends to
    /// infinity). So a ring's least bound is that of one of its four
    /// cells on `p`'s row and column, and every cell of a later ring
    /// bounds at least as far as some cell of this one. Points outside
    /// the bounding box need nothing special: `cell_of` clamps them into
    /// the border cells, as it clamps items.
    pub fn nearest_where(
        &self,
        p: Point,
        radius_m: f64,
        marked_only: bool,
        mut accept: impl FnMut(ItemId) -> bool,
    ) -> Option<(f64, ItemId)> {
        if self.items.is_empty() || radius_m.is_nan() || radius_m < 0.0 {
            return None;
        }
        let c0 = self.cell_of(p);
        let (cx, cy) = ((c0 % self.nx) as isize, (c0 / self.nx) as isize);
        let (nx, ny) = (self.nx as isize, self.ny as isize);
        let mut best: Option<(f64, ItemId)> = None;
        // The distance an item must not exceed to be admitted or to win.
        let mut limit = radius_m;
        for k in 0.. {
            let (x0, x1, y0, y1) = (cx - k, cx + k, cy - k, cy + k);
            if x0 < 0 && y0 < 0 && x1 >= nx && y1 >= ny {
                break; // the rings so far covered the grid
            }
            // The ring's nearest cells are the four on `p`'s row and
            // column: every other cell of a side gaps at least as far
            // along the side and as far across it.
            let axis = [(x0, cy), (x1, cy), (cx, y0), (cx, y1)];
            let ring_min = axis
                .into_iter()
                .filter(|&(x, y)| (0..nx).contains(&x) && (0..ny).contains(&y))
                .map(|(x, y)| self.cell_min_distance(y as usize * self.nx + x as usize, p))
                .fold(f64::INFINITY, f64::min);
            if ring_min > limit {
                break;
            }
            let mut scan = |c: usize| {
                let end = if marked_only {
                    self.marked[c] as usize
                } else {
                    self.cells[c].len()
                };
                if end == 0 || self.cell_min_distance(c, p) > limit {
                    return;
                }
                for &(id, q) in &self.cells[c][..end] {
                    let d = q.euclidean_m(&p);
                    if d <= limit && best.is_none_or(|b| (d, id) < b) && accept(id) {
                        best = Some((d, id));
                        limit = d;
                    }
                }
            };
            // Ring `k`, clipped to the grid: whole top and bottom rows,
            // the two side cells of every row between.
            for y in y0.max(0)..=y1.min(ny - 1) {
                let row = y as usize * self.nx;
                if y == y0 || y == y1 {
                    for x in x0.max(0)..=x1.min(nx - 1) {
                        scan(row + x as usize);
                    }
                } else {
                    if x0 >= 0 {
                        scan(row + x0 as usize);
                    }
                    if x1 < nx {
                        scan(row + x1 as usize);
                    }
                }
            }
        }
        best
    }

    /// One sweep of the disc of `radius_m` around `p` that reads the two
    /// halves of every cell differently: `hit` gets
    /// [`SweepHit::Unmarked`] for every unmarked item within the radius,
    /// by the exact filter of [`GridIndex::for_each_within`], and
    /// [`SweepHit::MarkedCell`] for every cell holding marked items
    /// whose [`GridIndex::cell_min_distance`] is within the radius — no
    /// item of a farther cell can pass the exact filter. The
    /// nearest-first walks start here and read a cell's marked items
    /// with [`GridIndex::marked_items`].
    pub fn sweep_split(&self, p: Point, radius_m: f64, mut hit: impl FnMut(SweepHit)) {
        self.for_each_cell_in_sweep(p, radius_m, |c| {
            let split = self.marked[c] as usize;
            for &(id, q) in &self.cells[c][split..] {
                if q.euclidean_m(&p) <= radius_m {
                    hit(SweepHit::Unmarked(id));
                }
            }
            if split > 0 {
                let bound_m = self.cell_min_distance(c, p);
                if bound_m <= radius_m {
                    hit(SweepHit::MarkedCell { cell: c, bound_m });
                }
            }
        });
    }

    /// The marked items of cell `c`, each with its exact position.
    pub fn marked_items(&self, c: usize) -> &[(ItemId, Point)] {
        &self.cells[c][..self.marked[c] as usize]
    }

    /// A lower bound on `q.euclidean_m(&p)` over every item position `q`
    /// that `cell_of` puts in cell `c` — including items outside the
    /// bounding box, clamped into a border cell: a border cell extends
    /// to infinity on its outer sides. The cell's rectangle is widened
    /// by a millimetre so that a point rounded into the cell from just
    /// outside its computed edge is still covered; the distance to it
    /// is [`BoundingBox::distance_m`], never above the computed
    /// [`Point::euclidean_m`] of a point it contains.
    pub fn cell_min_distance(&self, c: usize, p: Point) -> f64 {
        let (cx, cy) = (c % self.nx, c / self.nx);
        let edges = |min: f64, k: usize, n: usize| {
            let lo = if k == 0 {
                f64::NEG_INFINITY
            } else {
                min + k as f64 * self.cell_m - SLACK_M
            };
            let hi = if k + 1 == n {
                f64::INFINITY
            } else {
                min + (k + 1) as f64 * self.cell_m + SLACK_M
            };
            (lo, hi)
        };
        let (x0, x1) = edges(self.bbox.min.x, cx, self.nx);
        let (y0, y1) = edges(self.bbox.min.y, cy, self.ny);
        BoundingBox {
            min: Point::new(x0, y0),
            max: Point::new(x1, y1),
        }
        .distance_m(p)
    }

    /// Calls `visit` with every cell of the sweep box of the disc of
    /// `radius_m` around `p`, row by row.
    fn for_each_cell_in_sweep(&self, p: Point, radius_m: f64, mut visit: impl FnMut(usize)) {
        if radius_m < 0.0 {
            return;
        }
        // Clamp both bounds into the grid: items whose positions fall
        // outside the bounding box are clamped into border cells by
        // `cell_of`, so border cells must stay scannable even when the
        // query circle itself lies outside the box. The exact
        // point-distance filter of the callers keeps results correct.
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
                visit(cy as usize * self.nx + cx as usize);
            }
        }
    }

    /// Approximate heap usage in bytes.
    pub fn mem_bytes(&self) -> usize {
        let buckets: usize = self
            .cells
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<(ItemId, Point)>())
            .sum();
        self.cells.capacity() * std::mem::size_of::<Vec<(ItemId, Point)>>()
            + self.marked.capacity() * 4
            + buckets
            + self.items.capacity() * (8 + std::mem::size_of::<(usize, Point)>() + 8)
    }
}

/// T-Share's cell order over a grid's geometry: for every cell, *all*
/// cells ordered by center distance. It holds no items: a search reads
/// the buckets of the [`GridIndex`] it was built from.
#[derive(Debug, Clone, Default)]
pub struct SortedCellTable {
    /// `sorted[c]` = every cell id ordered by distance from `c`'s
    /// center (including `c` itself, first). `O(C²)` memory by design.
    sorted: Vec<Vec<(f32, u32)>>,
}

impl SortedCellTable {
    /// Builds the sorted cell lists for `grid`'s cells.
    pub fn new(grid: &GridIndex) -> Self {
        let c = grid.num_cells();
        let centers: Vec<Point> = (0..c).map(|i| grid.cell_center(i)).collect();
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
        SortedCellTable { sorted }
    }

    /// Number of cells ordered (0 for the empty default).
    pub fn num_cells(&self) -> usize {
        self.sorted.len()
    }

    /// T-Share's *lazy single-side search* over `grid`'s items: walk
    /// cells outward and stop at the first ring of cells that yields
    /// any item at all (or when `radius_m` is exceeded). Nearer-but-busy
    /// workers shadow farther feasible ones — the designed-in lossiness
    /// behind T-Share's low served rate in §6.2. `grid` must be the
    /// grid the table was built from, or one of the same geometry.
    pub fn items_in_first_hit(
        &self,
        grid: &GridIndex,
        p: Point,
        radius_m: f64,
        out: &mut Vec<ItemId>,
    ) {
        debug_assert_eq!(self.num_cells(), grid.num_cells(), "another grid's table");
        out.clear();
        let origin = grid.cell_of(p);
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
            let bucket = &grid.cells[cell as usize];
            if !bucket.is_empty() {
                out.extend(bucket.iter().map(|&(id, _)| id));
                hit_dist.get_or_insert(d);
            }
        }
    }

    /// Heap bytes of a table over `num_cells` cells: `C` lists of `C`
    /// 8-byte entries, each behind a `Vec` header — the `O(C²)` the
    /// paper's Fig. 5 memory panel tracks. It depends on nothing but
    /// the cell count, so it is known without building the table.
    pub fn mem_bytes(num_cells: usize) -> usize {
        num_cells * num_cells * std::mem::size_of::<(f32, u32)>()
            + num_cells * std::mem::size_of::<Vec<(f32, u32)>>()
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

    /// The ids [`GridIndex::for_each_within`] visits, in visit order.
    fn within(g: &GridIndex, p: Point, radius_m: f64) -> Vec<ItemId> {
        let mut out = Vec::new();
        g.for_each_within(p, radius_m, |id| out.push(id));
        out
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
        assert!(within(&g, Point::new(100.0, 100.0), 500.0).is_empty());
        assert_eq!(within(&g, Point::new(9_400.0, 9_400.0), 500.0), vec![7]);

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
        let mut out = within(&g, Point::new(500.0, 500.0), 1_000.0);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
        assert_eq!(within(&g, Point::new(500.0, 500.0), 100.0), vec![1]);
        assert!(within(&g, Point::new(500.0, 500.0), -1.0).is_empty());
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
        for _ in 0..50 {
            let q = Point::new(rng.gen_range(0.0..5_000.0), rng.gen_range(0.0..5_000.0));
            let r = rng.gen_range(0.0..2_000.0);
            let mut out = within(&g, q, r);
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
        assert_eq!(within(&g, Point::new(-400.0, 2_000.0), 1.0), vec![1]);
    }

    #[test]
    fn sorted_cell_table_walks_outward() {
        let mut g = GridIndex::new(bbox(4_000.0, 4_000.0), 1_000.0);
        g.upsert(1, Point::new(500.0, 500.0));
        g.upsert(2, Point::new(3_500.0, 3_500.0));
        let s = SortedCellTable::new(&g);
        let mut out = Vec::new();
        // Small reach: only the local cell cluster.
        s.items_in_first_hit(&g, Point::new(500.0, 500.0), 600.0, &mut out);
        assert_eq!(out, vec![1]);
        // Reach across the whole box: the nearer item shadows the other.
        s.items_in_first_hit(&g, Point::new(500.0, 500.0), 10_000.0, &mut out);
        assert_eq!(out, vec![1]);
        s.items_in_first_hit(&g, Point::new(3_500.0, 3_500.0), 10_000.0, &mut out);
        assert_eq!(out, vec![2]);
        // No cell with an item within reach of an empty one.
        s.items_in_first_hit(&g, Point::new(2_500.0, 500.0), 100.0, &mut out);
        assert!(out.is_empty());
        // The table reads the grid it is handed: a move shows at once.
        g.upsert(2, Point::new(2_400.0, 400.0));
        s.items_in_first_hit(&g, Point::new(2_500.0, 500.0), 100.0, &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn table_bytes_are_the_capacity_sum_of_a_built_table() {
        for (side, cell_m) in [(1.0, 1_000.0), (4_000.0, 1_000.0), (7_300.0, 500.0)] {
            let g = GridIndex::new(bbox(side, side / 2.0), cell_m);
            let s = SortedCellTable::new(&g);
            let built: usize = s.sorted.iter().map(|r| r.capacity() * 8).sum::<usize>()
                + s.sorted.capacity() * std::mem::size_of::<Vec<(f32, u32)>>();
            assert_eq!(SortedCellTable::mem_bytes(g.num_cells()), built);
        }
    }

    #[test]
    fn sorted_table_memory_dominates_plain_grid() {
        let plain = GridIndex::new(bbox(20_000.0, 20_000.0), 1_000.0);
        // 400 cells -> 160k sorted entries vs ~0 for the plain grid.
        assert!(SortedCellTable::mem_bytes(plain.num_cells()) > plain.mem_bytes() * 10);
    }

    #[test]
    fn smaller_cells_blow_up_sorted_table_memory() {
        // The Fig. 5 effect: tshare memory grows sharply as g shrinks.
        let cells = |cell_m| GridIndex::new(bbox(10_000.0, 10_000.0), cell_m).num_cells();
        let (coarse, fine) = (cells(2_000.0), cells(500.0));
        assert!(SortedCellTable::mem_bytes(fine) > SortedCellTable::mem_bytes(coarse) * 50);
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
            /// Move a live item across its cell's split.
            Mark(ItemId, bool),
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
                (id(), any::<bool>()).prop_map(|(id, m)| Op::Mark(id, m)),
                (point(), radius()).prop_map(|(p, r)| Op::Within(p, r)),
                (id(), radius()).prop_map(|(id, r)| Op::WithinAt(id, r)),
            ]
        }

        /// The buckets agree with the by-id map, item for item, and
        /// every cell's marked run is its marked items.
        fn check_buckets(
            g: &GridIndex,
            model: &[(ItemId, Point, bool)],
        ) -> Result<(), TestCaseError> {
            let mut bucketed = 0;
            for (c, bucket) in g.cells.iter().enumerate() {
                prop_assert!(g.marked[c] as usize <= bucket.len());
                for (k, (id, p)) in bucket.iter().enumerate() {
                    prop_assert_eq!(g.items.get(id), Some(&(c, *p)));
                    prop_assert_eq!(g.cell_of(*p), c);
                    let marked = model.iter().find(|m| m.0 == *id).map(|m| m.2);
                    prop_assert_eq!(Some(k < g.marked[c] as usize), marked);
                }
                bucketed += bucket.len();
            }
            prop_assert_eq!(bucketed, g.items.len());
            Ok(())
        }

        proptest! {
            /// The grid against a brute-force list, step by step.
            #[test]
            fn grid_matches_a_brute_force_list(ops in collection::vec(op(), 1..120)) {
                let mut g = GridIndex::new(bbox(1_000.0, 1_000.0), 250.0);
                let mut model: Vec<(ItemId, Point, bool)> = Vec::new();
                let find = |model: &[(ItemId, Point, bool)], id| model.iter().position(|m| m.0 == id);
                for op in ops {
                    let query = match op {
                        Op::Upsert(id, p) => {
                            g.upsert(id, p);
                            match find(&model, id) {
                                Some(k) => model[k].1 = p,
                                None => model.push((id, p, false)),
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
                        Op::Mark(id, m) => {
                            let k = find(&model, id);
                            prop_assert_eq!(g.set_marked(id, m), k.is_some());
                            if let Some(k) = k {
                                model[k].2 = m;
                            }
                            None
                        }
                        Op::Within(p, r) => Some((p, r)),
                        Op::WithinAt(id, r) => find(&model, id).map(|k| (model[k].1, r)),
                    };
                    if let Some((p, r)) = query {
                        let mut out = within(&g, p, r);
                        out.sort_unstable();
                        let mut brute: Vec<ItemId> = model
                            .iter()
                            .filter(|m| m.1.euclidean_m(&p) <= r)
                            .map(|m| m.0)
                            .collect();
                        brute.sort_unstable();
                        prop_assert_eq!(&out, &brute, "within {:?} of {:?}", r, p);

                        // The split sweep: the unmarked half exactly,
                        // and every cell holding a marked item in reach.
                        let mut unmarked = Vec::new();
                        let mut cells = Vec::new();
                        g.sweep_split(p, r, |hit| match hit {
                            SweepHit::Unmarked(id) => unmarked.push(id),
                            SweepHit::MarkedCell { cell, .. } => cells.push(cell),
                        });
                        unmarked.sort_unstable();
                        let mut marked_in_reach = Vec::new();
                        for &c in &cells {
                            marked_in_reach.extend(
                                g.marked_items(c).iter().filter(|(_, q)| q.euclidean_m(&p) <= r).map(|&(id, _)| id),
                            );
                        }
                        marked_in_reach.sort_unstable();
                        let split = |marked: bool| -> Vec<ItemId> {
                            let mut ids: Vec<ItemId> = model
                                .iter()
                                .filter(|m| m.2 == marked && m.1.euclidean_m(&p) <= r)
                                .map(|m| m.0)
                                .collect();
                            ids.sort_unstable();
                            ids
                        };
                        prop_assert_eq!(unmarked, split(false));
                        prop_assert_eq!(marked_in_reach, split(true));
                    }
                    prop_assert_eq!(g.len(), model.len());
                    for id in 0..24 {
                        let expect = find(&model, id).map(|k| model[k].1);
                        prop_assert_eq!(g.position(id), expect);
                        let marked = find(&model, id).map(|k| model[k].2);
                        prop_assert_eq!(g.is_marked(id), marked);
                    }
                    check_buckets(&g, &model)?;
                }
            }
        }

        /// A city-scale box away from the origin, 2 km cells (7 × 5).
        const ORIGIN: (f64, f64) = (431_250.5, 3_305_017.25);
        const CELL: f64 = 2_000.0;

        /// A coordinate along one axis: anywhere (a tenth of the time
        /// outside the box), or on a cell edge give or take a few ulps —
        /// where `cell_of`'s division rounds.
        fn coord(min: f64, cells: u32) -> impl Strategy<Value = f64> {
            let span = f64::from(cells) * CELL;
            prop_oneof![
                (min - span / 10.0)..(min + span * 1.1),
                (0..cells + 1, -3i64..4).prop_map(move |(k, ulps)| {
                    let edge = min + f64::from(k) * CELL;
                    f64::from_bits((edge.to_bits() as i64 + ulps) as u64)
                }),
            ]
        }

        fn city_point() -> impl Strategy<Value = Point> {
            (coord(ORIGIN.0, 7), coord(ORIGIN.1, 5)).prop_map(|(x, y)| Point::new(x, y))
        }

        /// The vertex nearest to `p` by a scan of every vertex, ties to
        /// the first: the reference `GridIndex::nearest` must equal.
        fn scan(pts: &[Point], p: Point) -> Option<ItemId> {
            pts.iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.euclidean_m(&p)
                        .partial_cmp(&b.euclidean_m(&p))
                        .expect("coordinates are finite")
                })
                .map(|(i, _)| i as ItemId)
        }

        /// A network of bare vertices at `pts`, vertex `i` at `pts[i]`.
        fn network(pts: &[Point]) -> crate::graph::RoadNetwork {
            let mut b = crate::builder::NetworkBuilder::new();
            for &p in pts {
                b.add_vertex(p);
            }
            b.finish().expect("at least one vertex")
        }

        #[test]
        fn nearest_on_degenerate_grids() {
            let p = Point::new(ORIGIN.0, ORIGIN.1);
            assert_eq!(
                GridIndex::new(bbox(1_000.0, 1_000.0), 250.0).nearest(p),
                None
            );

            // One item, queried anywhere.
            let mut g = GridIndex::new(bbox(1_000.0, 1_000.0), 250.0);
            g.upsert(9, Point::new(10.0, 990.0));
            for q in [
                Point::new(10.0, 990.0),
                Point::new(-5e4, 7e4),
                Point::new(500.0, 0.0),
            ] {
                assert_eq!(g.nearest(q), Some(9));
            }

            // A one-vertex network: a zero-area box, the cell floor.
            let one = network(&[p]).vertex_grid();
            assert_eq!(one.dims(), (1, 1));
            assert_eq!(one.nearest(Point::new(-1e5, 3.0)), Some(0));

            // A collinear network: a zero-height box, cells along it.
            let line: Vec<Point> = (0..50)
                .map(|i| Point::new(ORIGIN.0 + f64::from(i) * 97.5, ORIGIN.1))
                .collect();
            let g = network(&line).vertex_grid();
            assert_eq!(g.dims().1, 1);
            assert!(g.dims().0 > 1);
            for q in [
                Point::new(ORIGIN.0 + 146.25, ORIGIN.1 + 800.0),
                Point::new(ORIGIN.0 - 9_000.0, ORIGIN.1 - 5.0),
                Point::new(ORIGIN.0 + 48.75, ORIGIN.1),
                Point::new(ORIGIN.0 + 9_000.0, ORIGIN.1 + 1e4),
            ] {
                assert_eq!(g.nearest(q), scan(&line, q), "nearest to {q:?}");
            }

            // The small triangle: a point near each of two vertices.
            let tri = [
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(0.0, 10.0),
            ];
            let g = network(&tri).vertex_grid();
            assert_eq!(g.nearest(Point::new(1.0, 1.0)), Some(0));
            assert_eq!(g.nearest(Point::new(9.9, 0.5)), Some(1));

            // A NaN coordinate is nearest to nothing.
            assert_eq!(g.nearest(Point::new(f64::NAN, 0.0)), None);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// `cell_min_distance` bounds the computed distance of every
            /// item a cell holds, border cells' clamped items included,
            /// so a nearest-first walk may stop at the first cell whose
            /// bound exceeds what it needs; and `sweep_split` leaves out
            /// no cell holding a marked item within the radius.
            #[test]
            fn no_item_lies_nearer_than_its_cell_bound(
                items in collection::vec(city_point(), 1..60),
                queries in collection::vec((city_point(), 0.0..9_000.0), 1..8),
            ) {
                let mut b = BoundingBox::empty();
                b.include(Point::new(ORIGIN.0, ORIGIN.1));
                b.include(Point::new(ORIGIN.0 + 7.0 * CELL, ORIGIN.1 + 5.0 * CELL));
                let mut g = GridIndex::new(b, CELL);
                prop_assert_eq!(g.dims(), (7, 5));
                for (id, &p) in items.iter().enumerate() {
                    g.upsert(id as ItemId, p);
                    g.set_marked(id as ItemId, true);
                }
                for (p, r) in queries {
                    let mut visited = vec![false; g.num_cells()];
                    g.sweep_split(p, r, |hit| {
                        let SweepHit::MarkedCell { cell, bound_m } = hit else {
                            unreachable!("every item is marked")
                        };
                        assert_eq!(bound_m, g.cell_min_distance(cell, p));
                        visited[cell] = true;
                    });
                    for (c, &seen) in visited.iter().enumerate() {
                        let bound = g.cell_min_distance(c, p);
                        let marked = g.marked_items(c);
                        prop_assert_eq!(marked.len(), g.cells[c].len());
                        for (id, q) in marked {
                            let d = q.euclidean_m(&p);
                            prop_assert!(bound <= d, "item {} at {:?}: bound {} > {}", id, q, bound, d);
                            prop_assert!(seen || d > r, "item {} within {} unvisited", id, r);
                        }
                    }
                }
            }

            /// `nearest` on a network's vertex grid is the linear scan
            /// it replaced, on random cities of any shape — a flat line
            /// (zero-height box) and a single vertex among them, with
            /// repeated coordinates — and on query points anywhere: in
            /// the box, several box-widths outside it, on a vertex, or
            /// on a cell edge give or take a few ulps.
            #[test]
            fn nearest_is_the_scan_on_random_networks(
                (pts, queries) in (1.0..20_000.0f64, prop_oneof![Just(0.0f64), 1.0..20_000.0], 1usize..80)
                    .prop_flat_map(|(w, h, n)| {
                        let at = move |x: f64, y: f64| Point::new(ORIGIN.0 + x * w, ORIGIN.1 + y * h);
                        // A tenth of the cities have every vertex on a
                        // few distinct points, so most distances tie.
                        let pool = prop_oneof![
                            (0.0..1.0, 0.0..1.0).prop_map(move |(x, y)| at(x, y)),
                            (0u32..3, 0u32..3).prop_map(move |(i, j)| at(f64::from(i) / 2.0, f64::from(j) / 2.0)),
                        ];
                        let query = prop_oneof![
                            (-3.0..4.0, -3.0..4.0).prop_map(move |(x, y)| at(x, y)),
                            (-0.1..1.1, -0.1..1.1).prop_map(move |(x, y)| at(x, y)),
                            (-50_000.0..50_000.0, -50_000.0..50_000.0)
                                .prop_map(|(x, y)| Point::new(ORIGIN.0 + x, ORIGIN.1 + y)),
                        ];
                        (collection::vec(pool, n..n + 1), collection::vec(query, 1..24))
                    })
            ) {
                let net = network(&pts);
                let g = net.vertex_grid();
                prop_assert_eq!(g.len(), pts.len());
                let mut queries = queries;
                queries.extend(pts.iter().copied());
                // Cell edges, nudged by a few ulps either way.
                for k in 0..=g.nx.max(g.ny) {
                    for ulps in [-2i64, 0, 2] {
                        let nudge = |v: f64| f64::from_bits((v.to_bits() as i64 + ulps) as u64);
                        let e = k as f64 * g.cell_m;
                        queries.push(Point::new(nudge(g.bbox.min.x + e), pts[k % pts.len()].y));
                        queries.push(Point::new(pts[k % pts.len()].x, nudge(g.bbox.min.y + e)));
                    }
                }
                // The first sweep's radius away from a vertex along an
                // axis, give or take an ulp: the vertex sits on the edge
                // of the sweep box.
                for q in &pts {
                    for ulps in [-1i64, 0, 1] {
                        let nudge = |v: f64| f64::from_bits((v.to_bits() as i64 + ulps) as u64);
                        let r = g.cell_m;
                        queries.push(Point::new(nudge(q.x - r), q.y));
                        queries.push(Point::new(nudge(q.x + r), q.y));
                        queries.push(Point::new(q.x, nudge(q.y - r)));
                        queries.push(Point::new(q.x, nudge(q.y + r)));
                    }
                }
                for p in queries {
                    prop_assert_eq!(g.nearest(p), scan(&pts, p), "nearest to {:?}", p);
                }
            }

            /// Exact ties on a lattice city: queried on every vertex,
            /// every street midpoint (two vertices tie), every block
            /// centre (four tie), every grid cell corner, and beside the
            /// box level with a vertex or between two — the lowest id
            /// wins, whatever order the ids were handed out in.
            #[test]
            fn nearest_breaks_lattice_ties_to_the_lowest_id(
                nx in 1usize..7,
                ny in 1usize..7,
                block in prop_oneof![Just(400.0f64), Just(250.0), Just(1.0), Just(1_000.0)],
                shuffle in any::<u64>(),
            ) {
                use rand::rngs::StdRng;
                use rand::{Rng, SeedableRng};
                let mut order: Vec<usize> = (0..nx * ny).collect();
                let mut rng = StdRng::seed_from_u64(shuffle);
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                let node = |i: usize, j: usize| {
                    Point::new(ORIGIN.0 + i as f64 * block, ORIGIN.1 + j as f64 * block)
                };
                let pts: Vec<Point> = order.iter().map(|&k| node(k % nx, k / nx)).collect();
                let net = network(&pts);
                let g = net.vertex_grid();
                let mut queries = Vec::new();
                // Lattice points at half-block steps, two blocks past
                // every side of the box.
                for hi in -4..=2 * nx as i64 + 2 {
                    for hj in -4..=2 * ny as i64 + 2 {
                        queries.push(Point::new(
                            ORIGIN.0 + hi as f64 * block / 2.0,
                            ORIGIN.1 + hj as f64 * block / 2.0,
                        ));
                    }
                }
                for ci in 0..=g.nx {
                    for cj in 0..=g.ny {
                        queries.push(Point::new(
                            g.bbox.min.x + ci as f64 * g.cell_m,
                            g.bbox.min.y + cj as f64 * g.cell_m,
                        ));
                    }
                }
                for p in queries {
                    prop_assert_eq!(g.nearest(p), scan(&pts, p), "nearest to {:?}", p);
                }
            }

            /// `nearest_where` is the filtered scan: items stacked on a
            /// few points (so distances tie) or anywhere, half of them
            /// marked; queries for marked items only or for all, with a
            /// predicate that turns a residue class of ids away, and a
            /// radius anywhere or on some item's distance give or take
            /// an ulp.
            #[test]
            fn nearest_where_is_the_filtered_scan(
                items in collection::vec((prop_oneof![
                    city_point(),
                    (0u32..3, 0u32..3).prop_map(|(i, j)| Point::new(
                        ORIGIN.0 + f64::from(i) * 1_500.0,
                        ORIGIN.1 + f64::from(j) * 1_500.0,
                    )),
                ], any::<bool>()), 1..60),
                queries in collection::vec(
                    (city_point(), any::<bool>(), 0u64..5, prop_oneof![
                        (0.0..12_000.0).prop_map(|r| (r, None)),
                        (0usize..60, -1i64..2).prop_map(|(k, ulps)| (0.0, Some((k, ulps)))),
                    ]),
                    1..12,
                ),
            ) {
                let mut b = BoundingBox::empty();
                b.include(Point::new(ORIGIN.0, ORIGIN.1));
                b.include(Point::new(ORIGIN.0 + 7.0 * CELL, ORIGIN.1 + 5.0 * CELL));
                let mut g = GridIndex::new(b, CELL);
                for (id, &(p, marked)) in items.iter().enumerate() {
                    g.upsert(id as ItemId, p);
                    g.set_marked(id as ItemId, marked);
                }
                for (p, marked_only, turned_away, (r, on_item)) in queries {
                    let r = match on_item {
                        Some((k, ulps)) => {
                            let d = items[k % items.len()].0.euclidean_m(&p);
                            f64::from_bits((d.to_bits() as i64 + ulps) as u64)
                        }
                        None => r,
                    };
                    // Residue 4 of 4 turns nobody away.
                    let accept = |id: ItemId| id % 4 != turned_away;
                    let scan = items
                        .iter()
                        .enumerate()
                        .map(|(id, &(q, marked))| (q.euclidean_m(&p), id as ItemId, marked))
                        .filter(|&(d, id, marked)| d <= r && (marked || !marked_only) && accept(id))
                        .map(|(d, id, _)| (d, id))
                        .min_by(|a, b| a.partial_cmp(b).expect("finite distances"));
                    prop_assert_eq!(
                        g.nearest_where(p, r, marked_only, accept),
                        scan,
                        "nearest to {:?} within {:?}, marked only: {}",
                        p,
                        r,
                        marked_only
                    );
                }
            }

            /// T-Share's first-hit walk is the brute-force scan it
            /// stands for: over every cell, the nearest non-empty ones
            /// within the radius by the same `f32` center distances
            /// from the query's cell, and all their items. Boxes of any
            /// shape and cell size, a fifth of the items outside the
            /// box, items stacked on a few points, radii from zero to
            /// past the box.
            #[test]
            fn first_hit_is_the_nearest_non_empty_ring_by_scan(
                (w, h) in (1.0..6_000.0f64, prop_oneof![Just(0.0f64), 1.0..6_000.0]),
                cell_m in prop_oneof![Just(250.0f64), Just(1_000.0), 40.0..3_000.0],
                items in collection::vec(prop_oneof![
                    (-0.1..1.1f64, -0.1..1.1f64),
                    (0u32..3, 0u32..3).prop_map(|(i, j)| (f64::from(i) / 2.0, f64::from(j) / 2.0)),
                ], 0..40),
                queries in collection::vec(
                    ((-0.2..1.2f64, -0.2..1.2f64), prop_oneof![Just(0.0f64), 0.0..9_000.0]),
                    1..12,
                ),
            ) {
                let at = |(x, y): (f64, f64)| Point::new(x * w, y * h);
                let mut g = GridIndex::new(bbox(w, h), cell_m);
                for (id, &p) in items.iter().enumerate() {
                    g.upsert(id as ItemId, at(p));
                }
                let mut in_cell = vec![Vec::new(); g.num_cells()];
                for (id, &p) in items.iter().enumerate() {
                    in_cell[g.cell_of(at(p))].push(id as ItemId);
                }
                let table = SortedCellTable::new(&g);
                let mut out = Vec::new();
                for (q, r) in queries {
                    let p = at(q);
                    let origin = g.cell_center(g.cell_of(p));
                    let ring = |c: usize| origin.euclidean_m(&g.cell_center(c)) as f32;
                    let hit = (0..g.num_cells())
                        .filter(|&c| f64::from(ring(c)) <= r && !in_cell[c].is_empty())
                        .map(ring)
                        .min_by(|a, b| a.partial_cmp(b).expect("finite distances"));
                    let mut scan: Vec<ItemId> = (0..g.num_cells())
                        .filter(|&c| Some(ring(c)) == hit)
                        .flat_map(|c| in_cell[c].iter().copied())
                        .collect();
                    scan.sort_unstable();
                    table.items_in_first_hit(&g, p, r, &mut out);
                    out.sort_unstable();
                    prop_assert_eq!(&out, &scan, "first hit from {:?} within {}", p, r);
                }
            }

            /// `euclidean_cost` is monotone in the distance, so a bound
            /// on metres is a bound on centiseconds.
            #[test]
            fn euclidean_cost_is_monotone_in_the_distance(
                d in 0.0f64..60_000.0,
                step in prop_oneof![Just(0.0f64), 0.0..1e-6, 0.0..10.0],
                ulps in 0u64..4,
                speed in prop_oneof![Just(1.0), Just(8.33), Just(16.67), 0.5..40.0],
            ) {
                use crate::graph::euclidean_cost;
                let further = f64::from_bits((d + step).to_bits() + ulps);
                prop_assert!(euclidean_cost(d, speed) <= euclidean_cost(further, speed));
            }
        }
    }
}
