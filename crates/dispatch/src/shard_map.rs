//! The geographic partition behind the sharded dispatch plane.
//!
//! A [`ShardMap`] cuts the city's bounding box into a `kx × ky` lattice
//! of equal rectangles — one per shard — oriented so the finer axis of
//! the cut runs along the longer axis of the city (a wide city gets
//! more columns than rows). The mapping from a point to its shard is a
//! pure function of the box and `K`, so every component that needs to
//! agree on an event's home shard (the dispatcher, a replay, a test)
//! computes it independently and identically.

use road_network::geo::{BoundingBox, Point};
use smallvec::SmallVec;

/// A `K`-way rectangular partition of a bounding box.
#[derive(Debug, Clone)]
pub struct ShardMap {
    bbox: BoundingBox,
    kx: usize,
    ky: usize,
}

impl ShardMap {
    /// Partitions `bbox` into `k` shards (`k` is clamped to ≥ 1).
    ///
    /// `k` is factored as `kx · ky` with the split as square as `k`'s
    /// divisors allow, and the larger factor is assigned to the longer
    /// box axis: 2 shards of a wide city are west/east halves, 8 are a
    /// 4 × 2 lattice.
    pub fn new(bbox: BoundingBox, k: usize) -> Self {
        let k = k.max(1);
        // Largest divisor pair (a ≥ b) with a·b = k.
        let mut b = (k as f64).sqrt() as usize;
        while !k.is_multiple_of(b) {
            b -= 1;
        }
        let a = k / b;
        let (kx, ky) = if bbox.height() > bbox.width() {
            (b, a)
        } else {
            (a, b)
        };
        ShardMap { bbox, kx, ky }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.kx * self.ky
    }

    /// Lattice dimensions `(columns, rows)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.kx, self.ky)
    }

    /// The shard whose territory contains `p` (points outside the box
    /// clamp to the border shards, mirroring the worker grid index).
    #[inline]
    pub fn shard_of(&self, p: Point) -> usize {
        let fx = (p.x - self.bbox.min.x) / self.bbox.width().max(f64::EPSILON);
        let fy = (p.y - self.bbox.min.y) / self.bbox.height().max(f64::EPSILON);
        let sx = ((fx * self.kx as f64) as isize).clamp(0, self.kx as isize - 1) as usize;
        let sy = ((fy * self.ky as f64) as isize).clamp(0, self.ky as isize - 1) as usize;
        sy * self.kx + sx
    }

    /// Center point of shard `s`'s territory.
    pub fn center(&self, s: usize) -> Point {
        let sx = s % self.kx;
        let sy = s / self.kx;
        Point::new(
            self.bbox.min.x + (sx as f64 + 0.5) * self.bbox.width() / self.kx as f64,
            self.bbox.min.y + (sy as f64 + 0.5) * self.bbox.height() / self.ky as f64,
        )
    }

    /// Every shard id, ordered by territory-center distance from `p`
    /// (ties break on shard id) — the Borrow probe's order,
    /// deterministic by construction. Up to 16 shards the order is
    /// built inline: no allocation per arrival.
    pub fn nearest_order(&self, p: Point) -> SmallVec<usize, 16> {
        let mut order: SmallVec<usize, 16> = (0..self.shards()).collect();
        order.sort_unstable_by(|&a, &b| {
            let da = self.center(a).euclidean_m(&p);
            let db = self.center(b).euclidean_m(&p);
            da.partial_cmp(&db)
                .expect("finite distances")
                .then(a.cmp(&b))
        });
        order
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
    fn factorization_follows_the_long_axis() {
        assert_eq!(ShardMap::new(bbox(10_000.0, 5_000.0), 1).dims(), (1, 1));
        assert_eq!(ShardMap::new(bbox(10_000.0, 5_000.0), 2).dims(), (2, 1));
        assert_eq!(ShardMap::new(bbox(5_000.0, 10_000.0), 2).dims(), (1, 2));
        assert_eq!(ShardMap::new(bbox(10_000.0, 5_000.0), 4).dims(), (2, 2));
        assert_eq!(ShardMap::new(bbox(10_000.0, 5_000.0), 8).dims(), (4, 2));
        assert_eq!(ShardMap::new(bbox(5_000.0, 10_000.0), 8).dims(), (2, 4));
        assert_eq!(ShardMap::new(bbox(10_000.0, 5_000.0), 3).dims(), (3, 1));
        assert_eq!(ShardMap::new(bbox(10_000.0, 5_000.0), 0).shards(), 1);
    }

    #[test]
    fn every_point_lands_in_exactly_one_shard() {
        let map = ShardMap::new(bbox(8_000.0, 4_000.0), 8);
        let mut seen = vec![0usize; map.shards()];
        for i in 0..80 {
            for j in 0..40 {
                let s = map.shard_of(Point::new(i as f64 * 100.0, j as f64 * 100.0));
                assert!(s < map.shards());
                seen[s] += 1;
            }
        }
        // An even lattice over an even sample: every shard is populated.
        assert!(seen.iter().all(|&c| c > 0), "{seen:?}");
        // Points outside the box clamp to border shards.
        assert_eq!(map.shard_of(Point::new(-1e6, -1e6)), 0);
        assert_eq!(
            map.shard_of(Point::new(1e6, 1e6)),
            map.shards() - 1,
            "far corner clamps to the last shard"
        );
    }

    #[test]
    fn nearest_order_starts_at_home_and_is_deterministic() {
        let map = ShardMap::new(bbox(8_000.0, 4_000.0), 4);
        let p = Point::new(500.0, 500.0); // deep inside shard 0
        let order = map.nearest_order(p);
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], map.shard_of(p));
        assert_eq!(order, map.nearest_order(p));
        // The diagonal opposite is probed last.
        assert_eq!(*order.last().unwrap(), 3);
    }
}
