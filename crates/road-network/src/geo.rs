//! Planar geometry: points, Euclidean distance, bounding boxes.
//!
//! Coordinates are planar **meters** (e.g. a local projection of
//! lat/long). The paper's decision phase (§5.1) lower-bounds road-network
//! travel times with the Euclidean distance between coordinates; we keep
//! coordinates in meters and convert to time at the network's top speed,
//! which preserves `euc(u, v) <= dis(u, v)`.

/// A point in a planar, meter-scaled coordinate system.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East-west coordinate in meters.
    pub x: f64,
    /// North-south coordinate in meters.
    pub y: f64,
}

impl Point {
    /// Creates a point from meter coordinates.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Straight-line distance to `other`, in meters.
    #[inline]
    pub fn euclidean_m(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// An axis-aligned bounding box over [`Point`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Minimum corner.
    pub min: Point,
    /// Maximum corner.
    pub max: Point,
}

impl BoundingBox {
    /// The empty box (inverted bounds); extend with [`BoundingBox::include`].
    pub fn empty() -> Self {
        BoundingBox {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Grows the box to contain `p`.
    pub fn include(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Builds the tight box around an iterator of points.
    pub fn around<I: IntoIterator<Item = Point>>(points: I) -> Self {
        let mut b = Self::empty();
        for p in points {
            b.include(p);
        }
        b
    }

    /// Box width in meters (0 for empty boxes).
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Box height in meters (0 for empty boxes).
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Whether `p` lies inside (inclusive).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Straight-line distance from `p` to the box, in meters (0 inside).
    /// Never above the computed [`Point::euclidean_m`] between `p` and a
    /// point the box contains: outside the box's extent on an axis, the
    /// gap is a correctly rounded difference of the same operands as
    /// that point's own difference, so it is no larger in magnitude,
    /// and every step after it is monotone. Branch-free: the gap is the
    /// larger of the two differences, or 0 inside.
    #[inline]
    pub fn distance_m(&self, p: Point) -> f64 {
        let gap = |v: f64, min: f64, max: f64| (min - v).max(v - max).max(0.0);
        let dx = gap(p.x, self.min.x, self.max.x);
        let dy = gap(p.y, self.min.y, self.max.y);
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_basics() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.euclidean_m(&b), 5.0);
        assert_eq!(b.euclidean_m(&a), 5.0);
        assert_eq!(a.euclidean_m(&a), 0.0);
    }

    #[test]
    fn bbox_grows_and_contains() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(10.0, -5.0),
            Point::new(-2.0, 8.0),
        ];
        let b = BoundingBox::around(pts);
        assert_eq!(b.min, Point::new(-2.0, -5.0));
        assert_eq!(b.max, Point::new(10.0, 8.0));
        assert!(b.contains(Point::new(0.0, 0.0)));
        assert!(!b.contains(Point::new(11.0, 0.0)));
        assert_eq!(b.width(), 12.0);
        assert_eq!(b.height(), 13.0);
    }

    #[test]
    fn empty_bbox_has_zero_extent() {
        let b = BoundingBox::empty();
        assert_eq!(b.width(), 0.0);
        assert_eq!(b.height(), 0.0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Coordinates on a coarse lattice (ties on the box's edges) or
        /// anywhere in a city-sized square.
        fn coordinate() -> impl Strategy<Value = f64> {
            prop_oneof![
                (0u32..8).prop_map(|k| f64::from(k) * 1_250.0 - 3_000.0),
                -3_000.0f64..9_000.0,
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// No point of the box lies nearer `p` than the box does,
            /// in either argument order of `euclidean_m`, and a point
            /// inside is at distance 0.
            #[test]
            fn no_contained_point_is_nearer_than_the_box(
                pts in collection::vec((coordinate(), coordinate()), 1..12),
                px in coordinate(),
                py in coordinate(),
            ) {
                let pts: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
                let b = BoundingBox::around(pts.iter().copied());
                let p = Point::new(px, py);
                let d = b.distance_m(p);
                for q in &pts {
                    prop_assert!(d <= q.euclidean_m(&p), "{:?} to {:?}", q, p);
                    prop_assert!(d <= p.euclidean_m(q), "{:?} to {:?}", p, q);
                }
                prop_assert_eq!(d == 0.0, b.contains(p));
            }
        }
    }
}
