//! Axis-aligned bounding boxes describing a city's extent.

use crate::Point;
use std::fmt;

/// An axis-aligned rectangle on the city plane, in kilometres.
///
/// Used to describe the service area of a trace (e.g. the ~60×60 km New York
/// state-scale area vs the ~15×15 km Boston area) and to configure spatial
/// indices.
///
/// # Examples
///
/// ```
/// use o2o_geo::{BBox, Point};
///
/// let city = BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 8.0));
/// assert!(city.contains(Point::new(5.0, 5.0)));
/// assert_eq!(city.width(), 10.0);
/// assert_eq!(city.center(), Point::new(5.0, 4.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    min: Point,
    max: Point,
}

impl BBox {
    /// Creates a bounding box from two opposite corners.
    ///
    /// The corners may be given in any order; they are normalised so that
    /// `min() ≤ max()` component-wise.
    #[must_use]
    pub fn new(a: Point, b: Point) -> Self {
        BBox {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// A square box of side `side` kilometres centred on `center`.
    ///
    /// # Panics
    ///
    /// Panics if `side` is negative.
    #[must_use]
    pub fn square(center: Point, side: f64) -> Self {
        assert!(side >= 0.0, "side must be non-negative, got {side}");
        let h = side / 2.0;
        BBox::new(
            Point::new(center.x - h, center.y - h),
            Point::new(center.x + h, center.y + h),
        )
    }

    /// The smallest box containing every point of the iterator, or `None`
    /// for an empty iterator.
    #[must_use]
    pub fn from_points<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let (mut min, mut max) = (first, first);
        for p in it {
            min = Point::new(min.x.min(p.x), min.y.min(p.y));
            max = Point::new(max.x.max(p.x), max.y.max(p.y));
        }
        Some(BBox { min, max })
    }

    /// Lower-left corner.
    #[must_use]
    pub fn min(&self) -> Point {
        self.min
    }

    /// Upper-right corner.
    #[must_use]
    pub fn max(&self) -> Point {
        self.max
    }

    /// East–west extent in kilometres.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// North–south extent in kilometres.
    #[must_use]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in square kilometres.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Geometric centre.
    #[must_use]
    pub fn center(&self) -> Point {
        self.min.lerp(self.max, 0.5)
    }

    /// `true` when `p` lies inside or on the boundary.
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The nearest point inside the box to `p` (identity when `p` is inside).
    #[must_use]
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// Euclidean distance from `p` to the nearest point of the box
    /// (`0.0` when `p` is inside or on the boundary).
    ///
    /// Works for degenerate boxes too: a zero-area box (a point or a
    /// segment) is still a valid set of points, so the distance to it is
    /// the distance to that point/segment, never `NaN`.
    #[must_use]
    pub fn distance_to_point(&self, p: Point) -> f64 {
        p.euclidean(self.clamp(p))
    }
}

impl fmt::Display for BBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn corners_are_normalised() {
        let b = BBox::new(Point::new(5.0, 1.0), Point::new(1.0, 5.0));
        assert_eq!(b.min(), Point::new(1.0, 1.0));
        assert_eq!(b.max(), Point::new(5.0, 5.0));
    }

    #[test]
    fn square_has_expected_extent() {
        let b = BBox::square(Point::new(0.0, 0.0), 10.0);
        assert_eq!(b.width(), 10.0);
        assert_eq!(b.height(), 10.0);
        assert_eq!(b.center(), Point::ORIGIN);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn square_rejects_negative_side() {
        let _ = BBox::square(Point::ORIGIN, -1.0);
    }

    #[test]
    fn contains_boundary() {
        let b = BBox::square(Point::ORIGIN, 2.0);
        assert!(b.contains(Point::new(1.0, 1.0)));
        assert!(b.contains(Point::new(-1.0, 0.0)));
        assert!(!b.contains(Point::new(1.0001, 0.0)));
    }

    #[test]
    fn clamp_projects_outside_points() {
        let b = BBox::square(Point::ORIGIN, 2.0);
        assert_eq!(b.clamp(Point::new(5.0, 0.5)), Point::new(1.0, 0.5));
        assert_eq!(b.clamp(Point::new(0.2, 0.2)), Point::new(0.2, 0.2));
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [
            Point::new(1.0, 4.0),
            Point::new(-2.0, 0.0),
            Point::new(3.0, -1.0),
        ];
        let b = BBox::from_points(pts).unwrap();
        for p in pts {
            assert!(b.contains(p));
        }
        assert_eq!(b.min(), Point::new(-2.0, -1.0));
        assert_eq!(b.max(), Point::new(3.0, 4.0));
        assert_eq!(b.area(), 25.0);
    }

    #[test]
    fn from_points_empty_is_none() {
        assert!(BBox::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn point_distance_inside_and_outside() {
        let b = BBox::square(Point::ORIGIN, 2.0);
        assert_eq!(b.distance_to_point(Point::new(0.5, -0.5)), 0.0);
        assert_eq!(b.distance_to_point(Point::new(1.0, 1.0)), 0.0); // corner
        assert_eq!(b.distance_to_point(Point::new(4.0, 0.0)), 3.0);
        assert_eq!(b.distance_to_point(Point::new(4.0, 5.0)), 5.0); // diagonal 3-4-5
    }

    #[test]
    fn zero_area_boxes_behave_as_points_and_segments() {
        // A point-box.
        let p = BBox::new(Point::new(2.0, 3.0), Point::new(2.0, 3.0));
        assert_eq!(p.distance_to_point(Point::new(2.0, 3.0)), 0.0);
        assert_eq!(p.distance_to_point(Point::new(5.0, 7.0)), 5.0);
        // A vertical segment-box.
        let seg = BBox::new(Point::new(0.0, 0.0), Point::new(0.0, 4.0));
        assert_eq!(seg.distance_to_point(Point::new(3.0, 2.0)), 3.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `distance_to_point` lower-bounds the distance to every point the
        /// box contains, and is exact for the clamped projection.
        #[test]
        fn point_distance_lower_bounds_contents(
            pts in proptest::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 1..12),
            qx in -15.0..15.0f64,
            qy in -15.0..15.0f64,
        ) {
            let pts: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            let b = BBox::from_points(pts.iter().copied()).unwrap();
            let q = Point::new(qx, qy);
            let bound = b.distance_to_point(q);
            for &p in &pts {
                prop_assert!(bound <= p.euclidean(q) + 1e-12);
            }
        }
    }
}
