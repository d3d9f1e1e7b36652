//! Planar locations measured in kilometres.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A location on the city plane, in kilometres.
///
/// The paper's scenario is "a three-dimensional Euclidean surface that
/// represents the city"; operationally every quantity it uses is a planar
/// shortest-path distance, so a 2-D point in kilometres is the natural
/// representation. Coordinates are `f64` and all arithmetic is plain IEEE
/// floating point.
///
/// # Examples
///
/// ```
/// use o2o_geo::Point;
///
/// let a = Point::new(1.0, 2.0);
/// let b = Point::new(4.0, 6.0);
/// assert_eq!(a.euclidean(b), 5.0);
/// assert_eq!((a + b).x, 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East–west coordinate in kilometres.
    pub x: f64,
    /// North–south coordinate in kilometres.
    pub y: f64,
}

impl Point {
    /// The origin, `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from kilometre coordinates.
    ///
    /// # Examples
    ///
    /// ```
    /// use o2o_geo::Point;
    /// let p = Point::new(2.5, -1.0);
    /// assert_eq!(p.y, -1.0);
    /// ```
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Straight-line (L2) distance to `other`, in kilometres.
    #[must_use]
    pub fn euclidean(self, other: Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Rectilinear (L1) distance to `other`, in kilometres.
    #[must_use]
    pub fn manhattan(self, other: Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Exactly `self.euclidean(other) <= radius`, decided from the squared
    /// distance — no `hypot` — unless it lies within a relative `1e-9`
    /// band of `radius²`, where the rounding of either computation could
    /// matter and `hypot` decides. Radius queries (the grid's candidate
    /// walk) ask this for every point they visit.
    #[must_use]
    pub fn within(self, other: Point, radius: f64) -> bool {
        let r2 = radius * radius;
        // Outside this range the squared terms can under- or overflow (or
        // the radius is negative or NaN): fall back to the exact test.
        if radius >= 0.0 && (1e-200..=f64::MAX).contains(&r2) {
            let sq = self.euclidean_sq(other);
            if sq < r2 * (1.0 - 1e-9) {
                return true;
            }
            if sq > r2 * (1.0 + 1e-9) {
                return false;
            }
        }
        self.euclidean(other) <= radius
    }

    /// Squared Euclidean distance; cheaper than [`Point::euclidean`] when
    /// only comparisons are needed.
    #[must_use]
    pub fn euclidean_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// The point a fraction `t` of the way from `self` to `other`
    /// (`t = 0` gives `self`, `t = 1` gives `other`; `t` outside `[0, 1]`
    /// extrapolates).
    #[must_use]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Moves from `self` towards `target` by at most `step` kilometres,
    /// stopping exactly at `target` if it is closer than `step`.
    ///
    /// This is the primitive the simulator uses to advance taxis each frame.
    ///
    /// # Examples
    ///
    /// ```
    /// use o2o_geo::Point;
    /// let here = Point::new(0.0, 0.0);
    /// let there = Point::new(10.0, 0.0);
    /// assert_eq!(here.step_towards(there, 3.0), Point::new(3.0, 0.0));
    /// assert_eq!(here.step_towards(there, 30.0), there);
    /// ```
    #[must_use]
    pub fn step_towards(self, target: Point, step: f64) -> Point {
        let dist = self.euclidean(target);
        if dist <= step || dist == 0.0 {
            target
        } else {
            self.lerp(target, step / dist)
        }
    }

    /// Euclidean norm of the point treated as a vector from the origin.
    #[must_use]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// `true` when both coordinates are finite (not NaN or infinite).
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_345_triangle() {
        assert_eq!(Point::new(0.0, 0.0).euclidean(Point::new(3.0, 4.0)), 5.0);
    }

    #[test]
    fn euclidean_is_symmetric() {
        let a = Point::new(1.5, -2.5);
        let b = Point::new(-4.0, 9.0);
        assert_eq!(a.euclidean(b), b.euclidean(a));
    }

    #[test]
    fn manhattan_dominates_euclidean() {
        let a = Point::new(1.0, 1.0);
        let b = Point::new(-2.0, 5.0);
        assert!(a.manhattan(b) >= a.euclidean(b));
    }

    #[test]
    fn within_agrees_with_euclidean_comparison() {
        let origin = Point::new(0.3, -0.7);
        let mut radii = vec![0.0, 1e-300, 1e-150, 0.5, 1.0, 3.0, 1e150, 1e200];
        radii.extend([f64::INFINITY, f64::NAN, -1.0, f64::MAX]);
        for k in 0..2000 {
            let t = k as f64 * 0.618_033_988_749_895;
            let scale = 10f64.powi(k % 9 - 4);
            let p = Point::new(origin.x + scale * t.cos(), origin.y + scale * t.sin());
            let d = origin.euclidean(p);
            // Probe each radius, and radii a few ulps around the distance
            // itself, where only the exact fallback can decide.
            let mut probes = radii.clone();
            probes.extend([d, d.next_down(), d.next_up(), d * (1.0 + 5e-10)]);
            for &r in &probes {
                assert_eq!(origin.within(p, r), d <= r, "p {p:?} r {r}");
                assert_eq!(p.within(origin, r), p.euclidean(origin) <= r);
            }
        }
    }

    #[test]
    fn euclidean_sq_matches_euclidean() {
        let a = Point::new(0.3, 0.7);
        let b = Point::new(-1.1, 2.2);
        let d = a.euclidean(b);
        assert!((a.euclidean_sq(b) - d * d).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Point::new(2.0, 3.0);
        let b = Point::new(10.0, -1.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(6.0, 1.0));
    }

    #[test]
    fn step_towards_never_overshoots() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        assert_eq!(a.step_towards(b, 5.0), b);
        let mid = a.step_towards(b, 0.25);
        assert!((mid.x - 0.25).abs() < 1e-12);
    }

    #[test]
    fn step_towards_zero_distance_is_target() {
        let a = Point::new(1.0, 1.0);
        assert_eq!(a.step_towards(a, 0.0), a);
    }

    #[test]
    fn vector_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a + b, Point::new(4.0, 6.0));
        assert_eq!(b - a, Point::new(2.0, 2.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, 2.0));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Point::new(1.0, 2.0).to_string(), "(1.000, 2.000)");
    }

    #[test]
    fn conversion_round_trip() {
        let p: Point = (3.0, 4.0).into();
        let back: (f64, f64) = p.into();
        assert_eq!(back, (3.0, 4.0));
    }

    #[test]
    fn is_finite_rejects_nan() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }
}
