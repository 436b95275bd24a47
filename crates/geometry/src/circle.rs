//! Circles, including the *collision area* of the relevance estimator.
//!
//! The paper defines the collision area as "a circular region around the
//! intersection of object trajectories" whose radius is "the maximum length
//! of the respective objects" (§III-A1). [`Circle::segment_inside`] is the
//! primitive used to compute when a trajectory enters and leaves that region.

use crate::{Segment2, Vec2};

/// A circle on the road plane.
///
/// # Examples
///
/// ```
/// use erpd_geometry::{Circle, Vec2};
///
/// let c = Circle::new(Vec2::ZERO, 2.0);
/// assert!(c.contains(Vec2::new(1.0, 1.0)));
/// assert!(!c.contains(Vec2::new(2.0, 2.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Centre point.
    pub center: Vec2,
    /// Radius in metres (non-negative).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or non-finite.
    #[inline]
    pub fn new(center: Vec2, radius: f64) -> Self {
        assert!(radius.is_finite() && radius >= 0.0, "invalid circle radius");
        Circle { center, radius }
    }

    /// The collision area of the paper: a circle at the trajectory crossing
    /// `point` whose radius is the maximum of the two object lengths.
    #[inline]
    pub fn collision_area(point: Vec2, len_a: f64, len_b: f64) -> Self {
        Circle::new(point, len_a.max(len_b))
    }

    /// True if the point lies inside or on the circle.
    #[inline]
    pub fn contains(&self, p: Vec2) -> bool {
        self.center.distance_squared(p) <= self.radius * self.radius
    }

    /// Circle area.
    #[inline]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// True if two circles overlap (boundary contact counts).
    #[inline]
    pub fn intersects(&self, other: &Circle) -> bool {
        let r = self.radius + other.radius;
        self.center.distance_squared(other.center) <= r * r
    }

    /// The parameter range `t ∈ [0, 1]` of the segment that lies inside the
    /// circle, or `None` when the segment misses it entirely.
    ///
    /// This is the robust primitive behind
    /// [`crate::Polyline2::circle_intervals`]: unlike crossing-parity
    /// walking, it cannot lose track of containment when a boundary crossing
    /// coincides with a polyline vertex.
    pub fn segment_inside(&self, seg: &Segment2) -> Option<(f64, f64)> {
        let d = seg.delta();
        let f = seg.a - self.center;
        let a = d.norm_squared();
        if a <= f64::EPSILON {
            // Degenerate segment: inside iff its single point is inside.
            return self.contains(seg.a).then_some((0.0, 1.0));
        }
        let b = 2.0 * f.dot(d);
        let c = f.norm_squared() - self.radius * self.radius;
        let disc = b * b - 4.0 * a * c;
        if disc < 0.0 {
            return None;
        }
        let sq = disc.sqrt();
        let t0 = ((-b - sq) / (2.0 * a)).max(0.0);
        let t1 = ((-b + sq) / (2.0 * a)).min(1.0);
        (t1 > t0).then_some((t0, t1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment() {
        let c = Circle::new(Vec2::new(1.0, 1.0), 1.0);
        assert!(c.contains(Vec2::new(1.0, 1.0)));
        assert!(c.contains(Vec2::new(2.0, 1.0))); // boundary
        assert!(!c.contains(Vec2::new(2.1, 1.0)));
    }

    #[test]
    #[should_panic(expected = "invalid circle radius")]
    fn negative_radius_panics() {
        let _ = Circle::new(Vec2::ZERO, -1.0);
    }

    #[test]
    fn collision_area_uses_max_length() {
        let c = Circle::collision_area(Vec2::ZERO, 4.5, 0.8);
        assert_eq!(c.radius, 4.5);
    }

    #[test]
    fn circle_circle_intersection() {
        let a = Circle::new(Vec2::ZERO, 1.0);
        let b = Circle::new(Vec2::new(1.5, 0.0), 1.0);
        let c = Circle::new(Vec2::new(3.0, 0.0), 0.5);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn area() {
        let c = Circle::new(Vec2::ZERO, 2.0);
        assert!((c.area() - 4.0 * std::f64::consts::PI).abs() < 1e-12);
    }
}
