//! Line segments and segment intersection.

use crate::Vec2;

/// A directed line segment from `a` to `b`.
///
/// # Examples
///
/// ```
/// use erpd_geometry::{Segment2, Vec2};
///
/// let s = Segment2::new(Vec2::ZERO, Vec2::new(10.0, 0.0));
/// let t = Segment2::new(Vec2::new(5.0, -5.0), Vec2::new(5.0, 5.0));
/// let hit = s.intersect(&t).unwrap();
/// assert!((hit.point - Vec2::new(5.0, 0.0)).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment2 {
    /// Start point.
    pub a: Vec2,
    /// End point.
    pub b: Vec2,
}

/// The result of a proper segment–segment intersection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentIntersection {
    /// Where the segments cross.
    pub point: Vec2,
    /// Parameter along the first segment, in `[0, 1]`.
    pub t_self: f64,
    /// Parameter along the second segment, in `[0, 1]`.
    pub t_other: f64,
}

impl Segment2 {
    /// Creates a segment between two points.
    #[inline]
    pub const fn new(a: Vec2, b: Vec2) -> Self {
        Segment2 { a, b }
    }

    /// The displacement `b - a`.
    #[inline]
    pub(crate) fn delta(&self) -> Vec2 {
        self.b - self.a
    }

    /// Segment length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.delta().norm()
    }

    /// Point at parameter `t` (`0` → `a`, `1` → `b`); `t` is not clamped.
    #[inline]
    pub fn point_at(&self, t: f64) -> Vec2 {
        self.a.lerp(self.b, t)
    }

    /// Parameter in `[0, 1]` of the point on the segment closest to `p`.
    pub(crate) fn closest_t(&self, p: Vec2) -> f64 {
        let d = self.delta();
        let len2 = d.norm_squared();
        if len2 <= f64::EPSILON {
            0.0
        } else {
            ((p - self.a).dot(d) / len2).clamp(0.0, 1.0)
        }
    }

    /// The point on the segment closest to `p`.
    #[inline]
    pub fn closest_point(&self, p: Vec2) -> Vec2 {
        self.point_at(self.closest_t(p))
    }

    /// Distance from `p` to the segment.
    #[inline]
    pub fn distance_to_point(&self, p: Vec2) -> f64 {
        self.closest_point(p).distance(p)
    }

    /// Proper intersection of two segments.
    ///
    /// Returns `None` for parallel or collinear segments (an overlap has no
    /// single crossing point, and the downstream trajectory logic treats
    /// same-lane conflicts via car-following instead — paper §III-A2).
    pub fn intersect(&self, other: &Segment2) -> Option<SegmentIntersection> {
        let r = self.delta();
        let s = other.delta();
        let denom = r.cross(s);
        if denom.abs() < 1e-12 {
            return None;
        }
        let qp = other.a - self.a;
        let t = qp.cross(s) / denom;
        let u = qp.cross(r) / denom;
        // Both ranges tested before the one branch: a crossing search calls
        // this on pairs that miss about as often as they hit.
        if (0.0..=1.0).contains(&t) & (0.0..=1.0).contains(&u) {
            Some(SegmentIntersection {
                point: self.point_at(t),
                t_self: t,
                t_other: u,
            })
        } else {
            None
        }
    }

    /// Minimum distance between two segments.
    pub fn distance_to_segment(&self, other: &Segment2) -> f64 {
        if self.intersect(other).is_some() {
            return 0.0;
        }
        let d1 = self.distance_to_point(other.a).min(self.distance_to_point(other.b));
        let d2 = other.distance_to_point(self.a).min(other.distance_to_point(self.b));
        d1.min(d2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_measurements() {
        let s = Segment2::new(Vec2::ZERO, Vec2::new(3.0, 4.0));
        assert_eq!(s.length(), 5.0);
        assert_eq!(s.point_at(0.0), s.a);
        assert_eq!(s.point_at(1.0), s.b);
    }

    #[test]
    fn crossing_segments_intersect() {
        let s = Segment2::new(Vec2::new(-1.0, 0.0), Vec2::new(1.0, 0.0));
        let t = Segment2::new(Vec2::new(0.0, -1.0), Vec2::new(0.0, 1.0));
        let hit = s.intersect(&t).unwrap();
        assert!((hit.point - Vec2::ZERO).norm() < 1e-12);
        assert!((hit.t_self - 0.5).abs() < 1e-12);
        assert!((hit.t_other - 0.5).abs() < 1e-12);
    }

    #[test]
    fn non_crossing_segments_do_not_intersect() {
        let s = Segment2::new(Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0));
        let t = Segment2::new(Vec2::new(2.0, -1.0), Vec2::new(2.0, 1.0));
        assert!(s.intersect(&t).is_none());
    }

    #[test]
    fn parallel_segments_return_none() {
        let s = Segment2::new(Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0));
        let t = Segment2::new(Vec2::new(0.0, 1.0), Vec2::new(1.0, 1.0));
        assert!(s.intersect(&t).is_none());
        // Collinear overlap also yields None by design.
        let u = Segment2::new(Vec2::new(0.5, 0.0), Vec2::new(2.0, 0.0));
        assert!(s.intersect(&u).is_none());
    }

    #[test]
    fn endpoint_touch_counts_as_intersection() {
        let s = Segment2::new(Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0));
        let t = Segment2::new(Vec2::new(1.0, 0.0), Vec2::new(1.0, 1.0));
        let hit = s.intersect(&t).unwrap();
        assert!((hit.t_self - 1.0).abs() < 1e-12);
        assert!(hit.t_other.abs() < 1e-12);
    }

    #[test]
    fn closest_point_clamps_to_endpoints() {
        let s = Segment2::new(Vec2::ZERO, Vec2::new(10.0, 0.0));
        assert_eq!(s.closest_point(Vec2::new(-5.0, 3.0)), Vec2::ZERO);
        assert_eq!(s.closest_point(Vec2::new(15.0, 3.0)), Vec2::new(10.0, 0.0));
        assert_eq!(s.closest_point(Vec2::new(5.0, 3.0)), Vec2::new(5.0, 0.0));
        assert_eq!(s.distance_to_point(Vec2::new(5.0, 3.0)), 3.0);
    }

    #[test]
    fn degenerate_segment_distance() {
        let s = Segment2::new(Vec2::new(1.0, 1.0), Vec2::new(1.0, 1.0));
        assert_eq!(s.distance_to_point(Vec2::new(4.0, 5.0)), 5.0);
        assert_eq!(s.closest_t(Vec2::new(4.0, 5.0)), 0.0);
    }

    #[test]
    fn segment_to_segment_distance() {
        let s = Segment2::new(Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0));
        let t = Segment2::new(Vec2::new(0.0, 2.0), Vec2::new(1.0, 2.0));
        assert_eq!(s.distance_to_segment(&t), 2.0);
        let u = Segment2::new(Vec2::new(0.5, -1.0), Vec2::new(0.5, 1.0));
        assert_eq!(s.distance_to_segment(&u), 0.0);
    }
}
