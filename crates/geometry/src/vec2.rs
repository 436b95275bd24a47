//! Two-dimensional vectors and points.
//!
//! [`Vec2`] is the workhorse type of the whole stack: the traffic simulator,
//! the tracker, and the relevance estimator all operate on the road plane,
//! so almost every geometric computation bottoms out here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 2-D vector (or point) with `f64` components, in metres.
///
/// # Examples
///
/// ```
/// use erpd_geometry::Vec2;
///
/// let a = Vec2::new(3.0, 4.0);
/// assert_eq!(a.norm(), 5.0);
/// assert_eq!(a + Vec2::new(1.0, -1.0), Vec2::new(4.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component (east, in world coordinates).
    pub x: f64,
    /// Y component (north, in world coordinates).
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };
    /// Unit vector along +x.
    pub const UNIT_X: Vec2 = Vec2 { x: 1.0, y: 0.0 };
    /// Unit vector along +y.
    pub const UNIT_Y: Vec2 = Vec2 { x: 0.0, y: 1.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Unit vector pointing at `angle` radians from +x (counter-clockwise).
    ///
    /// ```
    /// use erpd_geometry::Vec2;
    /// let v = Vec2::from_angle(std::f64::consts::FRAC_PI_2);
    /// assert!((v - Vec2::UNIT_Y).norm() < 1e-12);
    /// ```
    #[inline]
    pub fn from_angle(angle: f64) -> Self {
        Vec2::new(angle.cos(), angle.sin())
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z component of the 3-D cross product (signed parallelogram area).
    ///
    /// Positive when `other` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean length (avoids the square root).
    #[inline]
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Squared distance to another point.
    #[inline]
    pub fn distance_squared(self, other: Vec2) -> f64 {
        (self - other).norm_squared()
    }

    /// Returns the vector scaled to unit length, or `None` for (near-)zero
    /// vectors.
    #[inline]
    pub fn try_normalize(self) -> Option<Vec2> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self / n)
        }
    }

    /// The angle of this vector from +x, in `(-PI, PI]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Rotates the vector counter-clockwise by `angle` radians.
    #[inline]
    pub fn rotated(self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// The vector rotated 90 degrees counter-clockwise.
    #[inline]
    pub(crate) fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Componentwise linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }

    /// True if every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Arithmetic mean of a set of points; `None` when empty.
    pub fn centroid<I: IntoIterator<Item = Vec2>>(points: I) -> Option<Vec2> {
        let mut sum = Vec2::ZERO;
        let mut n = 0usize;
        for p in points {
            sum += p;
            n += 1;
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl MulAssign<f64> for Vec2 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = *self * rhs;
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl DivAssign<f64> for Vec2 {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Sum for Vec2 {
    fn sum<I: Iterator<Item = Vec2>>(iter: I) -> Vec2 {
        iter.fold(Vec2::ZERO, Add::add)
    }
}

impl From<(f64, f64)> for Vec2 {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Vec2::new(x, y)
    }
}

impl From<[f64; 2]> for Vec2 {
    #[inline]
    fn from([x, y]: [f64; 2]) -> Self {
        Vec2::new(x, y)
    }
}

impl From<Vec2> for (f64, f64) {
    #[inline]
    fn from(v: Vec2) -> Self {
        (v.x, v.y)
    }
}

impl From<Vec2> for [f64; 2] {
    #[inline]
    fn from(v: Vec2) -> Self {
        [v.x, v.y]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn approx(a: Vec2, b: Vec2) -> bool {
        (a - b).norm() < 1e-10
    }

    #[test]
    fn arithmetic_identities() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(-3.5, 0.5);
        assert_eq!(a + b, Vec2::new(-2.5, 2.5));
        assert_eq!(a - b, Vec2::new(4.5, 1.5));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        assert_eq!(a + Vec2::ZERO, a);
    }

    #[test]
    fn compound_assignment() {
        let mut v = Vec2::new(1.0, 1.0);
        v += Vec2::new(1.0, 0.0);
        v -= Vec2::new(0.0, 1.0);
        v *= 3.0;
        v /= 2.0;
        assert_eq!(v, Vec2::new(3.0, 0.0));
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec2::UNIT_X;
        let b = Vec2::UNIT_Y;
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
        assert_eq!(a.dot(a), 1.0);
    }

    #[test]
    fn norms_and_distances() {
        let a = Vec2::new(3.0, 4.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_squared(), 25.0);
        assert_eq!(a.distance(Vec2::ZERO), 5.0);
        assert_eq!(a.distance_squared(Vec2::ZERO), 25.0);
    }

    #[test]
    fn normalize_unit_length() {
        let v = Vec2::new(10.0, -2.0).try_normalize().unwrap();
        assert!((v.norm() - 1.0).abs() < 1e-12);
        assert!(Vec2::ZERO.try_normalize().is_none());
    }

    #[test]
    fn angles_and_rotation() {
        assert!((Vec2::UNIT_Y.angle() - FRAC_PI_2).abs() < 1e-12);
        assert!(approx(Vec2::UNIT_X.rotated(PI), -Vec2::UNIT_X));
        assert!(approx(Vec2::UNIT_X.perp(), Vec2::UNIT_Y));
        assert!(approx(Vec2::from_angle(PI / 4.0).rotated(-PI / 4.0), Vec2::UNIT_X));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(1.0, 2.0));
    }

    #[test]
    fn centroid_of_points() {
        let pts = [Vec2::new(0.0, 0.0), Vec2::new(2.0, 0.0), Vec2::new(1.0, 3.0)];
        assert!(approx(Vec2::centroid(pts).unwrap(), Vec2::new(1.0, 1.0)));
        assert!(Vec2::centroid(std::iter::empty()).is_none());
    }

    #[test]
    fn conversions() {
        let v = Vec2::new(1.0, 2.0);
        assert_eq!(Vec2::from((1.0, 2.0)), v);
        assert_eq!(Vec2::from([1.0, 2.0]), v);
        let t: (f64, f64) = v.into();
        assert_eq!(t, (1.0, 2.0));
        let a: [f64; 2] = v.into();
        assert_eq!(a, [1.0, 2.0]);
    }

    #[test]
    fn sum_of_vectors() {
        let s: Vec2 = [Vec2::new(1.0, 0.0), Vec2::new(0.0, 2.0)].into_iter().sum();
        assert_eq!(s, Vec2::new(1.0, 2.0));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Vec2::ZERO).is_empty());
    }
}
