//! Planar rigid-body poses (SE(2)).
//!
//! Every vehicle and pedestrian in the simulator carries a [`Pose2`]; the
//! LiDAR-to-world transform of the paper's *Coordinate Transformation*
//! module is the 3-D lift of the sensor vehicle's pose (see
//! [`crate::transform::Transform3`]).

use crate::angle::normalize_angle;
use crate::Vec2;
use std::fmt;

/// A position plus heading on the road plane.
///
/// The heading is measured counter-clockwise from +x, in radians, and is kept
/// normalised to `(-PI, PI]`.
///
/// # Examples
///
/// ```
/// use erpd_geometry::{Pose2, Vec2};
/// use std::f64::consts::FRAC_PI_2;
///
/// // A vehicle at the origin facing north sees a point 5 m ahead at
/// // world coordinates (0, 5).
/// let pose = Pose2::new(Vec2::ZERO, FRAC_PI_2);
/// let world = pose.to_world(Vec2::new(5.0, 0.0));
/// assert!((world - Vec2::new(0.0, 5.0)).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose2 {
    /// Position of the body origin in world coordinates.
    pub position: Vec2,
    heading: f64,
}

impl Pose2 {
    /// Creates a pose; the heading is normalised to `(-PI, PI]`.
    #[inline]
    pub fn new(position: Vec2, heading: f64) -> Self {
        Pose2 {
            position,
            heading: normalize_angle(heading),
        }
    }

    /// The identity pose (origin, facing +x).
    #[inline]
    pub fn identity() -> Self {
        Pose2::new(Vec2::ZERO, 0.0)
    }

    /// Heading in radians, normalised to `(-PI, PI]`.
    #[inline]
    pub fn heading(&self) -> f64 {
        self.heading
    }

    /// Unit vector in the facing direction.
    #[inline]
    pub fn forward(&self) -> Vec2 {
        Vec2::from_angle(self.heading)
    }

    /// Unit vector 90° counter-clockwise from the facing direction
    /// (the body-frame "left").
    #[inline]
    pub fn left(&self) -> Vec2 {
        self.forward().perp()
    }

    /// Maps a point from the body frame to the world frame.
    #[inline]
    pub fn to_world(&self, local: Vec2) -> Vec2 {
        self.position + local.rotated(self.heading)
    }

    /// Maps a point from the world frame to the body frame.
    #[inline]
    pub fn to_local(&self, world: Vec2) -> Vec2 {
        (world - self.position).rotated(-self.heading)
    }

    /// Advances the pose `distance` metres along its heading.
    #[inline]
    pub fn advanced(&self, distance: f64) -> Pose2 {
        Pose2::new(self.position + self.forward() * distance, self.heading)
    }
}

impl Default for Pose2 {
    fn default() -> Self {
        Pose2::identity()
    }
}

impl fmt::Display for Pose2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {:.3} rad", self.position, self.heading)
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
    fn identity_round_trip() {
        let p = Pose2::identity();
        let q = Vec2::new(3.0, -4.0);
        assert!(approx(p.to_world(q), q));
        assert!(approx(p.to_local(q), q));
    }

    #[test]
    fn world_local_inverse() {
        let pose = Pose2::new(Vec2::new(10.0, -5.0), 0.7);
        let pt = Vec2::new(2.0, 3.0);
        assert!(approx(pose.to_local(pose.to_world(pt)), pt));
        assert!(approx(pose.to_world(pose.to_local(pt)), pt));
    }

    #[test]
    fn heading_is_normalized() {
        let p = Pose2::new(Vec2::ZERO, 3.0 * PI);
        assert!((p.heading() - PI).abs() < 1e-12);
        let q = Pose2::new(Vec2::ZERO, -3.0 * PI);
        assert!((q.heading().abs() - PI).abs() < 1e-12);
    }

    #[test]
    fn forward_and_left() {
        let p = Pose2::new(Vec2::ZERO, FRAC_PI_2);
        assert!(approx(p.forward(), Vec2::UNIT_Y));
        assert!(approx(p.left(), -Vec2::UNIT_X));
    }

    #[test]
    fn advanced_moves_along_heading() {
        let p = Pose2::new(Vec2::new(1.0, 1.0), FRAC_PI_2).advanced(2.0);
        assert!(approx(p.position, Vec2::new(1.0, 3.0)));
        assert!((p.heading() - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn default_is_identity() {
        assert_eq!(Pose2::default(), Pose2::identity());
    }
}
