//! Homogeneous 3-D transforms.
//!
//! The paper's *Coordinate Transformation* module computes the
//! LiDAR-to-world matrix `T_lw` from each vehicle's SLAM pose and applies
//! `[Wx, Wy, Wz, 1]^T = T_lw · [x, y, z, 1]^T` to every uploaded point.
//! [`Transform3`] is exactly that 4×4 matrix (stored row-major), restricted
//! to rigid transforms by its constructors.

use crate::{Pose2, Vec2, Vec3};
use std::fmt;
use std::ops::Mul;

/// A 4×4 homogeneous transform, row-major.
///
/// Constructors only produce rigid transforms (rotation + translation), which
/// keeps [`Transform3::inverse`] cheap and exact.
///
/// # Examples
///
/// ```
/// use erpd_geometry::{Transform3, Vec3};
/// use std::f64::consts::FRAC_PI_2;
///
/// // LiDAR mounted 1.8 m above a vehicle at (10, 20) heading north.
/// let t = Transform3::lidar_to_world(erpd_geometry::Vec2::new(10.0, 20.0), FRAC_PI_2, 1.8);
/// let p = t.apply(Vec3::new(5.0, 0.0, 0.0)); // 5 m ahead of sensor
/// assert!((p - Vec3::new(10.0, 25.0, 1.8)).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transform3 {
    m: [[f64; 4]; 4],
}

impl Transform3 {
    /// The identity transform.
    pub fn identity() -> Self {
        let mut m = [[0.0; 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        Transform3 { m }
    }

    /// A pure translation.
    pub(crate) fn translation(t: Vec3) -> Self {
        let mut out = Self::identity();
        out.m[0][3] = t.x;
        out.m[1][3] = t.y;
        out.m[2][3] = t.z;
        out
    }

    /// Rotation about the +z axis by `yaw` radians (counter-clockwise seen
    /// from above).
    pub(crate) fn rotation_z(yaw: f64) -> Self {
        let (s, c) = yaw.sin_cos();
        let mut out = Self::identity();
        out.m[0][0] = c;
        out.m[0][1] = -s;
        out.m[1][0] = s;
        out.m[1][1] = c;
        out
    }

    /// Rigid transform from a planar pose plus a height offset: rotate by the
    /// pose heading about z, then translate to `(pose.x, pose.y, z)`.
    pub(crate) fn from_pose2(pose: Pose2, z: f64) -> Self {
        Self::translation(Vec3::from_xy(pose.position, z)) * Self::rotation_z(pose.heading())
    }

    /// The LiDAR-to-world matrix `T_lw` of the paper: the sensor sits at
    /// `sensor_height` metres above the vehicle reference point located at
    /// `position` with the given `heading`.
    pub fn lidar_to_world(position: Vec2, heading: f64, sensor_height: f64) -> Self {
        Self::from_pose2(Pose2::new(position, heading), sensor_height)
    }

    /// Element access (row, column).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is ≥ 4.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.m[row][col]
    }

    /// Applies the transform to a point.
    #[inline]
    pub fn apply(&self, p: Vec3) -> Vec3 {
        let m = &self.m;
        Vec3::new(
            m[0][0] * p.x + m[0][1] * p.y + m[0][2] * p.z + m[0][3],
            m[1][0] * p.x + m[1][1] * p.y + m[1][2] * p.z + m[1][3],
            m[2][0] * p.x + m[2][1] * p.y + m[2][2] * p.z + m[2][3],
        )
    }

    /// Applies only the rotational part (for directions).
    #[inline]
    pub(crate) fn apply_vector(&self, v: Vec3) -> Vec3 {
        let m = &self.m;
        Vec3::new(
            m[0][0] * v.x + m[0][1] * v.y + m[0][2] * v.z,
            m[1][0] * v.x + m[1][1] * v.y + m[1][2] * v.z,
            m[2][0] * v.x + m[2][1] * v.y + m[2][2] * v.z,
        )
    }

    /// Inverse of a rigid transform (transpose the rotation, back-rotate the
    /// translation).
    pub fn inverse(&self) -> Transform3 {
        let m = &self.m;
        let mut out = Self::identity();
        // R^T
        for (i, row) in out.m.iter_mut().take(3).enumerate() {
            for (j, cell) in row.iter_mut().take(3).enumerate() {
                *cell = m[j][i];
            }
        }
        // -R^T t
        let t = Vec3::new(m[0][3], m[1][3], m[2][3]);
        let ti = out.apply_vector(t);
        out.m[0][3] = -ti.x;
        out.m[1][3] = -ti.y;
        out.m[2][3] = -ti.z;
        out
    }
}

impl Default for Transform3 {
    fn default() -> Self {
        Self::identity()
    }
}

impl Mul for Transform3 {
    type Output = Transform3;
    fn mul(self, rhs: Transform3) -> Transform3 {
        let mut m = [[0.0; 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (0..4).map(|k| self.m[i][k] * rhs.m[k][j]).sum();
            }
        }
        Transform3 { m }
    }
}

impl fmt::Display for Transform3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.m {
            writeln!(f, "[{:8.3} {:8.3} {:8.3} {:8.3}]", row[0], row[1], row[2], row[3])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn approx(a: Vec3, b: Vec3) -> bool {
        (a - b).norm() < 1e-10
    }

    #[test]
    fn identity_is_noop() {
        let p = Vec3::new(1.0, 2.0, 3.0);
        assert!(approx(Transform3::identity().apply(p), p));
        assert_eq!(Transform3::default(), Transform3::identity());
    }

    #[test]
    fn translation_moves_points_not_vectors() {
        let t = Transform3::translation(Vec3::new(1.0, 2.0, 3.0));
        assert!(approx(t.apply(Vec3::ZERO), Vec3::new(1.0, 2.0, 3.0)));
        assert!(approx(t.apply_vector(Vec3::new(1.0, 0.0, 0.0)), Vec3::new(1.0, 0.0, 0.0)));
    }

    #[test]
    fn rotation_z_quarter_turn() {
        let r = Transform3::rotation_z(FRAC_PI_2);
        assert!(approx(r.apply(Vec3::new(1.0, 0.0, 0.5)), Vec3::new(0.0, 1.0, 0.5)));
    }

    #[test]
    fn composition_order() {
        // translate-then-rotate differs from rotate-then-translate.
        let t = Transform3::translation(Vec3::new(1.0, 0.0, 0.0));
        let r = Transform3::rotation_z(PI);
        let p = Vec3::new(1.0, 0.0, 0.0);
        assert!(approx((r * t).apply(p), Vec3::new(-2.0, 0.0, 0.0)));
        assert!(approx((t * r).apply(p), Vec3::new(0.0, 0.0, 0.0)));
    }

    #[test]
    fn inverse_undoes() {
        let t = Transform3::lidar_to_world(Vec2::new(3.0, -7.0), 1.2, 1.8);
        let p = Vec3::new(4.0, 5.0, 6.0);
        assert!(approx(t.inverse().apply(t.apply(p)), p));
        assert!(approx(t.apply(t.inverse().apply(p)), p));
    }

    #[test]
    fn lidar_to_world_matches_paper_example() {
        // Sensor 1.8 m above a vehicle at (10, 20) heading +y: a point 5 m
        // ahead in the LiDAR frame lands 5 m north in the world.
        let t = Transform3::lidar_to_world(Vec2::new(10.0, 20.0), FRAC_PI_2, 1.8);
        assert!(approx(t.apply(Vec3::new(5.0, 0.0, 0.0)), Vec3::new(10.0, 25.0, 1.8)));
        // Ground points (z = -1.8 in sensor frame) land at world z = 0.
        let g = t.apply(Vec3::new(2.0, 1.0, -1.8));
        assert!(g.z.abs() < 1e-12);
    }

    #[test]
    fn from_pose2_consistent_with_pose_math() {
        let pose = Pose2::new(Vec2::new(-4.0, 9.0), 0.8);
        let t = Transform3::from_pose2(pose, 0.0);
        let local = Vec2::new(2.0, -1.0);
        let via_pose = pose.to_world(local);
        let via_mat = t.apply(Vec3::from_xy(local, 0.0));
        assert!(approx(via_mat, Vec3::from_xy(via_pose, 0.0)));
    }

    #[test]
    fn get_reads_elements() {
        let t = Transform3::translation(Vec3::new(7.0, 8.0, 9.0));
        assert_eq!(t.get(0, 3), 7.0);
        assert_eq!(t.get(1, 3), 8.0);
        assert_eq!(t.get(2, 3), 9.0);
        assert_eq!(t.get(3, 3), 1.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Transform3::identity()).is_empty());
    }
}
