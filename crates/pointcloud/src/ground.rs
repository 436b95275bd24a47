//! Ground-plane removal (paper §II-B, step 1).
//!
//! LiDAR sensors sit at a known height `h` above the road, so ground returns
//! cluster at `z ≈ -h` in the sensor frame. The paper removes every point
//! with `z ≤ -h + ε`, where ε absorbs measurement error.

use crate::PointCloud;
use erpd_geometry::Transform3;

/// Removes ground returns from sensor-frame point clouds.
///
/// # Examples
///
/// ```
/// use erpd_pointcloud::{GroundFilter, PointCloud};
/// use erpd_geometry::Vec3;
///
/// let filter = GroundFilter::new(1.8, 0.1);
/// let cloud = PointCloud::from_points(vec![
///     Vec3::new(5.0, 0.0, -1.8),  // ground return
///     Vec3::new(5.0, 0.0, -0.5),  // car body
/// ]);
/// let kept = filter.apply(&cloud);
/// assert_eq!(kept.len(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundFilter {
    sensor_height: f64,
    epsilon: f64,
}

impl GroundFilter {
    /// Creates a filter for a sensor mounted `sensor_height` metres above the
    /// ground, with tolerance `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is negative or non-finite.
    pub fn new(sensor_height: f64, epsilon: f64) -> Self {
        assert!(
            sensor_height.is_finite() && sensor_height >= 0.0,
            "invalid sensor height"
        );
        assert!(epsilon.is_finite() && epsilon >= 0.0, "invalid epsilon");
        GroundFilter {
            sensor_height,
            epsilon,
        }
    }

    /// The configured sensor height.
    #[inline]
    pub fn sensor_height(&self) -> f64 {
        self.sensor_height
    }

    /// The configured tolerance.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The z threshold below which points are treated as ground.
    #[inline]
    pub fn threshold(&self) -> f64 {
        -self.sensor_height + self.epsilon
    }

    /// Returns a new cloud with ground points removed.
    pub fn apply(&self, cloud: &PointCloud) -> PointCloud {
        let thr = self.threshold();
        cloud.filtered(|p| p.z > thr)
    }

    /// Ground removal and rigid transform fused into one pass — the
    /// vehicle-side hot path's replacement for
    /// `self.apply(cloud).transformed(t)`, bit-identical to it. Appends to
    /// `out` without clearing it, so several sensor sub-clouds can stream
    /// into one reused world-frame scratch with zero steady-state
    /// allocation.
    pub fn apply_transformed_into(&self, cloud: &PointCloud, t: &Transform3, out: &mut PointCloud) {
        cloud.filter_above_transform_into(self.threshold(), t, out);
    }
}

impl Default for GroundFilter {
    /// A roof-mounted sensor at 1.8 m with 0.1 m tolerance.
    fn default() -> Self {
        GroundFilter::new(1.8, 0.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erpd_geometry::Vec3;

    fn cloud_with_ground() -> PointCloud {
        PointCloud::from_points(vec![
            Vec3::new(1.0, 0.0, -1.8),   // exact ground
            Vec3::new(2.0, 0.0, -1.75),  // within epsilon
            Vec3::new(3.0, 0.0, -1.69),  // just above threshold
            Vec3::new(4.0, 0.0, 0.0),    // sensor height
            Vec3::new(5.0, 0.0, -2.0),   // below ground (noise)
        ])
    }

    #[test]
    fn removes_points_at_and_below_threshold() {
        let f = GroundFilter::new(1.8, 0.1);
        let kept = f.apply(&cloud_with_ground());
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|p| p.z > -1.7));
    }

    #[test]
    fn zero_epsilon_keeps_points_above_exact_ground() {
        let f = GroundFilter::new(1.8, 0.0);
        let c = PointCloud::from_points(vec![Vec3::new(0.0, 0.0, -1.8), Vec3::new(0.0, 0.0, -1.79)]);
        assert_eq!(f.apply(&c).len(), 1);
    }

    #[test]
    fn threshold_formula() {
        let f = GroundFilter::new(2.0, 0.25);
        assert!((f.threshold() + 1.75).abs() < 1e-12);
        assert_eq!(f.sensor_height(), 2.0);
        assert_eq!(f.epsilon(), 0.25);
    }

    #[test]
    fn fused_apply_transformed_matches_two_pass() {
        use erpd_geometry::Vec2;
        let f = GroundFilter::new(1.8, 0.1);
        let c = cloud_with_ground();
        let t = Transform3::lidar_to_world(Vec2::new(30.0, -12.0), 1.1, 1.8);
        let expected = f.apply(&c).transformed(&t);
        let mut out = PointCloud::new();
        f.apply_transformed_into(&c, &t, &mut out);
        assert_eq!(out, expected);
        // Appending semantics: a second source cloud extends the scratch.
        f.apply_transformed_into(&c, &t, &mut out);
        assert_eq!(out.len(), 2 * expected.len());
    }

    #[test]
    fn empty_cloud_is_fine() {
        let f = GroundFilter::default();
        assert!(f.apply(&PointCloud::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid sensor height")]
    fn rejects_negative_height() {
        let _ = GroundFilter::new(-1.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "invalid epsilon")]
    fn rejects_negative_epsilon() {
        let _ = GroundFilter::new(1.0, -0.1);
    }
}
