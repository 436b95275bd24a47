//! Point-cloud merging into the global traffic map (paper §II-C).
//!
//! The edge server receives world-frame clouds from many vehicles and merges
//! them. Overlapping fields of view produce duplicated surfaces, so the
//! merger deduplicates with a voxel grid: the traffic map is the set of
//! occupied voxels, whose size does not grow with how many vehicles observe
//! the same object.
//!
//! Non-finite coordinates are rejected at this boundary: `f64::NAN as i64`
//! saturates to 0, so a NaN point would otherwise alias into voxel
//! `(0, 0, 0)`. Rejected points are counted, never merged.

use crate::PointCloud;
use erpd_geometry::Vec3;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Voxel grid coordinates.
type VoxelKey = (i64, i64, i64);

/// A fast deterministic hasher for voxel keys (Fx-style multiply-rotate
/// over the three `i64` words). The default SipHash is the dominant cost
/// of voxel merging and its DoS resistance buys nothing here: keys come
/// from decoded sensor data, the table is rebuilt per frame, and only its
/// size is ever read, never its iteration order.
#[derive(Debug, Default, Clone, Copy)]
struct VoxelHasher(u64);

const SEED: u64 = 0x517cc1b727220a95;

impl Hasher for VoxelHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Unused by `(i64, i64, i64)` keys; kept correct for completeness.
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ b as u64).wrapping_mul(SEED);
        }
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.0 = (self.0.rotate_left(5) ^ v as u64).wrapping_mul(SEED);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type VoxelSet = HashSet<VoxelKey, BuildHasherDefault<VoxelHasher>>;

/// Merges world-frame point clouds with voxel-grid deduplication: the
/// merged map is the set of occupied voxels.
///
/// # Examples
///
/// ```
/// use erpd_pointcloud::{PointCloud, PointCloudMerger};
/// use erpd_geometry::Vec3;
///
/// let a = PointCloud::from_points(vec![Vec3::new(0.0, 0.0, 0.0)]);
/// let b = PointCloud::from_points(vec![Vec3::new(0.01, 0.0, 0.0)]); // same voxel
/// let mut merger = PointCloudMerger::new(0.1);
/// merger.add(&a);
/// merger.add(&b);
/// assert_eq!(merger.output_points(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PointCloudMerger {
    voxel_size: f64,
    voxels: VoxelSet,
    rejected_points: usize,
}

impl PointCloudMerger {
    /// Creates a merger with the given voxel edge length in metres.
    ///
    /// # Panics
    ///
    /// Panics if `voxel_size` is not strictly positive and finite.
    pub fn new(voxel_size: f64) -> Self {
        assert!(
            voxel_size.is_finite() && voxel_size > 0.0,
            "invalid voxel size"
        );
        PointCloudMerger {
            voxel_size,
            voxels: VoxelSet::default(),
            rejected_points: 0,
        }
    }

    /// Number of non-finite points rejected at the merge boundary.
    #[inline]
    pub fn rejected_points(&self) -> usize {
        self.rejected_points
    }

    /// Number of occupied voxels so far: the merged map's size.
    #[inline]
    pub fn output_points(&self) -> usize {
        self.voxels.len()
    }

    /// Empties the merger for reuse, keeping allocations.
    pub fn reset(&mut self) {
        self.voxels.clear();
        self.rejected_points = 0;
    }

    fn key(&self, p: Vec3) -> VoxelKey {
        (
            (p.x / self.voxel_size).floor() as i64,
            (p.y / self.voxel_size).floor() as i64,
            (p.z / self.voxel_size).floor() as i64,
        )
    }

    /// Adds a cloud to the merge. Non-finite points are counted and
    /// dropped — never keyed (a NaN coordinate would alias into voxel 0).
    pub fn add(&mut self, cloud: &PointCloud) {
        for p in cloud {
            if !p.is_finite() {
                self.rejected_points += 1;
                continue;
            }
            self.voxels.insert(self.key(p));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merged(clouds: &[PointCloud], voxel_size: f64) -> usize {
        let mut m = PointCloudMerger::new(voxel_size);
        for c in clouds {
            m.add(c);
        }
        m.output_points()
    }

    #[test]
    fn deduplicates_within_voxel() {
        let cloud = PointCloud::from_points(vec![
            Vec3::new(0.1, 0.1, 0.1),
            Vec3::new(0.2, 0.2, 0.2),
            Vec3::new(0.3, 0.1, 0.4),
        ]);
        assert_eq!(merged(&[cloud], 0.5), 1);
    }

    #[test]
    fn preserves_distinct_voxels() {
        let clouds = [
            PointCloud::from_points(vec![Vec3::new(0.0, 0.0, 0.0)]),
            PointCloud::from_points(vec![Vec3::new(5.0, 0.0, 0.0)]),
            PointCloud::from_points(vec![Vec3::new(0.0, 5.0, 0.0)]),
        ];
        assert_eq!(merged(&clouds, 0.5), 3);
    }

    #[test]
    fn overlapping_views_bounded_by_voxels() {
        // Two "vehicles" observe the same car: the merged map is not twice
        // the size.
        let view: PointCloud = (0..100)
            .map(|i| Vec3::new((i % 10) as f64 * 0.4, (i / 10) as f64 * 0.4, 0.5))
            .collect();
        assert!(merged(&[view.clone(), view.clone()], 0.4) <= view.len());
    }

    #[test]
    fn empty_merge() {
        assert_eq!(merged(&[], 1.0), 0);
    }

    #[test]
    fn negative_coordinates() {
        let cloud = PointCloud::from_points(vec![
            Vec3::new(-0.1, -0.1, -0.1),
            Vec3::new(-0.2, -0.2, -0.2),
            Vec3::new(0.1, 0.1, 0.1),
        ]);
        // The two negative points share voxel (-1,-1,-1); the positive one
        // is in voxel (0,0,0).
        assert_eq!(merged(&[cloud], 0.5), 2);
    }

    #[test]
    #[should_panic(expected = "invalid voxel size")]
    fn rejects_bad_voxel_size() {
        let _ = PointCloudMerger::new(0.0);
    }

    #[test]
    fn rejects_non_finite_points() {
        // Regression: `f64::NAN as i64` saturates to 0, so a NaN point
        // used to alias into voxel (0,0,0).
        let mut m = PointCloudMerger::new(0.5);
        m.add(&PointCloud::from_points(vec![
            Vec3::new(f64::NAN, 0.1, 0.1),
            Vec3::new(0.1, f64::INFINITY, 0.1),
            Vec3::new(0.1, 0.1, f64::NEG_INFINITY),
        ]));
        assert_eq!(m.rejected_points(), 3);
        assert_eq!(m.output_points(), 0, "a non-finite point was keyed");
        m.add(&PointCloud::from_points(vec![Vec3::new(0.1, 0.1, 0.1)]));
        assert_eq!(m.output_points(), 1);
    }

    #[test]
    fn reset_keeps_merger_reusable() {
        let mut m = PointCloudMerger::new(0.5);
        m.add(&PointCloud::from_points(vec![
            Vec3::new(0.1, 0.1, 0.1),
            Vec3::new(f64::NAN, 0.0, 0.0),
        ]));
        m.reset();
        assert_eq!(m.output_points(), 0);
        assert_eq!(m.rejected_points(), 0);
        m.add(&PointCloud::from_points(vec![Vec3::new(5.0, 0.0, 0.0)]));
        assert_eq!(m.output_points(), 1);
    }
}
