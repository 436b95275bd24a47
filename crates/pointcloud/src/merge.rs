//! Point-cloud merging into the global traffic map (paper §II-C).
//!
//! The edge server receives world-frame clouds from many vehicles and merges
//! them. Overlapping fields of view produce duplicated surfaces, so the
//! merger deduplicates with a voxel grid: one representative point per
//! occupied voxel, which bounds the merged map's size regardless of how many
//! vehicles observe the same object.
//!
//! Non-finite coordinates are rejected at this boundary: `f64::NAN as i64`
//! saturates to 0, so a NaN point would otherwise alias into voxel
//! `(0, 0, 0)` and poison its centroid. Rejected points are counted, never
//! merged.

use crate::PointCloud;
use erpd_geometry::Vec3;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Voxel grid coordinates.
type VoxelKey = (i64, i64, i64);

/// A fast deterministic hasher for voxel keys (Fx-style multiply-rotate
/// over the three `i64` words). The default SipHash is the dominant cost
/// of voxel merging and its DoS resistance buys nothing here: keys come
/// from decoded sensor data, the table is rebuilt per frame, and no code
/// path observes iteration order (first-seen `order` lists drive every
/// deterministic output).
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

type VoxelMap = HashMap<VoxelKey, (Vec3, usize), BuildHasherDefault<VoxelHasher>>;

/// Merges world-frame point clouds with voxel-grid deduplication.
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
/// assert_eq!(merger.finish().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PointCloudMerger {
    voxel_size: f64,
    voxels: VoxelMap,
    order: Vec<VoxelKey>,
    input_points: usize,
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
            voxels: VoxelMap::default(),
            order: Vec::new(),
            input_points: 0,
            rejected_points: 0,
        }
    }

    /// Total number of points fed in so far (including rejected ones).
    #[inline]
    pub fn input_points(&self) -> usize {
        self.input_points
    }

    /// Number of non-finite points rejected at the merge boundary.
    #[inline]
    pub fn rejected_points(&self) -> usize {
        self.rejected_points
    }

    /// Number of occupied voxels so far (= output size).
    #[inline]
    pub fn output_points(&self) -> usize {
        self.voxels.len()
    }

    /// Empties the merger for reuse, keeping allocations.
    pub fn reset(&mut self) {
        self.voxels.clear();
        self.order.clear();
        self.input_points = 0;
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
        self.input_points += cloud.len();
        for p in cloud {
            if !p.is_finite() {
                self.rejected_points += 1;
                continue;
            }
            let k = self.key(p);
            match self.voxels.get_mut(&k) {
                Some((sum, n)) => {
                    *sum += p;
                    *n += 1;
                }
                None => {
                    self.voxels.insert(k, (p, 1));
                    self.order.push(k);
                }
            }
        }
    }

    /// Finishes the merge, producing one centroid point per occupied voxel
    /// in first-seen order (deterministic output).
    pub fn finish(self) -> PointCloud {
        let mut out = PointCloud::with_capacity(self.order.len());
        for k in &self.order {
            let (sum, n) = self.voxels[k];
            out.push(sum / n as f64);
        }
        out
    }
}

/// Convenience: merges several clouds in one call.
pub fn merge_clouds<'a, I>(clouds: I, voxel_size: f64) -> PointCloud
where
    I: IntoIterator<Item = &'a PointCloud>,
{
    let mut m = PointCloudMerger::new(voxel_size);
    for c in clouds {
        m.add(c);
    }
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deduplicates_within_voxel() {
        let mut m = PointCloudMerger::new(0.5);
        m.add(&PointCloud::from_points(vec![
            Vec3::new(0.1, 0.1, 0.1),
            Vec3::new(0.2, 0.2, 0.2),
            Vec3::new(0.3, 0.1, 0.4),
        ]));
        assert_eq!(m.input_points(), 3);
        assert_eq!(m.output_points(), 1);
        let out = m.finish();
        assert_eq!(out.len(), 1);
        // Output is the centroid of the contributors.
        assert!((out.point(0) - Vec3::new(0.2, 4.0 / 30.0, 7.0 / 30.0)).norm() < 1e-9);
    }

    #[test]
    fn preserves_distinct_voxels() {
        let out = merge_clouds(
            [
                &PointCloud::from_points(vec![Vec3::new(0.0, 0.0, 0.0)]),
                &PointCloud::from_points(vec![Vec3::new(5.0, 0.0, 0.0)]),
                &PointCloud::from_points(vec![Vec3::new(0.0, 5.0, 0.0)]),
            ],
            0.5,
        );
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn overlapping_views_bounded_by_voxels() {
        // Two "vehicles" observe the same car: the merged map is not twice
        // the size.
        let view: PointCloud = (0..100)
            .map(|i| Vec3::new((i % 10) as f64 * 0.4, (i / 10) as f64 * 0.4, 0.5))
            .collect();
        let merged = merge_clouds([&view, &view], 0.4);
        assert!(merged.len() <= view.len());
    }

    #[test]
    fn deterministic_order() {
        let a = PointCloud::from_points(vec![Vec3::new(3.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 0.0)]);
        let m1 = merge_clouds([&a], 0.5);
        let m2 = merge_clouds([&a], 0.5);
        assert_eq!(m1, m2);
        // First-seen order is preserved.
        assert_eq!(m1.point(0).x, 3.0);
    }

    #[test]
    fn empty_merge() {
        let out = merge_clouds(std::iter::empty(), 1.0);
        assert!(out.is_empty());
    }

    #[test]
    fn negative_coordinates() {
        let out = merge_clouds(
            [&PointCloud::from_points(vec![
                Vec3::new(-0.1, -0.1, -0.1),
                Vec3::new(-0.2, -0.2, -0.2),
                Vec3::new(0.1, 0.1, 0.1),
            ])],
            0.5,
        );
        // The two negative points share voxel (-1,-1,-1); the positive one
        // is in voxel (0,0,0).
        assert_eq!(out.len(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid voxel size")]
    fn rejects_bad_voxel_size() {
        let _ = PointCloudMerger::new(0.0);
    }

    #[test]
    fn rejects_non_finite_points() {
        // Regression: `f64::NAN as i64` saturates to 0, so a NaN point
        // used to alias into voxel (0,0,0) and poison its centroid.
        let mut m = PointCloudMerger::new(0.5);
        m.add(&PointCloud::from_points(vec![
            Vec3::new(0.1, 0.1, 0.1),
            Vec3::new(f64::NAN, 0.1, 0.1),
            Vec3::new(0.1, f64::INFINITY, 0.1),
            Vec3::new(0.1, 0.1, f64::NEG_INFINITY),
        ]));
        assert_eq!(m.input_points(), 4);
        assert_eq!(m.rejected_points(), 3);
        assert_eq!(m.output_points(), 1);
        let out = m.finish();
        assert_eq!(out.len(), 1);
        assert!(out.point(0).is_finite(), "NaN leaked into the voxel map");
        assert!((out.point(0) - Vec3::new(0.1, 0.1, 0.1)).norm() < 1e-12);
    }

    #[test]
    fn reset_keeps_merger_reusable() {
        let mut m = PointCloudMerger::new(0.5);
        m.add(&PointCloud::from_points(vec![Vec3::new(0.1, 0.1, 0.1)]));
        m.reset();
        assert_eq!(m.input_points(), 0);
        assert_eq!(m.output_points(), 0);
        m.add(&PointCloud::from_points(vec![Vec3::new(5.0, 0.0, 0.0)]));
        assert_eq!(m.output_points(), 1);
        assert_eq!(m.finish().point(0), Vec3::new(5.0, 0.0, 0.0));
    }
}
