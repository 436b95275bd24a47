//! Point-cloud merging into the global traffic map (paper §II-C).
//!
//! The edge server receives world-frame clouds from many vehicles and merges
//! them. Overlapping fields of view produce duplicated surfaces, so the
//! merger deduplicates with a voxel grid: one representative point per
//! occupied voxel, which bounds the merged map's size regardless of how many
//! vehicles observe the same object.
//!
//! Two merge shapes are provided:
//!
//! * [`PointCloudMerger`] — a batch merger: feed clouds, [`finish`]
//!   (`PointCloudMerger::finish`) once. Per-upload partials built on
//!   parallel workers are combined with [`absorb`](PointCloudMerger::absorb).
//! * [`IncrementalMerger`] — a persistent cross-frame map: per-vehicle
//!   partial mergers are [`absorb_partial`](IncrementalMerger::absorb_partial)ed
//!   when a vehicle's upload changes and
//!   [`retract_partial`](IncrementalMerger::retract_partial)ed when it is
//!   replaced or the vehicle leaves, so a frame re-merges only the voxel
//!   cells whose contributing uploads changed. Occupied-voxel sets and
//!   per-voxel counts are integer-exact under any grouping, so the map
//!   size equals a full rebuild's bit-for-bit; within-voxel centroids may
//!   differ in the last few bits because float summation is regrouped.
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
pub struct VoxelHasher(u64);

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

    /// Voxel edge length.
    #[inline]
    pub fn voxel_size(&self) -> f64 {
        self.voxel_size
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

    /// Folds another merger (built with the same voxel size) into this one,
    /// as if its input clouds had been [`add`](Self::add)ed here.
    ///
    /// Occupied-voxel sets and counts are exactly those of the equivalent
    /// sequential merge; within-voxel centroids may differ in the last few
    /// bits because floating-point summation is regrouped. Used to combine
    /// per-upload partial merges built on parallel workers.
    ///
    /// # Panics
    ///
    /// Panics if the voxel sizes differ.
    pub fn absorb(&mut self, other: PointCloudMerger) {
        self.absorb_from(&other);
    }

    /// Borrowing variant of [`absorb`](Self::absorb): the partial stays
    /// intact, so a cached per-vehicle partial can be absorbed this frame
    /// and retracted in a later one.
    ///
    /// # Panics
    ///
    /// Panics if the voxel sizes differ.
    pub fn absorb_from(&mut self, other: &PointCloudMerger) {
        assert!(
            self.voxel_size == other.voxel_size,
            "cannot absorb a merger with a different voxel size"
        );
        self.input_points += other.input_points;
        self.rejected_points += other.rejected_points;
        for k in &other.order {
            let (sum, n) = other.voxels[k];
            match self.voxels.get_mut(k) {
                Some((s, m)) => {
                    *s += sum;
                    *m += n;
                }
                None => {
                    self.voxels.insert(*k, (sum, n));
                    self.order.push(*k);
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

/// A persistent voxel map that absorbs and retracts per-vehicle partial
/// merges, so only the cells whose contributing uploads changed are
/// touched each frame (see the module docs for the exactness contract).
#[derive(Debug, Clone)]
pub struct IncrementalMerger {
    voxel_size: f64,
    voxels: VoxelMap,
    input_points: usize,
    rejected_points: usize,
}

impl IncrementalMerger {
    /// Creates an empty incremental map with the given voxel edge length.
    ///
    /// # Panics
    ///
    /// Panics if `voxel_size` is not strictly positive and finite.
    pub fn new(voxel_size: f64) -> Self {
        assert!(
            voxel_size.is_finite() && voxel_size > 0.0,
            "invalid voxel size"
        );
        IncrementalMerger {
            voxel_size,
            voxels: VoxelMap::default(),
            input_points: 0,
            rejected_points: 0,
        }
    }

    /// Voxel edge length.
    #[inline]
    pub fn voxel_size(&self) -> f64 {
        self.voxel_size
    }

    /// Total points currently contributing (rejected ones included, as in
    /// [`PointCloudMerger::input_points`]).
    #[inline]
    pub fn input_points(&self) -> usize {
        self.input_points
    }

    /// Non-finite points rejected across the currently-absorbed partials.
    #[inline]
    pub fn rejected_points(&self) -> usize {
        self.rejected_points
    }

    /// Number of occupied voxels (= merged map size). Bit-identical to a
    /// full rebuild from the same set of partials: occupancy is integer
    /// arithmetic, immune to float regrouping.
    #[inline]
    pub fn output_points(&self) -> usize {
        self.voxels.len()
    }

    /// Occupied voxels and their contributing point counts, sorted by key
    /// (the map itself is unordered). Exact under any absorb/retract
    /// history, which is what the differential suite pins.
    pub fn voxel_counts(&self) -> Vec<(VoxelKey, usize)> {
        let mut counts: Vec<_> = self.voxels.iter().map(|(&k, &(_, n))| (k, n)).collect();
        counts.sort_unstable();
        counts
    }

    /// Adds a per-vehicle partial's cells into the map.
    ///
    /// # Panics
    ///
    /// Panics if the voxel sizes differ.
    pub fn absorb_partial(&mut self, partial: &PointCloudMerger) {
        assert!(
            self.voxel_size == partial.voxel_size,
            "cannot absorb a merger with a different voxel size"
        );
        self.input_points += partial.input_points;
        self.rejected_points += partial.rejected_points;
        for k in &partial.order {
            let (sum, n) = partial.voxels[k];
            match self.voxels.get_mut(k) {
                Some((s, m)) => {
                    *s += sum;
                    *m += n;
                }
                None => {
                    self.voxels.insert(*k, (sum, n));
                }
            }
        }
    }

    /// Removes a previously-absorbed partial's cells from the map. Voxels
    /// whose contribution count drops to zero are deleted, so the occupied
    /// set stays exactly the union of the remaining partials.
    ///
    /// # Panics
    ///
    /// Panics if the voxel sizes differ, or if `partial` was not
    /// previously absorbed (a voxel is missing or its count underflows).
    pub fn retract_partial(&mut self, partial: &PointCloudMerger) {
        assert!(
            self.voxel_size == partial.voxel_size,
            "cannot retract a merger with a different voxel size"
        );
        self.input_points = self
            .input_points
            .checked_sub(partial.input_points)
            .expect("retracted partial was never absorbed");
        self.rejected_points = self
            .rejected_points
            .checked_sub(partial.rejected_points)
            .expect("retracted partial was never absorbed");
        for k in &partial.order {
            let (sum, n) = partial.voxels[k];
            let (s, m) = self
                .voxels
                .get_mut(k)
                .expect("retracted partial was never absorbed");
            assert!(*m >= n, "retracted partial was never absorbed");
            if *m == n {
                self.voxels.remove(k);
            } else {
                *s -= sum;
                *m -= n;
            }
        }
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
    fn absorb_matches_sequential_merge() {
        let a = PointCloud::from_points(vec![
            Vec3::new(0.1, 0.1, 0.1),
            Vec3::new(5.0, 0.0, 0.0),
        ]);
        let b = PointCloud::from_points(vec![
            Vec3::new(0.2, 0.2, 0.2), // shares a's first voxel
            Vec3::new(0.0, 5.0, 0.0),
        ]);
        let mut sequential = PointCloudMerger::new(0.5);
        sequential.add(&a);
        sequential.add(&b);

        let mut left = PointCloudMerger::new(0.5);
        left.add(&a);
        let mut right = PointCloudMerger::new(0.5);
        right.add(&b);
        left.absorb(right);

        assert_eq!(left.input_points(), sequential.input_points());
        assert_eq!(left.output_points(), sequential.output_points());
        let s = sequential.finish();
        let l = left.finish();
        assert_eq!(l.len(), s.len());
        for (x, y) in l.iter().zip(&s) {
            assert!((x - y).norm() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "different voxel size")]
    fn absorb_rejects_mismatched_voxel_size() {
        let mut a = PointCloudMerger::new(0.5);
        a.absorb(PointCloudMerger::new(0.4));
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
    fn absorb_carries_rejection_stats() {
        let mut partial = PointCloudMerger::new(0.5);
        partial.add(&PointCloud::from_points(vec![Vec3::new(
            f64::NAN,
            0.0,
            0.0,
        )]));
        let mut total = PointCloudMerger::new(0.5);
        total.absorb_from(&partial);
        assert_eq!(total.input_points(), 1);
        assert_eq!(total.rejected_points(), 1);
        assert_eq!(total.output_points(), 0);
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

    fn partial(points: &[Vec3]) -> PointCloudMerger {
        let mut m = PointCloudMerger::new(0.5);
        m.add(&PointCloud::from_points(points.to_vec()));
        m
    }

    #[test]
    fn incremental_absorb_retract_matches_rebuild() {
        let a = partial(&[Vec3::new(0.1, 0.1, 0.1), Vec3::new(5.0, 0.0, 0.0)]);
        let b = partial(&[Vec3::new(0.2, 0.2, 0.2), Vec3::new(0.0, 5.0, 0.0)]);
        let b2 = partial(&[Vec3::new(0.2, 0.2, 0.2), Vec3::new(9.0, 9.0, 9.0)]);

        let mut inc = IncrementalMerger::new(0.5);
        inc.absorb_partial(&a);
        inc.absorb_partial(&b);
        // Vehicle B uploads a new frame: retract the old partial, absorb
        // the new one.
        inc.retract_partial(&b);
        inc.absorb_partial(&b2);

        let mut full = PointCloudMerger::new(0.5);
        full.absorb_from(&a);
        full.absorb_from(&b2);
        assert_eq!(inc.output_points(), full.output_points());
        assert_eq!(inc.input_points(), full.input_points());
        let mut rebuild = IncrementalMerger::new(0.5);
        rebuild.absorb_partial(&full);
        assert_eq!(inc.voxel_counts(), rebuild.voxel_counts());
    }

    #[test]
    fn incremental_retract_to_empty() {
        let a = partial(&[Vec3::new(0.1, 0.1, 0.1)]);
        let mut inc = IncrementalMerger::new(0.5);
        inc.absorb_partial(&a);
        inc.retract_partial(&a);
        assert_eq!(inc.output_points(), 0);
        assert_eq!(inc.input_points(), 0);
        assert!(inc.voxel_counts().is_empty());
    }

    #[test]
    #[should_panic(expected = "never absorbed")]
    fn incremental_rejects_unknown_retract() {
        let a = partial(&[Vec3::new(0.1, 0.1, 0.1)]);
        let mut inc = IncrementalMerger::new(0.5);
        inc.retract_partial(&a);
    }
}
