//! Point-cloud merging into the global traffic map (paper §II-C).
//!
//! The edge server receives world-frame clouds from many vehicles and merges
//! them. Overlapping fields of view produce duplicated surfaces, so the
//! merger deduplicates with a voxel grid: the traffic map is the set of
//! occupied voxels, whose size does not grow with how many vehicles observe
//! the same object.
//!
//! The count is the merger's only output, so it keeps no set. `add` floors
//! each point's coordinates into a voxel key and tracks the keys' bounding
//! box. `output_points` counts the distinct keys: with a dense occupancy
//! bitmap over that box when the box holds at most
//! [`BITMAP_VOXELS_PER_KEY`] voxels per key, else with an exact sort-dedup.
//! Both count the same set of keys, so the count never depends on the path.
//!
//! Non-finite coordinates are rejected at this boundary: `f64::NAN as i64`
//! saturates to 0, so a NaN point would otherwise alias into voxel
//! `(0, 0, 0)`. Rejected points are counted, never merged.

use crate::PointCloud;

/// Largest bounding-box volume per key that is counted with the bitmap.
/// Measured edge frames hold at most 756 voxels per key, except small
/// two-client frames (1 535 at p99, so about 1 % of those sort). Past the
/// cap the bitmap would mostly clear empty words.
const BITMAP_VOXELS_PER_KEY: i128 = 1024;

/// The bitmap kept across frames is at most four times the larger of this
/// (1 MiB) and the current frame's need; past that it shrinks to the
/// need. A box that one frame stretched towards the cap does not stay
/// resident, and frames of similar size never reallocate.
const RETAINED_BITMAP_WORDS: usize = 1 << 17;

/// `q.floor() as i64` without a libm call: the truncation, minus one where
/// it rounded up. Exact for every `q`, saturating at ±2^63 like the cast.
#[inline]
fn floor_key(q: f64) -> i64 {
    let t = q as i64;
    t.saturating_sub(i64::from((t as f64) > q))
}

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
    /// Voxel keys of the accepted points, with repeats.
    keys: Vec<[i64; 3]>,
    /// Per-axis bounds of `keys`.
    lo: [i64; 3],
    hi: [i64; 3],
    /// Occupancy bitmap over the bounding box, kept across frames.
    bits: Vec<u64>,
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
            lo: [i64::MAX; 3],
            hi: [i64::MIN; 3],
            ..Self::default()
        }
    }

    /// Number of non-finite points rejected at the merge boundary.
    #[inline]
    pub fn rejected_points(&self) -> usize {
        self.rejected_points
    }

    /// Number of occupied voxels so far: the merged map's size.
    pub fn output_points(&mut self) -> usize {
        let n = self.keys.len();
        let span = |a: usize| i128::from(self.hi[a]) - i128::from(self.lo[a]) + 1;
        // Each axis may span 2^64 voxels, so the product can overflow.
        let volume = span(0)
            .checked_mul(span(1))
            .and_then(|v| v.checked_mul(span(2)));
        match volume {
            _ if n == 0 => 0,
            Some(v) if v <= BITMAP_VOXELS_PER_KEY * n as i128 => {
                let (sy, sz) = (span(1) as u64, span(2) as u64);
                let words = (v as usize).div_ceil(64);
                self.bits.clear();
                if self.bits.capacity() > 4 * words.max(RETAINED_BITMAP_WORDS) {
                    self.bits.shrink_to(words);
                }
                self.bits.resize(words, 0);
                let mut count = 0;
                for k in &self.keys {
                    // Row-major bit index in the box.
                    let d = |a: usize| k[a].wrapping_sub(self.lo[a]) as u64;
                    let i = ((d(0) * sy + d(1)) * sz + d(2)) as usize;
                    let (word, bit) = (&mut self.bits[i / 64], 1u64 << (i % 64));
                    count += usize::from(*word & bit == 0);
                    *word |= bit;
                }
                count
            }
            _ => {
                self.keys.sort_unstable();
                self.keys.dedup();
                self.keys.len()
            }
        }
    }

    /// Empties the merger for reuse, keeping allocations.
    pub fn reset(&mut self) {
        self.keys.clear();
        self.lo = [i64::MAX; 3];
        self.hi = [i64::MIN; 3];
        self.rejected_points = 0;
    }

    /// Adds a cloud to the merge. Non-finite points are counted and
    /// dropped — never keyed (a NaN coordinate would alias into voxel 0).
    pub fn add(&mut self, cloud: &PointCloud) {
        for p in cloud {
            if !p.is_finite() {
                self.rejected_points += 1;
                continue;
            }
            let k = [p.x, p.y, p.z].map(|c| floor_key(c / self.voxel_size));
            for (a, &key) in k.iter().enumerate() {
                self.lo[a] = self.lo[a].min(key);
                self.hi[a] = self.hi[a].max(key);
            }
            self.keys.push(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erpd_geometry::Vec3;

    fn merged(clouds: &[PointCloud], voxel_size: f64) -> usize {
        let mut m = PointCloudMerger::new(voxel_size);
        for c in clouds {
            m.add(c);
        }
        m.output_points()
    }

    #[test]
    fn floor_key_is_the_floor_cast() {
        let p52 = 2f64.powi(52);
        let p63 = 2f64.powi(63);
        let mut qs = vec![0.0, -0.0, 0.5, -0.5, 1e300, -1e300, f64::MAX, -f64::MAX];
        qs.extend([f64::INFINITY, f64::NEG_INFINITY]);
        for n in [1.0, 2.0, 3.0, 1e6, p52, p63] {
            for q in [n, n.next_down(), n.next_up()] {
                qs.extend([q, -q]);
            }
        }
        for q in [p52 + 0.5, p52 - 0.5, p63 + 4096.0, p63 - 1024.0] {
            qs.extend([q, -q]);
        }
        for q in qs {
            assert_eq!(floor_key(q), q.floor() as i64, "floor of {q:e}");
        }
    }

    #[test]
    fn a_stretched_bitmap_does_not_stay_resident() {
        // 60 000 keys in a box of 1 000 voxels per key: a 7.2 MiB bitmap.
        let n = 60_000;
        let mut m = PointCloudMerger::new(1.0);
        m.add(&PointCloud::from_points(
            (0..n)
                .map(|i| Vec3::new(i as f64, f64::from(i == 0) * 9.0, f64::from(i == 1) * 99.0))
                .collect(),
        ));
        assert_eq!(m.output_points(), n);
        assert!(m.bits.capacity() > 4 * RETAINED_BITMAP_WORDS);
        m.reset();
        m.add(&PointCloud::from_points(vec![Vec3::new(0.5, 0.5, 0.5)]));
        assert_eq!(m.output_points(), 1);
        assert!(m.bits.capacity() <= 4 * RETAINED_BITMAP_WORDS);
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
