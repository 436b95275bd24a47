//! Point-cloud container and wire-size accounting.
//!
//! Points are stored struct-of-arrays: three contiguous `f64` lanes
//! (`xs`, `ys`, `zs`) instead of a `Vec<Vec3>`. The hot per-point loops
//! (ground filtering, the fused world transform, DBSCAN cell keying,
//! voxel keying) then stream over plain `&[f64]` slices that the
//! compiler can auto-vectorize, and a lane that a pass never touches
//! (e.g. `zs` during planar projection) never enters the cache. Every
//! per-point computation still goes through the same scalar ops on a
//! reassembled [`Vec3`] — `sum`, `min`/`max`, `Transform3::apply` — so
//! results are bit-identical to the former array-of-structs layout (a
//! differential suite against that layout held while it was kept; what
//! pins the results now is the pipeline fingerprints in
//! `tests/stage_graph_determinism.rs`).
//!
//! A cloud may also carry each lane's exact `(min, max, any NaN)` fold,
//! computed by its producer while the lanes were still in cache.
//! [`crate::decompress`] is the only producer that sets it, so the edge's
//! merge (pass 1) and association's extents read a decoded cloud's bounds
//! without walking its points again. The invariant: the carried value is
//! present only as `decompress` left it, and every `&mut` method drops it
//! (`push`, `clear`, `merge_from`, `Extend`, and the ground filter's
//! output), so it always equals a fresh fold of the lanes. Equality
//! compares the lanes only: a decoded cloud equals
//! [`PointCloud::from_points`] of its points.

use erpd_geometry::{Transform3, Vec3};
use std::fmt;

/// Bytes per point on the wire: three `f32` coordinates plus one `f32`
/// intensity, matching common uncompressed LiDAR interchange formats.
pub const POINT_WIRE_BYTES: usize = 16;

/// An unordered collection of LiDAR points.
///
/// The frame (sensor-local vs world) is a convention of the surrounding
/// code: vehicles produce sensor-frame clouds, the edge server transforms
/// them with [`PointCloud::transformed`] before merging.
///
/// # Examples
///
/// ```
/// use erpd_pointcloud::PointCloud;
/// use erpd_geometry::Vec3;
///
/// let cloud: PointCloud = [Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0)]
///     .into_iter()
///     .collect();
/// assert_eq!(cloud.len(), 2);
/// assert_eq!(cloud.wire_size_bytes(), 32);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PointCloud {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    /// `lane_bounds` of each lane, as the producer folded it; `None`
    /// unless `with_folded_bounds` built the cloud and no `&mut` method
    /// has run since.
    carried: Option<[LaneBounds; 3]>,
}

/// `(min, max, any_nan)` of one lane, as `lane_bounds` returns it.
pub(crate) type LaneBounds = (f64, f64, bool);

impl PartialEq for PointCloud {
    /// The points, lane by lane: whether a cloud carries its bounds is
    /// not part of its value.
    fn eq(&self, other: &Self) -> bool {
        self.xs == other.xs && self.ys == other.ys && self.zs == other.zs
    }
}

impl PointCloud {
    /// Creates an empty cloud.
    #[inline]
    pub fn new() -> Self {
        PointCloud {
            xs: Vec::new(),
            ys: Vec::new(),
            zs: Vec::new(),
            carried: None,
        }
    }

    /// Creates an empty cloud with reserved capacity.
    #[inline]
    pub fn with_capacity(capacity: usize) -> Self {
        PointCloud {
            xs: Vec::with_capacity(capacity),
            ys: Vec::with_capacity(capacity),
            zs: Vec::with_capacity(capacity),
            carried: None,
        }
    }

    /// A cloud over three equal-length lanes that carries their bounds,
    /// folded here while the lanes are still in cache.
    ///
    /// # Panics
    ///
    /// Panics if the lanes differ in length.
    pub(crate) fn with_folded_bounds(xs: Vec<f64>, ys: Vec<f64>, zs: Vec<f64>) -> Self {
        assert!(
            xs.len() == ys.len() && ys.len() == zs.len(),
            "lanes of one cloud differ in length"
        );
        let mut cloud = PointCloud {
            xs,
            ys,
            zs,
            carried: None,
        };
        cloud.carried = cloud.lane_bounds();
        cloud
    }

    /// Builds a cloud from a vector of points.
    pub fn from_points(points: Vec<Vec3>) -> Self {
        let mut cloud = PointCloud::with_capacity(points.len());
        for p in points {
            cloud.push(p);
        }
        cloud
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when the cloud holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The `x` coordinate lane.
    #[inline]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The `y` coordinate lane.
    #[inline]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// The `z` coordinate lane.
    #[inline]
    pub fn zs(&self) -> &[f64] {
        &self.zs
    }

    /// Point `i`, reassembled from the lanes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn point(&self, i: usize) -> Vec3 {
        Vec3::new(self.xs[i], self.ys[i], self.zs[i])
    }

    /// Adds a point.
    #[inline]
    pub fn push(&mut self, p: Vec3) {
        self.carried = None;
        self.xs.push(p.x);
        self.ys.push(p.y);
        self.zs.push(p.z);
    }

    /// Removes all points, keeping the allocations for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.carried = None;
        self.xs.clear();
        self.ys.clear();
        self.zs.clear();
    }

    /// Iterates over the points by value.
    #[inline]
    pub fn iter(&self) -> Points<'_> {
        Points {
            xs: self.xs.iter(),
            ys: self.ys.iter(),
            zs: self.zs.iter(),
        }
    }

    /// Size of the cloud when transmitted uncompressed, in bytes.
    #[inline]
    pub fn wire_size_bytes(&self) -> usize {
        self.xs.len() * POINT_WIRE_BYTES
    }

    /// Centroid of the cloud, or `None` when empty.
    ///
    /// Each lane is summed left-to-right from zero, the same additions in
    /// the same order as folding `Vec3 + Vec3` over the points.
    pub fn centroid(&self) -> Option<Vec3> {
        if self.xs.is_empty() {
            return None;
        }
        let n = self.xs.len() as f64;
        let sx: f64 = self.xs.iter().sum();
        let sy: f64 = self.ys.iter().sum();
        let sz: f64 = self.zs.iter().sum();
        Some(Vec3::new(sx / n, sy / n, sz / n))
    }

    /// Axis-aligned bounds `(min, max)`, or `None` when empty.
    ///
    /// Each component equals the left-to-right `f64::min` / `f64::max`
    /// fold over its lane under `==`: NaN entries are skipped, and a
    /// component is NaN only when its whole lane is. Which zero a lane of
    /// `-0.0` and `0.0` yields is unspecified, as for `f64::min`.
    pub fn bounds(&self) -> Option<(Vec3, Vec3)> {
        let [x, y, z] = self.lane_bounds()?;
        Some((Vec3::new(x.0, y.0, z.0), Vec3::new(x.1, y.1, z.1)))
    }

    /// `lane_bounds` of the `x`, `y` and `z` lanes, or `None` when the
    /// cloud is empty: the carried value when there is one, else a fold.
    pub(crate) fn lane_bounds(&self) -> Option<[LaneBounds; 3]> {
        self.carried.or_else(|| {
            Some([
                lane_bounds(&self.xs)?,
                lane_bounds(&self.ys)?,
                lane_bounds(&self.zs)?,
            ])
        })
    }

    /// Returns a copy with every point mapped through the rigid transform —
    /// the per-cloud application of the paper's `T_lw` matrix.
    pub fn transformed(&self, t: &Transform3) -> PointCloud {
        let mut out = PointCloud::with_capacity(self.len());
        for i in 0..self.len() {
            out.push(t.apply(self.point(i)));
        }
        out
    }

    /// Fused `z > min_z` filter + rigid transform, appended to `out` —
    /// the ground-removal hot path, specialized so the filter runs on the
    /// contiguous `z` lane alone (the `x`/`y` lanes are only touched for
    /// survivors) and the lanes are reserved exactly once per call.
    ///
    /// Bit-identical to `out.merge_from(&self.filtered(|p| p.z > min_z)
    /// .transformed(t))`: the same `Transform3::apply` products and sums
    /// run on the same surviving points in the same order.
    pub(crate) fn filter_above_transform_into(&self, min_z: f64, t: &Transform3, out: &mut PointCloud) {
        out.carried = None;
        let survivors = self.zs.iter().filter(|&&z| z > min_z).count();
        out.xs.reserve(survivors);
        out.ys.reserve(survivors);
        out.zs.reserve(survivors);
        for i in 0..self.zs.len() {
            let z = self.zs[i];
            if z > min_z {
                let q = t.apply(Vec3::new(self.xs[i], self.ys[i], z));
                out.xs.push(q.x);
                out.ys.push(q.y);
                out.zs.push(q.z);
            }
        }
    }

    /// Returns a new cloud with the points satisfying the predicate.
    pub fn filtered<F: FnMut(&Vec3) -> bool>(&self, mut f: F) -> PointCloud {
        let mut out = PointCloud::new();
        for i in 0..self.len() {
            let p = self.point(i);
            if f(&p) {
                out.push(p);
            }
        }
        out
    }

    /// Appends all points from another cloud.
    pub fn merge_from(&mut self, other: &PointCloud) {
        self.carried = None;
        self.xs.extend_from_slice(&other.xs);
        self.ys.extend_from_slice(&other.ys);
        self.zs.extend_from_slice(&other.zs);
    }
}

/// Independent accumulators of [`lane_bounds`]: eight short dependency
/// chains instead of one long one, so the fold runs at load speed.
const BOUNDS_LANES: usize = 8;

/// `(min, max, any_nan)` of one coordinate lane, or `None` when it is
/// empty. `min` and `max` equal the sequential `f64::min` / `f64::max`
/// fold under `==` (NaN skipped, NaN only for an all-NaN lane); `any_nan`
/// says whether any entry is NaN.
pub(crate) fn lane_bounds(lane: &[f64]) -> Option<LaneBounds> {
    let &first = lane.first()?;
    let chunks = lane.chunks_exact(BOUNDS_LANES);
    let tail = chunks.remainder();
    let mut min = [first; BOUNDS_LANES];
    let mut max = [first; BOUNDS_LANES];
    let mut nan = [false; BOUNDS_LANES];
    for chunk in chunks {
        for j in 0..BOUNDS_LANES {
            // A plain comparison is one instruction, where `f64::min`
            // also sorts out NaN operands; NaN lanes are refolded below.
            let x = chunk[j];
            min[j] = if x < min[j] { x } else { min[j] };
            max[j] = if x > max[j] { x } else { max[j] };
            nan[j] |= x.is_nan();
        }
    }
    if nan.contains(&true) || tail.iter().any(|x| x.is_nan()) {
        // A NaN first entry would stick in every accumulator.
        let (min, max) = lane
            .iter()
            .fold((first, first), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        return Some((min, max, true));
    }
    let fold = |acc: [f64; BOUNDS_LANES], f: fn(f64, f64) -> f64| {
        acc.into_iter().chain(tail.iter().copied()).fold(first, f)
    };
    Some((fold(min, f64::min), fold(max, f64::max), false))
}

/// By-value iterator over a cloud's points, reassembled from the lanes.
#[derive(Debug, Clone)]
pub struct Points<'a> {
    xs: std::slice::Iter<'a, f64>,
    ys: std::slice::Iter<'a, f64>,
    zs: std::slice::Iter<'a, f64>,
}

impl Iterator for Points<'_> {
    type Item = Vec3;

    #[inline]
    fn next(&mut self) -> Option<Vec3> {
        let x = *self.xs.next()?;
        let y = *self.ys.next()?;
        let z = *self.zs.next()?;
        Some(Vec3::new(x, y, z))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.xs.size_hint()
    }
}

impl ExactSizeIterator for Points<'_> {}

/// Owning by-value iterator over a cloud's points.
#[derive(Debug)]
pub struct IntoPoints {
    xs: std::vec::IntoIter<f64>,
    ys: std::vec::IntoIter<f64>,
    zs: std::vec::IntoIter<f64>,
}

impl Iterator for IntoPoints {
    type Item = Vec3;

    #[inline]
    fn next(&mut self) -> Option<Vec3> {
        let x = self.xs.next()?;
        let y = self.ys.next()?;
        let z = self.zs.next()?;
        Some(Vec3::new(x, y, z))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.xs.size_hint()
    }
}

impl ExactSizeIterator for IntoPoints {}

impl fmt::Display for PointCloud {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PointCloud({} points)", self.xs.len())
    }
}

impl FromIterator<Vec3> for PointCloud {
    fn from_iter<T: IntoIterator<Item = Vec3>>(iter: T) -> Self {
        let mut cloud = PointCloud::new();
        cloud.extend(iter);
        cloud
    }
}

impl Extend<Vec3> for PointCloud {
    fn extend<T: IntoIterator<Item = Vec3>>(&mut self, iter: T) {
        let iter = iter.into_iter();
        let (lower, _) = iter.size_hint();
        self.carried = None;
        self.xs.reserve(lower);
        self.ys.reserve(lower);
        self.zs.reserve(lower);
        for p in iter {
            self.push(p);
        }
    }
}

impl IntoIterator for PointCloud {
    type Item = Vec3;
    type IntoIter = IntoPoints;
    fn into_iter(self) -> Self::IntoIter {
        IntoPoints {
            xs: self.xs.into_iter(),
            ys: self.ys.into_iter(),
            zs: self.zs.into_iter(),
        }
    }
}

impl<'a> IntoIterator for &'a PointCloud {
    type Item = Vec3;
    type IntoIter = Points<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<Vec3>> for PointCloud {
    fn from(points: Vec<Vec3>) -> Self {
        PointCloud::from_points(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erpd_geometry::Vec2;
    use erpd_rand::rngs::StdRng;
    use erpd_rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn empty_cloud() {
        let c = PointCloud::new();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.wire_size_bytes(), 0);
        assert!(c.centroid().is_none());
        assert!(c.bounds().is_none());
    }

    #[test]
    fn push_and_len() {
        let mut c = PointCloud::with_capacity(4);
        c.push(Vec3::new(1.0, 2.0, 3.0));
        c.push(Vec3::ZERO);
        assert_eq!(c.len(), 2);
        assert_eq!(c.wire_size_bytes(), 2 * POINT_WIRE_BYTES);
        assert_eq!(c.point(0), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(c.point(1), Vec3::ZERO);
    }

    #[test]
    fn centroid_and_bounds() {
        let c = PointCloud::from_points(vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(2.0, 4.0, 6.0),
        ]);
        assert_eq!(c.centroid().unwrap(), Vec3::new(1.0, 2.0, 3.0));
        let (min, max) = c.bounds().unwrap();
        assert_eq!(min, Vec3::ZERO);
        assert_eq!(max, Vec3::new(2.0, 4.0, 6.0));
    }

    #[test]
    fn bounds_equal_the_sequential_fold() {
        fn sequential(lane: &[f64]) -> (f64, f64) {
            let fold = |f: fn(f64, f64) -> f64| lane[1..].iter().fold(lane[0], |m, &x| f(m, x));
            (fold(f64::min), fold(f64::max))
        }
        let same = |a: f64, b: f64| a == b || (a.is_nan() && b.is_nan());
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        let mut rng = StdRng::seed_from_u64(8);
        for len in 0..=40 {
            for trial in 0..64 {
                // From no special entry to nothing but specials; the last
                // trials are NaN-heavy, so some lanes are NaN throughout.
                let special_share = f64::from(trial % 4) / 3.0;
                let mut entry = || {
                    if rng.next_unit_f64() < special_share {
                        specials[if trial >= 56 { 0 } else { rng.gen_range(0..5) }]
                    } else {
                        rng.gen_range(-100.0..100.0)
                    }
                };
                let lanes: [Vec<f64>; 3] =
                    std::array::from_fn(|_| (0..len).map(|_| entry()).collect());
                let cloud: PointCloud = (0..len)
                    .map(|i| Vec3::new(lanes[0][i], lanes[1][i], lanes[2][i]))
                    .collect();
                let Some((min, max)) = cloud.bounds() else {
                    assert_eq!(len, 0);
                    continue;
                };
                for (a, lane) in lanes.iter().enumerate() {
                    let (want_min, want_max) = sequential(lane);
                    let (got_min, got_max) = ([min.x, min.y, min.z][a], [max.x, max.y, max.z][a]);
                    assert!(same(got_min, want_min), "min {got_min} of {lane:?}");
                    assert!(same(got_max, want_max), "max {got_max} of {lane:?}");
                    let any_nan = lane_bounds(lane).map(|(_, _, nan)| nan);
                    assert_eq!(any_nan, Some(lane.iter().any(|x| x.is_nan())));
                }
            }
        }
    }

    #[test]
    fn lanes_match_points() {
        let c = PointCloud::from_points(vec![
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(4.0, 5.0, 6.0),
        ]);
        assert_eq!(c.xs(), &[1.0, 4.0]);
        assert_eq!(c.ys(), &[2.0, 5.0]);
        assert_eq!(c.zs(), &[3.0, 6.0]);
    }

    #[test]
    fn transform_moves_points() {
        let c = PointCloud::from_points(vec![Vec3::new(1.0, 0.0, 0.0)]);
        let t = Transform3::lidar_to_world(Vec2::new(10.0, 0.0), 0.0, 2.0);
        let w = c.transformed(&t);
        assert!((w.point(0) - Vec3::new(11.0, 0.0, 2.0)).norm() < 1e-12);
        // Original is untouched.
        assert_eq!(c.point(0), Vec3::new(1.0, 0.0, 0.0));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut c = PointCloud::from_points(vec![Vec3::ZERO; 16]);
        let cap_before = (c.xs.capacity(), c.ys.capacity(), c.zs.capacity());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(
            (c.xs.capacity(), c.ys.capacity(), c.zs.capacity()),
            cap_before
        );
    }

    #[test]
    fn filtering() {
        let c = PointCloud::from_points(vec![
            Vec3::new(0.0, 0.0, -1.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(0.0, 0.0, 2.0),
        ]);
        let above = c.filtered(|p| p.z > 0.0);
        assert_eq!(above.len(), 2);
        let top = c.filtered(|p| p.z > 1.5);
        assert_eq!(top.len(), 1);
        assert_eq!(top.point(0), Vec3::new(0.0, 0.0, 2.0));
    }

    #[test]
    fn collect_extend_merge() {
        let mut c: PointCloud = (0..3).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        c.extend([Vec3::new(9.0, 0.0, 0.0)]);
        let d = PointCloud::from_points(vec![Vec3::ZERO]);
        c.merge_from(&d);
        assert_eq!(c.len(), 5);
        assert_eq!(c.point(4), Vec3::ZERO);
    }

    #[test]
    fn iteration() {
        let c = PointCloud::from_points(vec![Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0)]);
        assert_eq!(c.iter().count(), 2);
        assert_eq!(c.iter().len(), 2);
        assert_eq!((&c).into_iter().count(), 2);
        assert_eq!(c.clone().into_iter().count(), 2);
    }

    #[test]
    fn decoded_clouds_carry_their_bounds_until_a_mut_method_runs() {
        let source: PointCloud = (0..50)
            .map(|i| Vec3::new(f64::from(i) * 0.3, f64::from(i % 7), f64::from(i % 3)))
            .collect();
        let decoded = || crate::decompress(&crate::compress(&source)).unwrap();
        let fold = |c: &PointCloud| PointCloud::from_points(c.iter().collect()).lane_bounds();
        assert!(decoded().carried.is_some());
        assert_eq!(decoded().carried, fold(&decoded()));
        assert_eq!(
            decoded(),
            PointCloud::from_points(decoded().iter().collect())
        );

        // Each `&mut` method, with a point outside the decoded bounds where
        // it takes one.
        let outside = Vec3::new(100.0, -100.0, 50.0);
        let t = Transform3::lidar_to_world(Vec2::new(100.0, 0.0), 0.3, 2.0);
        let mutations: [fn(&mut PointCloud, Vec3, &Transform3); 5] = [
            |c, p, _| c.push(p),
            |c, _, _| c.clear(),
            |c, p, _| c.merge_from(&PointCloud::from_points(vec![p])),
            |c, p, _| c.extend([p]),
            |c, p, t| PointCloud::from_points(vec![p]).filter_above_transform_into(0.0, t, c),
        ];
        for mutate in mutations {
            let mut c = decoded();
            mutate(&mut c, outside, &t);
            assert_eq!(c.carried, None);
            assert_eq!(c.lane_bounds(), fold(&c));
            assert_eq!(
                c.bounds(),
                PointCloud::from_points(c.iter().collect()).bounds()
            );
        }
    }

    #[test]
    fn display_mentions_count() {
        let c = PointCloud::from_points(vec![Vec3::ZERO]);
        assert!(format!("{c}").contains('1'));
    }
}
