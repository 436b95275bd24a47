//! Point-cloud merging into the global traffic map (paper §II-C).
//!
//! The edge server receives world-frame clouds from many vehicles and merges
//! them. Overlapping fields of view produce duplicated surfaces, so the
//! merger deduplicates with a voxel grid: the traffic map is the set of
//! occupied voxels, whose size does not grow with how many vehicles observe
//! the same object.
//!
//! The count is the merger's only output, so it keeps no set.
//! [`PointCloudMerger::count`] takes a whole frame's clouds and makes two
//! passes over them:
//!
//! 1. Per cloud and per lane, the `(min, max, any NaN)` fold: read from
//!    the cloud when it carries one (a decoded cloud does, and the value
//!    equals a fresh fold; see `cloud.rs`), folded otherwise.
//!    Dividing by a positive voxel size and flooring never decrease, so
//!    the floored keys of each lane's extremes bound every key of the
//!    cloud: the frame's key box comes out exact without keying a point.
//! 2. If every point is finite, the box lies within 2^51 voxels of the
//!    origin and it holds at most [`BITMAP_VOXELS_PER_KEY`] voxels per
//!    point, each point is keyed with an exact branch-free floor, lane by
//!    lane into a row-major bit index, and set straight into a dense
//!    occupancy bitmap over the box.
//!
//! Any other frame takes the keyed path: each finite point's key is
//! stored, then counted with the bitmap when the box is dense enough and
//! with an exact sort-dedup otherwise. Every path counts the same set of
//! keys, so the count never depends on the path.
//!
//! Non-finite coordinates are rejected at this boundary: `f64::NAN as i64`
//! saturates to 0, so a NaN point would otherwise alias into voxel
//! `(0, 0, 0)`. Rejected points are counted, never merged.

use crate::PointCloud;

/// Largest bounding-box volume per point that is counted with the bitmap
/// (at most 128 bytes of bitmap per point). Measured edge frames hold at
/// most 756 voxels per point, except small two-client frames (1 535 at
/// p99, so about 1 % of those sort). Past the cap the bitmap would mostly
/// clear empty words.
const BITMAP_VOXELS_PER_KEY: i128 = 1024;

/// The bitmap kept across frames is at most four times the larger of this
/// (1 MiB) and the current frame's need; past that it shrinks to the
/// need. A box that one frame stretched towards the cap does not stay
/// resident, and frames of similar size never reallocate.
const RETAINED_BITMAP_WORDS: usize = 1 << 17;

/// Bound on `|q|` below which [`floor_exact`] is exact: 2^51.
const EXACT_FLOOR_LIMIT: f64 = 2_251_799_813_685_248.0;

/// `1.5 · 2^52`: for `|q| < 2^51`, `q + ROUND` lies in `[2^52, 2^53]`,
/// where neighbouring doubles are exactly 1 apart.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// `q.floor() as i64` without a libm call: the truncation, minus one where
/// it rounded up. Exact for every `q`, saturating at ±2^63 like the cast.
#[inline]
fn floor_key(q: f64) -> i64 {
    let t = q as i64;
    t.saturating_sub(i64::from((t as f64) > q))
}

/// `q.floor() as i64` for `|q| < 2^51`, branch-free and without the
/// saturating cast. `y = q + ROUND` rounds `q` to the nearest integer `r`,
/// which is `y`'s bit pattern less `ROUND`'s (the doubles in `y`'s range
/// are consecutive integers); `y - ROUND` is `r` exactly, and the floor is
/// one less where `r > q`.
#[inline]
fn floor_exact(q: f64) -> i64 {
    let y = q + ROUND;
    (y.to_bits() as i64 - ROUND.to_bits() as i64) - i64::from(y - ROUND > q)
}

/// An axis-aligned box of voxel keys, `lo ..= hi` on each axis.
struct KeyBox {
    lo: [i64; 3],
    hi: [i64; 3],
}

impl KeyBox {
    /// The box around no key.
    const EMPTY: KeyBox = KeyBox {
        lo: [i64::MAX; 3],
        hi: [i64::MIN; 3],
    };

    /// Grows the box to cover `lo ..= hi`.
    fn extend(&mut self, lo: [i64; 3], hi: [i64; 3]) {
        for a in 0..3 {
            self.lo[a] = self.lo[a].min(lo[a]);
            self.hi[a] = self.hi[a].max(hi[a]);
        }
    }

    /// The row-major stride of each axis and the volume, when the box
    /// holds `keys > 0` keys and at most [`BITMAP_VOXELS_PER_KEY`] voxels
    /// per key; `None` when the keys are better sorted.
    fn bitmap(&self, keys: usize) -> Option<([u64; 3], usize)> {
        if keys == 0 {
            return None;
        }
        let span = |a: usize| i128::from(self.hi[a]) - i128::from(self.lo[a]) + 1;
        // Each axis may span 2^64 voxels, so the product can overflow.
        let volume = span(0).checked_mul(span(1))?.checked_mul(span(2))?;
        (volume <= BITMAP_VOXELS_PER_KEY * keys as i128).then(|| {
            let (sy, sz) = (span(1) as u64, span(2) as u64);
            ([sy * sz, sz, 1], volume as usize)
        })
    }
}

/// How pass 2 keys a frame on the exact-floor path.
struct ExactPlan {
    /// The low corner of the frame's key box.
    lo: [i64; 3],
    /// Row-major stride of each axis in the box.
    stride: [u64; 3],
    /// Voxels in the box.
    volume: usize,
    /// Points in the largest cloud.
    largest: usize,
}

/// Pass 1 over a frame, from each cloud's carried or folded lane bounds:
/// its exact-floor plan, or `None` when the keyed path must count it —
/// some coordinate is NaN, ±∞ or at least 2^51 voxels out, where
/// [`floor_exact`] does not apply, or the box is too sparse for the
/// bitmap, or there is no point.
fn exact_plan<'a>(
    clouds: impl Iterator<Item = &'a PointCloud>,
    voxel_size: f64,
) -> Option<ExactPlan> {
    let (mut keys, mut points, mut largest) = (KeyBox::EMPTY, 0, 0);
    for cloud in clouds.filter(|c| !c.is_empty()) {
        let (mut lo, mut hi) = ([0; 3], [0; 3]);
        for (a, (min, max, any_nan)) in cloud.lane_bounds()?.into_iter().enumerate() {
            let (q_min, q_max) = (min / voxel_size, max / voxel_size);
            if any_nan || !(q_min.abs() < EXACT_FLOOR_LIMIT && q_max.abs() < EXACT_FLOOR_LIMIT) {
                return None;
            }
            (lo[a], hi[a]) = (floor_key(q_min), floor_key(q_max));
        }
        keys.extend(lo, hi);
        points += cloud.len();
        largest = largest.max(cloud.len());
    }
    let (stride, volume) = keys.bitmap(points)?;
    Some(ExactPlan {
        lo: keys.lo,
        stride,
        volume,
        largest,
    })
}

/// Sizes `bits` to `volume` zeroed bits. A bitmap stretched past four
/// times the larger of [`RETAINED_BITMAP_WORDS`] and the need shrinks
/// first.
fn clear_bits(bits: &mut Vec<u64>, volume: usize) -> &mut [u64] {
    let words = volume.div_ceil(64);
    bits.clear();
    if bits.capacity() > 4 * words.max(RETAINED_BITMAP_WORDS) {
        bits.shrink_to(words);
    }
    bits.resize(words, 0);
    bits
}

/// Sets each bit of `indices`, returning how many were not set before.
#[inline]
fn set_bits(bits: &mut [u64], indices: impl IntoIterator<Item = u64>) -> usize {
    let mut count = 0;
    for i in indices {
        let (word, bit) = (&mut bits[(i / 64) as usize], 1u64 << (i % 64));
        count += usize::from(*word & bit == 0);
        *word |= bit;
    }
    count
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
/// assert_eq!(merger.count([&a, &b]), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PointCloudMerger {
    voxel_size: f64,
    /// One cloud's row-major bit indices (the exact-floor path), sized
    /// to the largest cloud and kept across frames.
    index: Vec<u64>,
    /// Voxel keys of the accepted points, with repeats (the keyed path),
    /// kept across frames.
    keys: Vec<[i64; 3]>,
    /// Occupancy bitmap over the key box, kept across frames.
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
            ..Self::default()
        }
    }

    /// Number of non-finite points the last [`count`](Self::count)
    /// rejected at the merge boundary.
    #[inline]
    pub fn rejected_points(&self) -> usize {
        self.rejected_points
    }

    /// Number of voxels occupied by the finite points of `clouds`: the
    /// merged map's size. Nothing of an earlier call is kept but
    /// allocations, so a warm call of a similar frame allocates nothing.
    /// Non-finite points are counted in
    /// [`rejected_points`](Self::rejected_points) and dropped — never
    /// keyed (a NaN coordinate would alias into voxel 0).
    pub fn count<'a, I>(&mut self, clouds: I) -> usize
    where
        I: IntoIterator<Item = &'a PointCloud>,
        I::IntoIter: Clone,
    {
        let clouds = clouds.into_iter();
        self.rejected_points = 0;
        match exact_plan(clouds.clone(), self.voxel_size) {
            Some(plan) => self.count_exact(clouds, &plan),
            None => self.count_keyed(clouds),
        }
    }

    /// Pass 2 of the exact-floor path: each cloud's bit indices, lane by
    /// lane into the scratch, then into the bitmap.
    fn count_exact<'a>(
        &mut self,
        clouds: impl Iterator<Item = &'a PointCloud>,
        plan: &ExactPlan,
    ) -> usize {
        let bits = clear_bits(&mut self.bits, plan.volume);
        self.index.resize(plan.largest, 0);
        let (v, lo, stride) = (self.voxel_size, plan.lo, plan.stride);
        // The division stays a division: a reciprocal multiply would move
        // voxel boundaries.
        let offset = |c: f64, a: usize| (floor_exact(c / v) - lo[a]) as u64 * stride[a];
        let mut count = 0;
        for cloud in clouds {
            let index = &mut self.index[..cloud.len()];
            for (i, &x) in index.iter_mut().zip(cloud.xs()) {
                *i = offset(x, 0);
            }
            for (i, &y) in index.iter_mut().zip(cloud.ys()) {
                *i += offset(y, 1);
            }
            for (i, &z) in index.iter_mut().zip(cloud.zs()) {
                *i += offset(z, 2);
            }
            count += set_bits(bits, index.iter().copied());
        }
        count
    }

    /// The keyed path, exact for every input: stores each finite point's
    /// [`floor_key`] key, then counts the distinct keys with the bitmap or
    /// by sort-dedup.
    fn count_keyed<'a>(&mut self, clouds: impl Iterator<Item = &'a PointCloud>) -> usize {
        self.keys.clear();
        let mut keys = KeyBox::EMPTY;
        for p in clouds.flatten() {
            if !p.is_finite() {
                self.rejected_points += 1;
                continue;
            }
            let k = [p.x, p.y, p.z].map(|c| floor_key(c / self.voxel_size));
            keys.extend(k, k);
            self.keys.push(k);
        }
        match keys.bitmap(self.keys.len()) {
            Some((stride, volume)) => {
                let bits = clear_bits(&mut self.bits, volume);
                let offset =
                    |k: &[i64; 3], a: usize| k[a].wrapping_sub(keys.lo[a]) as u64 * stride[a];
                set_bits(
                    bits,
                    self.keys
                        .iter()
                        .map(|k| offset(k, 0) + offset(k, 1) + offset(k, 2)),
                )
            }
            None => {
                self.keys.sort_unstable();
                self.keys.dedup();
                self.keys.len()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erpd_geometry::Vec3;
    use erpd_rand::rngs::StdRng;
    use erpd_rand::{Rng, RngCore, SeedableRng};

    fn merged(clouds: &[PointCloud], voxel_size: f64) -> usize {
        PointCloudMerger::new(voxel_size).count(clouds)
    }

    /// Whether `count` takes the exact-floor path on this frame.
    fn takes_exact_path(clouds: &[PointCloud], voxel_size: f64) -> bool {
        exact_plan(clouds.iter(), voxel_size).is_some()
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
    fn floor_exact_is_the_floor_cast_below_2_pow_51() {
        let p51 = EXACT_FLOOR_LIMIT;
        assert_eq!(p51, 2f64.powi(51));
        assert_eq!(ROUND, 1.5 * 2f64.powi(52));
        let mut qs = vec![0.0, 0.5, 0.25, 0.75, 1.5, 2.5];
        qs.extend([f64::MIN_POSITIVE, f64::MIN_POSITIVE.next_down(), 5e-324]);
        qs.extend([p51 - 0.5, p51 - 1.0, p51.next_down(), 0.5f64.next_up()]);
        qs.extend([0.5f64.next_down(), (p51 / 2.0).next_up()]);
        for n in [1.0, 2.0, 3.0, 7.0, 1e6, 4_503_599_627.0, p51 - 1.0] {
            qs.extend([n, n.next_down(), n.next_up(), n + 0.5, n - 0.5]);
        }
        // Random magnitudes over every binade below 2^51, subnormals
        // included, and random values of metre-scale keys.
        let mut rng = StdRng::seed_from_u64(51);
        while qs.len() < 20_000 {
            // Exponent field 0 ..= 1023 + 50: subnormals up to [2^50, 2^51).
            let exponent = rng.gen_range(0..1023 + 51u64);
            qs.push(f64::from_bits((exponent << 52) | (rng.next_u64() >> 12)));
            qs.push(rng.gen_range(-1e5..1e5));
        }
        for q in qs {
            assert!(q.abs() < p51, "{q:e} is out of range");
            for q in [q, -q] {
                assert_eq!(floor_exact(q), q.floor() as i64, "floor of {q:e}");
            }
        }
    }

    #[test]
    fn each_frame_takes_the_path_its_input_selects() {
        let v = 0.3;
        let dense = PointCloud::from_points(
            (0..200)
                .map(|i| Vec3::new(f64::from(i % 10) * 0.1, f64::from(i / 10) * 0.1, 0.5))
                .collect(),
        );
        assert!(takes_exact_path(&[dense.clone(), PointCloud::new()], v));
        let mut with_nan = dense.clone();
        with_nan.push(Vec3::new(0.1, f64::NAN, 0.1));
        assert!(!takes_exact_path(&[dense.clone(), with_nan], v));
        let edge = |x: f64| {
            let mut c = PointCloud::from_points(vec![Vec3::new(x, 0.0, 0.0); 8]);
            c.push(Vec3::new(x.next_down(), 0.0, 0.0));
            c
        };
        // Just under, and at, 2^51 voxels out.
        let under = (EXACT_FLOOR_LIMIT * v).next_down().next_down();
        assert!((under / v) < EXACT_FLOOR_LIMIT);
        assert!(takes_exact_path(&[edge(under)], v));
        assert!(takes_exact_path(&[edge(-under)], v));
        let over = (EXACT_FLOOR_LIMIT * v).next_up();
        assert!((over / v) >= EXACT_FLOOR_LIMIT);
        assert!(!takes_exact_path(&[edge(over)], v));
        assert!(!takes_exact_path(&[edge(-over)], v));
        // Two points 100 m apart on every axis: far too sparse.
        let sparse = PointCloud::from_points(vec![Vec3::ZERO, Vec3::new(100.0, 100.0, 100.0)]);
        assert!(!takes_exact_path(&[sparse], v));
        // No point at all: nothing to count on either path.
        assert!(!takes_exact_path(
            &[PointCloud::new(), PointCloud::new()],
            v
        ));
        assert_eq!(merged(&[PointCloud::new(), PointCloud::new()], v), 0);
    }

    #[test]
    fn a_stretched_bitmap_does_not_stay_resident() {
        // 60 000 keys in a box of 1 000 voxels per key: a 7.2 MiB bitmap.
        let n = 60_000;
        let mut m = PointCloudMerger::new(1.0);
        let stretched = PointCloud::from_points(
            (0..n)
                .map(|i| Vec3::new(i as f64, f64::from(i == 0) * 9.0, f64::from(i == 1) * 99.0))
                .collect(),
        );
        assert_eq!(m.count([&stretched]), n);
        assert!(m.bits.capacity() > 4 * RETAINED_BITMAP_WORDS);
        assert_eq!(
            m.count([&PointCloud::from_points(vec![Vec3::new(0.5, 0.5, 0.5)])]),
            1
        );
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
        let non_finite = PointCloud::from_points(vec![
            Vec3::new(f64::NAN, 0.1, 0.1),
            Vec3::new(0.1, f64::INFINITY, 0.1),
            Vec3::new(0.1, 0.1, f64::NEG_INFINITY),
        ]);
        assert_eq!(m.count([&non_finite]), 0, "a non-finite point was keyed");
        assert_eq!(m.rejected_points(), 3);
        let finite = PointCloud::from_points(vec![Vec3::new(0.1, 0.1, 0.1)]);
        assert_eq!(m.count([&non_finite, &finite]), 1);
        assert_eq!(m.rejected_points(), 3);
    }

    #[test]
    fn each_count_starts_afresh() {
        let mut m = PointCloudMerger::new(0.5);
        let first = PointCloud::from_points(vec![
            Vec3::new(0.1, 0.1, 0.1),
            Vec3::new(f64::NAN, 0.0, 0.0),
        ]);
        assert_eq!(m.count([&first]), 1);
        assert_eq!(m.count(&[] as &[PointCloud]), 0);
        assert_eq!(m.rejected_points(), 0);
        let second = PointCloud::from_points(vec![Vec3::new(5.0, 0.0, 0.0)]);
        assert_eq!(m.count([&second]), 1);
    }
}
