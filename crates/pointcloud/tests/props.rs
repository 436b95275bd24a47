//! Property-based tests for point-cloud processing.

use erpd_geometry::{Transform3, Vec2, Vec3};
use erpd_pointcloud::{
    compress, dbscan, decompress, max_quantization_error, DbscanParams, GroundFilter, PointCloud,
    PointCloudMerger,
};
use erpd_rand::proptest::prelude::*;
use std::collections::BTreeSet;

fn point() -> impl Strategy<Value = Vec3> {
    (-100.0f64..100.0, -100.0f64..100.0, -3.0f64..10.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn cloud(max: usize) -> impl Strategy<Value = PointCloud> {
    proptest::collection::vec(point(), 0..max).prop_map(PointCloud::from_points)
}

/// The merged map's size by definition: the distinct floored voxel keys of
/// the finite points, and the number of the other points.
fn voxel_oracle(clouds: &[PointCloud], s: f64) -> (usize, usize) {
    let key = |v: f64| (v / s).floor() as i64;
    let (mut voxels, mut rejected) = (BTreeSet::new(), 0);
    for p in clouds.iter().flat_map(|c| c.iter()) {
        if p.is_finite() {
            voxels.insert((key(p.x), key(p.y), key(p.z)));
        } else {
            rejected += 1;
        }
    }
    (voxels.len(), rejected)
}

/// Counts `clouds` with a merger that first served an unrelated frame
/// (its scratch is warm and dirty) and checks both counts against
/// [`voxel_oracle`], twice.
fn merge_matches_the_oracle(clouds: &[PointCloud], s: f64) -> Result<(), TestCaseError> {
    let mut m = PointCloudMerger::new(s);
    let unrelated: PointCloud = (0..50)
        .map(|i| Vec3::new(i as f64, -(i as f64), 0.5))
        .collect();
    let _ = m.count([
        &unrelated,
        &PointCloud::from_points(vec![Vec3::new(f64::NAN, 0.0, 0.0)]),
    ]);
    let (voxels, rejected) = voxel_oracle(clouds, s);
    for _ in 0..2 {
        prop_assert_eq!(m.count(clouds), voxels);
        prop_assert_eq!(m.rejected_points(), rejected);
    }
    Ok(())
}

/// Cluster centres per axis: kilometres apart, and far enough out that
/// the voxel key saturates at ±2^63 (`f64::MAX / s` is infinite).
const FAR: [f64; 10] = [
    0.0,
    2.5e3,
    -4e3,
    7.5e4,
    1e18,
    -1e18,
    1e300,
    -1e300,
    f64::MAX,
    -f64::MAX,
];

/// One coordinate of the special-value cloud, by `kind`: an exact multiple
/// `k * s`, signed zero, NaN, ±∞, or an ordinary value.
fn special(kind: usize, k: i64, v: f64, s: f64) -> f64 {
    match kind {
        0..=3 => k as f64 * s,
        4 => -0.0,
        5 => 0.0,
        6 => f64::NAN,
        7 => f64::INFINITY,
        8 => f64::NEG_INFINITY,
        _ => v,
    }
}

#[test]
fn merge_counts_a_box_of_about_2_pow_192_voxels() {
    // Each axis spans ~2^64 voxels, so the box volume overflows i128.
    let cloud = PointCloud::from_points(vec![
        Vec3::new(-1e300, -1e300, -1e300),
        Vec3::new(1e300, 1e300, 1e300),
        Vec3::new(-f64::MAX, 0.1, f64::MAX),
        Vec3::new(0.1, 0.1, 0.1),
        Vec3::new(0.2, 0.2, 0.2),
    ]);
    merge_matches_the_oracle(&[cloud], 0.3).unwrap();
}

/// 2^51: the exact floor applies to keys of smaller magnitude.
const P51: f64 = 2_251_799_813_685_248.0;

#[test]
fn merge_count_equals_the_voxel_oracle_on_every_path() {
    let s = 0.3;
    let dense: PointCloud = (0..400)
        .map(|i| {
            let t = f64::from(i);
            Vec3::new(
                (t * 0.37).sin() * 2.0,
                (t * 0.21).cos() * 3.0,
                (t * 0.05) % 1.5,
            )
        })
        .collect();
    let half: PointCloud = dense.iter().step_by(2).collect();
    // Dense and all finite, with an empty cloud between: the exact floor.
    merge_matches_the_oracle(&[dense.clone(), PointCloud::new(), half.clone()], s).unwrap();
    // Dense with one NaN point: the keyed path, the NaN rejected.
    let mut with_nan: Vec<Vec3> = half.iter().collect();
    with_nan[3].y = f64::NAN;
    merge_matches_the_oracle(&[dense.clone(), PointCloud::from(with_nan)], s).unwrap();
    // A coordinate just under, then just over, 2^51 voxels out.
    let (under, over) = ((P51 * s).next_down().next_down(), (P51 * s).next_up());
    assert!(under / s < P51 && over / s >= P51);
    // The far point, then points 0.5 m apart on its side of the limit.
    for (x, step) in [(under, -0.5), (-under, 0.5), (over, 0.5), (-over, -0.5)] {
        let edge: PointCloud = (0..40)
            .map(|i| Vec3::new(x + f64::from(i % 8) * step, f64::from(i) * 0.1, 0.0))
            .collect();
        merge_matches_the_oracle(&[edge], s).unwrap();
    }
    // Only empty clouds.
    merge_matches_the_oracle(&[PointCloud::new(), PointCloud::new()], s).unwrap();
    merge_matches_the_oracle(&[], s).unwrap();
    // Sparse: two clusters a kilometre apart on every axis, so it sorts.
    let far: PointCloud = half.iter().map(|p| p + Vec3::new(1e3, 1e3, 1e3)).collect();
    merge_matches_the_oracle(&[half, far], s).unwrap();
}

proptest! {
    #[test]
    fn merge_count_equals_the_voxel_oracle_on_compact_clouds(
        origin in (-1e4f64..1e4, -1e4f64..1e4, -50.0f64..50.0),
        cells in proptest::collection::vec(
            (0i64..6, 0i64..6, 0i64..4, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            0..300,
        ),
        split in 0usize..300,
        s in 0.05f64..2.0,
    ) {
        // A few voxels per axis: the box is dense (the bitmap path).
        let (ox, oy, oz) = origin;
        let c: PointCloud = cells
            .into_iter()
            .map(|(i, j, k, fx, fy, fz)| {
                Vec3::new(ox + (i as f64 + fx) * s, oy + (j as f64 + fy) * s, oz + (k as f64 + fz) * s)
            })
            .collect();
        let split = split.min(c.len());
        let a: PointCloud = c.iter().take(split).collect();
        let b: PointCloud = c.iter().skip(split).collect();
        // `a` twice: an overlapping view adds no voxel.
        merge_matches_the_oracle(&[a.clone(), b, a], s)?;
    }

    #[test]
    fn merge_count_equals_the_voxel_oracle_on_far_and_saturated_clusters(
        pts in proptest::collection::vec(
            (0usize..10, 0usize..10, 0usize..10, -50.0f64..50.0, -50.0f64..50.0, -5.0f64..5.0),
            0..200,
        ),
        near in 0usize..4,
        s in 0.05f64..2.0,
    ) {
        // Centres drawn from the first 1, 3, 6 or all 10 entries of `FAR`:
        // from one cluster at the origin up to saturated keys on every
        // axis (the sort path).
        let reach = if near == 0 { 1 } else { FAR.len() * near / 3 };
        let c: PointCloud = pts
            .into_iter()
            .map(|(i, j, k, dx, dy, dz)| {
                Vec3::new(FAR[i % reach] + dx, FAR[j % reach] + dy, FAR[k % reach] + dz)
            })
            .collect();
        merge_matches_the_oracle(&[c], s)?;
    }

    #[test]
    fn merge_count_equals_the_voxel_oracle_with_special_values(
        pts in proptest::collection::vec(
            (0usize..12, 0usize..12, 0usize..12, -50i64..50, -20.0f64..20.0),
            0..200,
        ),
        s in 0.05f64..2.0,
    ) {
        // Coordinates on voxel boundaries, signed zeros, NaN and ±∞.
        let c: PointCloud = pts
            .into_iter()
            .map(|(a, b, d, k, v)| {
                Vec3::new(special(a, k, v, s), special(b, -k, v * 0.5, s), special(d, k / 3, -v, s))
            })
            .collect();
        merge_matches_the_oracle(&[c], s)?;
    }

    #[test]
    fn ground_filter_is_idempotent(c in cloud(200), h in 0.5f64..3.0, eps in 0.0f64..0.5) {
        let f = GroundFilter::new(h, eps);
        let once = f.apply(&c);
        let twice = f.apply(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn ground_filter_never_grows(c in cloud(200), h in 0.5f64..3.0) {
        let f = GroundFilter::new(h, 0.1);
        prop_assert!(f.apply(&c).len() <= c.len());
    }

    #[test]
    fn compress_round_trip_error_bounded(c in cloud(300)) {
        let bytes = compress(&c);
        let restored = decompress(&bytes).unwrap();
        prop_assert_eq!(restored.len(), c.len());
        let bound = max_quantization_error(&c) * 2.0 + 1e-9;
        for (a, b) in c.iter().zip(restored.iter()) {
            prop_assert!((a.x - b.x).abs() <= bound);
            prop_assert!((a.y - b.y).abs() <= bound);
            prop_assert!((a.z - b.z).abs() <= bound);
        }
    }

    #[test]
    fn compress_is_smaller_for_nontrivial_clouds(c in cloud(300)) {
        if c.len() >= 8 {
            prop_assert!(compress(&c).len() < c.wire_size_bytes());
        }
    }

    #[test]
    fn merge_output_bounded_by_input(a in cloud(150), b in cloud(150), voxel in 0.05f64..2.0) {
        let merged = |clouds: &[&PointCloud]| PointCloudMerger::new(voxel).count(clouds.iter().copied());
        prop_assert!(merged(&[&a, &b]) <= a.len() + b.len());
        // Merging a cloud with itself yields the single-cloud size.
        prop_assert_eq!(merged(&[&a]), merged(&[&a, &a]));
    }

    #[test]
    fn dbscan_labels_complete_and_consistent(
        pts in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 0..150),
        eps in 0.2f64..5.0,
        minpts in 1usize..6,
    ) {
        let pts: Vec<Vec2> = pts.into_iter().map(|(x, y)| Vec2::new(x, y)).collect();
        let r = dbscan(&pts, DbscanParams::new(eps, minpts));
        prop_assert_eq!(r.labels().len(), pts.len());
        // Labels are dense in 0..n_clusters.
        for l in r.labels().iter().flatten() {
            prop_assert!(*l < r.n_clusters());
        }
        // Clusters partition non-noise points.
        let clustered: usize = r.clusters().iter().map(|c| c.len()).sum();
        prop_assert_eq!(clustered + r.noise().len(), pts.len());
        // Every cluster has at least one point.
        for c in r.clusters() {
            prop_assert!(!c.is_empty());
        }
    }

    #[test]
    fn dbscan_min_points_one_has_no_noise(
        pts in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 0..100),
    ) {
        let pts: Vec<Vec2> = pts.into_iter().map(|(x, y)| Vec2::new(x, y)).collect();
        let r = dbscan(&pts, DbscanParams::new(1.0, 1));
        prop_assert!(r.noise().is_empty());
    }

    #[test]
    fn transform_preserves_cardinality_and_shape(c in cloud(100), x in -50.0f64..50.0, h in -3.0f64..3.0) {
        let t = Transform3::lidar_to_world(Vec2::new(x, 0.0), h, 1.8);
        let w = c.transformed(&t);
        prop_assert_eq!(w.len(), c.len());
        // Pairwise distances preserved (rigid).
        if c.len() >= 2 {
            let d0 = c.point(0).distance(c.point(1));
            let d1 = w.point(0).distance(w.point(1));
            prop_assert!((d0 - d1).abs() < 1e-6 * d0.max(1.0));
        }
    }
}
