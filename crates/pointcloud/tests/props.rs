//! Property-based tests for point-cloud processing.

use erpd_geometry::{Transform3, Vec2, Vec3};
use erpd_pointcloud::{
    compress, dbscan, decompress, max_quantization_error, DbscanParams, GroundFilter, PointCloud,
    PointCloudMerger,
};
use erpd_rand::proptest::prelude::*;

fn point() -> impl Strategy<Value = Vec3> {
    (-100.0f64..100.0, -100.0f64..100.0, -3.0f64..10.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn cloud(max: usize) -> impl Strategy<Value = PointCloud> {
    proptest::collection::vec(point(), 0..max).prop_map(PointCloud::from_points)
}

proptest! {
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
        let merged = |clouds: &[&PointCloud]| {
            let mut m = PointCloudMerger::new(voxel);
            for c in clouds {
                m.add(c);
            }
            m.output_points()
        };
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
