//! Property-based tests for the geometry crate.

use erpd_geometry::angle::{angle_dist, normalize_angle};
use erpd_geometry::{
    BivariateGaussian, Interval, Obb2, Polyline2, Pose2, Segment2, Transform3, Vec2, Vec3,
};
use erpd_rand::proptest::prelude::*;
use std::f64::consts::PI;

fn finite() -> impl Strategy<Value = f64> {
    -1e3..1e3
}

fn vec2() -> impl Strategy<Value = Vec2> {
    (finite(), finite()).prop_map(|(x, y)| Vec2::new(x, y))
}

fn vec3() -> impl Strategy<Value = Vec3> {
    (finite(), finite(), finite()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #[test]
    fn vec2_norm_triangle_inequality(a in vec2(), b in vec2()) {
        prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
    }

    #[test]
    fn vec2_rotation_preserves_norm(v in vec2(), theta in -10.0f64..10.0) {
        prop_assert!((v.rotated(theta).norm() - v.norm()).abs() < 1e-6);
    }

    #[test]
    fn vec2_dot_cross_pythagoras(a in vec2(), b in vec2()) {
        // |a|^2 |b|^2 = dot^2 + cross^2
        let lhs = a.norm_squared() * b.norm_squared();
        let rhs = a.dot(b).powi(2) + a.cross(b).powi(2);
        prop_assert!((lhs - rhs).abs() <= 1e-6 * lhs.max(1.0));
    }

    #[test]
    fn normalize_angle_in_range(a in -100.0f64..100.0) {
        let n = normalize_angle(a);
        prop_assert!(n > -PI - 1e-9 && n <= PI + 1e-9);
        // Equivalent direction.
        prop_assert!((n.sin() - a.sin()).abs() < 1e-6);
        prop_assert!((n.cos() - a.cos()).abs() < 1e-6);
    }

    #[test]
    fn angle_dist_symmetric_bounded(a in -20.0f64..20.0, b in -20.0f64..20.0) {
        let d = angle_dist(a, b);
        prop_assert!((d - angle_dist(b, a)).abs() < 1e-9);
        prop_assert!((-1e-9..=PI + 1e-9).contains(&d));
    }

    #[test]
    fn pose_round_trip(px in finite(), py in finite(), h in -10.0f64..10.0, q in vec2()) {
        let pose = Pose2::new(Vec2::new(px, py), h);
        let rt = pose.to_local(pose.to_world(q));
        prop_assert!((rt - q).norm() < 1e-6);
    }

    #[test]
    fn transform_inverse_round_trip(px in finite(), py in finite(), h in -10.0f64..10.0, z in -5.0f64..5.0, p in vec3()) {
        let t = Transform3::lidar_to_world(Vec2::new(px, py), h, z);
        let rt = t.inverse().apply(t.apply(p));
        prop_assert!((rt - p).norm() < 1e-6);
    }

    #[test]
    fn transform_is_rigid(px in finite(), py in finite(), h in -10.0f64..10.0, a in vec3(), b in vec3()) {
        let t = Transform3::lidar_to_world(Vec2::new(px, py), h, 1.8);
        let d_before = a.distance(b);
        let d_after = t.apply(a).distance(t.apply(b));
        prop_assert!((d_before - d_after).abs() < 1e-6 * d_before.max(1.0));
    }

    #[test]
    fn segment_closest_point_is_on_segment(ax in finite(), ay in finite(), bx in finite(), by in finite(), p in vec2()) {
        let s = Segment2::new(Vec2::new(ax, ay), Vec2::new(bx, by));
        let c = s.closest_point(p);
        // The closest point is within the segment's bounding box (inflated).
        let minx = s.a.x.min(s.b.x) - 1e-9;
        let maxx = s.a.x.max(s.b.x) + 1e-9;
        prop_assert!(c.x >= minx && c.x <= maxx);
        // No point on the segment is closer (sampled check).
        for k in 0..=10 {
            let q = s.point_at(k as f64 / 10.0);
            prop_assert!(p.distance(c) <= p.distance(q) + 1e-6);
        }
    }

    #[test]
    fn interval_iou_bounds(a in finite(), la in 0.0f64..100.0, b in finite(), lb in 0.0f64..100.0) {
        let i1 = Interval::new(a, a + la).unwrap();
        let i2 = Interval::new(b, b + lb).unwrap();
        let iou = i1.iou(&i2);
        prop_assert!((0.0..=1.0).contains(&iou));
        prop_assert!((i1.iou(&i2) - i2.iou(&i1)).abs() < 1e-12);
    }

    #[test]
    fn interval_union_ge_parts(a in finite(), la in 0.0f64..100.0, b in finite(), lb in 0.0f64..100.0) {
        let i1 = Interval::new(a, a + la).unwrap();
        let i2 = Interval::new(b, b + lb).unwrap();
        let u = i1.union_length(&i2);
        prop_assert!(u >= i1.length() - 1e-9);
        prop_assert!(u >= i2.length() - 1e-9);
        prop_assert!(u <= i1.length() + i2.length() + 1e-9);
    }

    #[test]
    fn obb_contains_center_and_corners(p in vec2(), h in -4.0f64..4.0, l in 0.1f64..20.0, w in 0.1f64..5.0) {
        let b = Obb2::new(Pose2::new(p, h), l, w);
        prop_assert!(b.contains(p));
        for c in b.corners() {
            prop_assert!(b.contains(c));
        }
    }

    #[test]
    fn obb_intersects_is_symmetric(p in vec2(), q in vec2(), h1 in -4.0f64..4.0, h2 in -4.0f64..4.0) {
        let a = Obb2::new(Pose2::new(p, h1), 4.5, 1.8);
        let b = Obb2::new(Pose2::new(q, h2), 4.5, 1.8);
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn polyline_point_at_endpoint_behavior(pts in proptest::collection::vec(vec2(), 2..8)) {
        if let Some(p) = Polyline2::new(pts.clone()) {
            prop_assert!((p.point_at(0.0) - pts[0]).norm() < 1e-9);
            prop_assert!((p.point_at(p.length()) - *pts.last().unwrap()).norm() < 1e-6);
            prop_assert!(p.length() >= 0.0);
        }
    }

    #[test]
    fn gaussian_pdf_nonnegative(mx in finite(), my in finite(), sx in 0.01f64..10.0, sy in 0.01f64..10.0,
                                rho in -0.99f64..0.99, p in vec2()) {
        let g = BivariateGaussian::new(Vec2::new(mx, my), sx, sy, rho).unwrap();
        prop_assert!(g.pdf(p) >= 0.0);
        prop_assert!(g.mahalanobis_squared(p) >= -1e-9);
    }
}
