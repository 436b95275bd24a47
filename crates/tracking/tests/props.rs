//! Property-based tests for tracking, prediction, and crowd clustering.

use erpd_geometry::stats::location_std;
use erpd_geometry::Vec2;
use erpd_tracking::{
    cluster_crowds, predict_ctrv, Detection, ObjectId, ObjectKind, Pedestrian, Tracker,
    CROWD_BETA, CROWD_GAMMA_DEG, HORIZON,
};
use erpd_rand::proptest::prelude::*;
use std::f64::consts::PI;

fn ped_strategy() -> impl Strategy<Value = Pedestrian> {
    (
        0u64..1000,
        -30.0f64..30.0,
        -30.0f64..30.0,
        -PI..PI,
        0.5f64..2.0,
    )
        .prop_map(|(id, x, y, o, v)| Pedestrian {
            id: ObjectId(id),
            position: Vec2::new(x, y),
            orientation: o,
            speed: v,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crowd clustering postconditions hold on arbitrary pedestrian sets:
    /// exact partition, representative membership, and both deviation
    /// constraints.
    #[test]
    fn crowd_clustering_invariants(peds in proptest::collection::vec(ped_strategy(), 0..40)) {
        let crowds = cluster_crowds(&peds);
        let mut seen = vec![false; peds.len()];
        for c in &crowds {
            prop_assert!(!c.is_empty());
            prop_assert!(c.members.contains(&c.representative));
            for &m in &c.members {
                prop_assert!(!seen[m], "pedestrian {m} assigned twice");
                seen[m] = true;
            }
            if c.len() >= 2 {
                let pos: Vec<Vec2> = c.members.iter().map(|&i| peds[i].position).collect();
                prop_assert!(location_std(&pos) <= CROWD_BETA + 1e-9);
                let os: Vec<f64> = c.members.iter().map(|&i| peds[i].orientation).collect();
                prop_assert!(
                    erpd_geometry::angle::circular_std_deg(&os) <= CROWD_GAMMA_DEG + 1e-6
                );
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some pedestrian missing");
    }

    /// Predicted positions always start at the object's position and never
    /// move faster than the given speed.
    #[test]
    fn prediction_respects_kinematics(
        x in -50.0f64..50.0, y in -50.0f64..50.0,
        speed in 0.0f64..20.0, heading in -PI..PI, omega in -0.5f64..0.5,
    ) {
        let t = predict_ctrv(ObjectId(1), ObjectKind::Vehicle, Vec2::new(x, y), speed, heading, omega, 4.5);
        prop_assert!((t.position_at(0.0) - Vec2::new(x, y)).norm() < 1e-9);
        let mut prev = t.position_at(0.0);
        for k in 1..=20 {
            let tau = HORIZON * k as f64 / 20.0;
            let p = t.position_at(tau);
            let step_dist = p.distance(prev);
            let dt = HORIZON / 20.0;
            prop_assert!(step_dist <= speed * dt + 1e-6, "moved {step_dist} in {dt}s at speed {speed}");
            prev = p;
        }
    }

    /// The tracker maintains identity on smooth single-target motion and
    /// recovers the velocity.
    #[test]
    fn tracker_keeps_identity_on_linear_motion(vx in -15.0f64..15.0, vy in -15.0f64..15.0) {
        let mut gnn = Tracker::new();
        let mut ids = Vec::new();
        for i in 0..15 {
            let t = i as f64 * 0.1;
            let d = [Detection {
                position: Vec2::new(vx * t, vy * t),
                kind: ObjectKind::Vehicle,
            }];
            ids.push(gnn.update(t, &d)[0].id);
        }
        prop_assert!(ids.windows(2).all(|w| w[0] == w[1]));
        prop_assert!((gnn.tracks()[0].velocity() - Vec2::new(vx, vy)).norm() < 1.0);
    }

    /// Passing intervals are always within the prediction horizon and
    /// properly ordered, and the early-exit walk returns the first of them
    /// (turning paths can pass through the circle more than once).
    #[test]
    fn passing_intervals_well_formed(
        speed in 0.5f64..20.0, omega in -1.5f64..1.5,
        cx in -60.0f64..60.0, cy in -20.0f64..20.0, r in 0.5f64..10.0,
    ) {
        use erpd_geometry::Circle;
        let t = predict_ctrv(ObjectId(1), ObjectKind::Vehicle, Vec2::ZERO, speed, 0.0, omega, 4.5);
        let circle = Circle::new(Vec2::new(cx, cy), r);
        let all = t.passing_intervals(&circle);
        for iv in &all {
            prop_assert!(iv.start() >= -1e-9);
            prop_assert!(iv.end() <= HORIZON + 1e-9);
            prop_assert!(iv.length() >= 0.0);
        }
        prop_assert!(all.windows(2).all(|w| w[0].end() < w[1].start()));
        prop_assert_eq!(t.first_passing_interval(&circle), all.first().copied());
    }
}
