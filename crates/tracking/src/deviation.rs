//! The location-deviation metric of the paper's Fig. 4(c).
//!
//! Rule 3 predicts only one trajectory per pedestrian crowd, so the quality
//! of a clustering is how tightly the members' *future* positions stay
//! around their representative's: the paper measures "the location
//! deviations of the pedestrians in the same cluster after they move for a
//! period of time".

use crate::{Crowd, Pedestrian};
use erpd_geometry::stats::location_std;
use erpd_geometry::Vec2;

/// Final position of a pedestrian after walking along its orientation for
/// `t` seconds.
pub(crate) fn final_position(p: &Pedestrian, t: f64) -> Vec2 {
    p.position + Vec2::from_angle(p.orientation) * (p.speed * t)
}

/// Per-crowd deviation of the members' final positions after `t` seconds,
/// in the same order as `crowds`. Singleton crowds have zero deviation.
pub(crate) fn crowd_final_deviations(peds: &[Pedestrian], crowds: &[Crowd], t: f64) -> Vec<f64> {
    crowds
        .iter()
        .map(|c| {
            let finals: Vec<Vec2> = c.members.iter().map(|&i| final_position(&peds[i], t)).collect();
            location_std(&finals)
        })
        .collect()
}

/// Per-pedestrian average final-location deviation: each crowd's deviation
/// weighted by its member count. This is the scalar plotted in Fig. 4(c).
pub fn mean_final_deviation(peds: &[Pedestrian], crowds: &[Crowd], t: f64) -> f64 {
    let total: usize = crowds.iter().map(|c| c.len()).sum();
    if total == 0 {
        return 0.0;
    }
    let devs = crowd_final_deviations(peds, crowds, t);
    crowds
        .iter()
        .zip(devs)
        .map(|(c, d)| d * c.len() as f64)
        .sum::<f64>()
        / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cluster_crowds, cluster_dbscan, ObjectId};
    use std::f64::consts::PI;

    fn ped(i: u64, x: f64, y: f64, o: f64, v: f64) -> Pedestrian {
        Pedestrian {
            id: ObjectId(i),
            position: Vec2::new(x, y),
            orientation: o,
            speed: v,
        }
    }

    #[test]
    fn final_position_kinematics() {
        let p = ped(0, 1.0, 2.0, PI / 2.0, 1.5);
        let f = final_position(&p, 4.0);
        assert!((f - Vec2::new(1.0, 8.0)).norm() < 1e-9);
    }

    #[test]
    fn coherent_crowd_has_small_final_deviation() {
        let peds: Vec<_> = (0..6).map(|i| ped(i, i as f64 * 0.3, 0.0, 0.5, 1.3)).collect();
        let crowds = cluster_crowds(&peds);
        let dev = mean_final_deviation(&peds, &crowds, 10.0);
        // Identical headings and speeds: the spread never grows beyond the
        // initial ~0.5 m spatial std.
        assert!(dev < 1.0, "deviation = {dev}");
    }

    #[test]
    fn mixed_orientation_cluster_diverges_under_dbscan() {
        let mut peds = Vec::new();
        for i in 0..5 {
            peds.push(ped(i, i as f64 * 0.4, 0.0, 0.0, 1.3));
            peds.push(ped(10 + i, i as f64 * 0.4, 0.6, PI, 1.3));
        }
        let t = 10.0;
        let ours = cluster_crowds(&peds);
        let base = cluster_dbscan(&peds, 2.5, 1);
        let dev_ours = mean_final_deviation(&peds, &ours, t);
        let dev_base = mean_final_deviation(&peds, &base, t);
        // The paper's Fig 4c shape: ours strictly better.
        assert!(dev_ours < dev_base, "ours {dev_ours} vs dbscan {dev_base}");
        assert!(dev_base > 5.0, "opposite walkers must diverge, got {dev_base}");
    }

    #[test]
    fn singletons_contribute_zero() {
        let peds = vec![ped(0, 0.0, 0.0, 0.0, 1.0), ped(1, 100.0, 0.0, PI, 1.0)];
        let crowds = cluster_crowds(&peds);
        assert_eq!(mean_final_deviation(&peds, &crowds, 10.0), 0.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(mean_final_deviation(&[], &[], 5.0), 0.0);
        assert!(crowd_final_deviations(&[], &[], 5.0).is_empty());
    }
}
