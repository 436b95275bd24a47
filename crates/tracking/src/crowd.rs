//! Pedestrian crowd clustering (paper §II-D, Rule 3).
//!
//! The paper's algorithm: cluster pedestrians *by location only*, then for
//! each cluster compare the standard deviations of member locations and
//! orientations against thresholds β (location) and γ (orientation); members
//! whose deviation exceeds a threshold are removed into a new cluster, and
//! the process repeats until every cluster satisfies both constraints. Only
//! one *representative* per cluster is then tracked and predicted.
//!
//! The DBSCAN baseline of Fig. 4 is [`cluster_dbscan`].

use crate::ObjectId;
use erpd_geometry::angle::{angle_dist, circular_mean, circular_std_deg, deg_to_rad};
use erpd_geometry::stats::location_std;
use erpd_geometry::Vec2;
use erpd_pointcloud::{dbscan, DbscanParams};

/// A pedestrian observation fed to the clustering algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pedestrian {
    /// Identity (carried through to the output crowds).
    pub id: ObjectId,
    /// Planar position, world frame.
    pub position: Vec2,
    /// Moving direction, radians.
    pub orientation: f64,
    /// Walking speed, m/s.
    pub speed: f64,
}

/// Radius of the initial location-only clustering, metres (also the
/// DBSCAN baseline's radius in Fig. 4).
pub const CROWD_LOCATION_EPS: f64 = 2.5;

/// Location standard-deviation threshold β, metres (paper §II-D: 2).
pub const CROWD_BETA: f64 = 2.0;

/// Orientation standard-deviation threshold γ, degrees (paper §II-D: 5).
pub const CROWD_GAMMA_DEG: f64 = 5.0;

/// A cluster of pedestrians with a designated representative.
#[derive(Debug, Clone, PartialEq)]
pub struct Crowd {
    /// Indices into the input slice.
    pub members: Vec<usize>,
    /// Index (into the input slice) of the representative: the member
    /// closest to the crowd centroid.
    pub representative: usize,
    /// Centroid of member positions.
    pub centroid: Vec2,
    /// Circular mean of member orientations, radians.
    pub mean_orientation: f64,
}

impl Crowd {
    fn from_members(members: Vec<usize>, peds: &[Pedestrian]) -> Crowd {
        debug_assert!(!members.is_empty());
        let centroid = Vec2::centroid(members.iter().map(|&i| peds[i].position))
            .expect("non-empty crowd");
        let mean_orientation =
            circular_mean(members.iter().map(|&i| peds[i].orientation)).unwrap_or_else(|| {
                // Degenerate (opposite directions): fall back to the first
                // member's orientation; the cluster will be split anyway.
                peds[members[0]].orientation
            });
        let representative = members
            .iter()
            .copied()
            .min_by(|&a, &b| {
                peds[a]
                    .position
                    .distance_squared(centroid)
                    .partial_cmp(&peds[b].position.distance_squared(centroid))
                    .expect("finite distances")
            })
            .expect("non-empty crowd");
        Crowd {
            members,
            representative,
            centroid,
            mean_orientation,
        }
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the crowd has no members (never produced by the algorithms).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

fn satisfies(members: &[usize], peds: &[Pedestrian]) -> bool {
    if members.len() < 2 {
        return true;
    }
    let positions: Vec<Vec2> = members.iter().map(|&i| peds[i].position).collect();
    if location_std(&positions) > CROWD_BETA {
        return false;
    }
    let orientations: Vec<f64> = members.iter().map(|&i| peds[i].orientation).collect();
    circular_std_deg(&orientations) <= CROWD_GAMMA_DEG
}

/// Splits a violating cluster: members whose individual deviation exceeds a
/// threshold are evicted into a new cluster; when eviction degenerates
/// (all or none evicted) the cluster is bisected along its dominant
/// deviation axis so progress is guaranteed.
fn split(members: Vec<usize>, peds: &[Pedestrian]) -> (Vec<usize>, Vec<usize>) {
    let crowd = Crowd::from_members(members.clone(), peds);
    let gamma_rad = deg_to_rad(CROWD_GAMMA_DEG);
    let (mut keep, mut evicted) = (Vec::new(), Vec::new());
    for &i in &members {
        let loc_dev = peds[i].position.distance(crowd.centroid);
        let ori_dev = angle_dist(peds[i].orientation, crowd.mean_orientation);
        if loc_dev > CROWD_BETA || ori_dev > gamma_rad {
            evicted.push(i);
        } else {
            keep.push(i);
        }
    }
    if !keep.is_empty() && !evicted.is_empty() {
        return (keep, evicted);
    }
    // Degenerate eviction: bisect. Prefer the orientation axis when the
    // orientation constraint is the one violated.
    let orientations: Vec<f64> = members.iter().map(|&i| peds[i].orientation).collect();
    if circular_std_deg(&orientations) > CROWD_GAMMA_DEG {
        let mean = crowd.mean_orientation;
        let (mut a, mut b): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
        for &i in &members {
            if erpd_geometry::angle::angle_diff(peds[i].orientation, mean) >= 0.0 {
                a.push(i);
            } else {
                b.push(i);
            }
        }
        if !a.is_empty() && !b.is_empty() {
            return (a, b);
        }
    }
    // Spatial bisection: split at the median of the projection onto the
    // direction of maximum spread (centroid -> farthest member).
    let far = members
        .iter()
        .copied()
        .max_by(|&x, &y| {
            peds[x]
                .position
                .distance_squared(crowd.centroid)
                .partial_cmp(&peds[y].position.distance_squared(crowd.centroid))
                .expect("finite distances")
        })
        .expect("non-empty");
    let axis = (peds[far].position - crowd.centroid)
        .try_normalize()
        .unwrap_or(Vec2::UNIT_X);
    let mut proj: Vec<(f64, usize)> = members
        .iter()
        .map(|&i| ((peds[i].position - crowd.centroid).dot(axis), i))
        .collect();
    proj.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite projections"));
    let half = (proj.len() / 2).max(1);
    let a: Vec<usize> = proj[..half].iter().map(|&(_, i)| i).collect();
    let b: Vec<usize> = proj[half..].iter().map(|&(_, i)| i).collect();
    (a, b)
}

/// The paper's crowd-clustering algorithm.
///
/// Every input pedestrian appears in exactly one output crowd, and every
/// output crowd satisfies both the β (location) and γ (orientation)
/// deviation constraints.
///
/// # Examples
///
/// ```
/// use erpd_tracking::{cluster_crowds, ObjectId, Pedestrian};
/// use erpd_geometry::Vec2;
///
/// // Two pedestrians walking together, one walking the opposite way.
/// let peds = vec![
///     Pedestrian { id: ObjectId(0), position: Vec2::new(0.0, 0.0), orientation: 0.0, speed: 1.2 },
///     Pedestrian { id: ObjectId(1), position: Vec2::new(0.5, 0.0), orientation: 0.02, speed: 1.2 },
///     Pedestrian { id: ObjectId(2), position: Vec2::new(1.0, 0.0), orientation: 3.14, speed: 1.2 },
/// ];
/// let crowds = cluster_crowds(&peds);
/// assert_eq!(crowds.len(), 2);
/// ```
pub fn cluster_crowds(peds: &[Pedestrian]) -> Vec<Crowd> {
    // Step 1: cluster solely on location. min_points = 1 so nobody is noise.
    let positions: Vec<Vec2> = peds.iter().map(|p| p.position).collect();
    let initial = dbscan(&positions, DbscanParams::new(CROWD_LOCATION_EPS, 1));

    let mut queue: Vec<Vec<usize>> = initial.clusters();
    let mut out = Vec::new();
    // Step 2: iteratively enforce the deviation constraints.
    while let Some(members) = queue.pop() {
        if members.is_empty() {
            continue;
        }
        if satisfies(&members, peds) {
            out.push(Crowd::from_members(members, peds));
        } else {
            let (a, b) = split(members, peds);
            queue.push(a);
            queue.push(b);
        }
    }
    // Deterministic output order: by smallest member index.
    out.sort_by_key(|c| *c.members.iter().min().expect("non-empty crowd"));
    out
}

/// The DBSCAN baseline of Fig. 4: clusters on location only, with noise
/// points becoming singleton crowds so every pedestrian is covered.
pub fn cluster_dbscan(peds: &[Pedestrian], eps: f64, min_points: usize) -> Vec<Crowd> {
    let positions: Vec<Vec2> = peds.iter().map(|p| p.position).collect();
    let result = dbscan(&positions, DbscanParams::new(eps, min_points));
    let mut crowds: Vec<Crowd> = result
        .clusters()
        .into_iter()
        .map(|members| Crowd::from_members(members, peds))
        .collect();
    for i in result.noise() {
        crowds.push(Crowd::from_members(vec![i], peds));
    }
    crowds.sort_by_key(|c| *c.members.iter().min().expect("non-empty crowd"));
    crowds
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn ped(i: u64, x: f64, y: f64, o: f64) -> Pedestrian {
        Pedestrian {
            id: ObjectId(i),
            position: Vec2::new(x, y),
            orientation: o,
            speed: 1.3,
        }
    }

    fn check_invariants(peds: &[Pedestrian], crowds: &[Crowd]) {
        // Partition: every pedestrian in exactly one crowd.
        let mut seen = vec![false; peds.len()];
        for c in crowds {
            for &m in &c.members {
                assert!(!seen[m], "pedestrian {m} in two crowds");
                seen[m] = true;
            }
            assert!(c.members.contains(&c.representative));
        }
        assert!(seen.iter().all(|&s| s), "pedestrian missing from crowds");
        // Constraints hold.
        for c in crowds {
            assert!(satisfies(&c.members, peds), "constraint violated: {c:?}");
        }
    }

    #[test]
    fn tight_group_is_one_crowd() {
        let peds: Vec<_> = (0..8)
            .map(|i| ped(i, (i % 4) as f64 * 0.5, (i / 4) as f64 * 0.5, 0.01 * i as f64))
            .collect();
        let crowds = cluster_crowds(&peds);
        assert_eq!(crowds.len(), 1);
        check_invariants(&peds, &crowds);
    }

    #[test]
    fn opposite_orientations_split() {
        // Co-located but walking in opposite directions (the paper's Fig. 4a
        // failure case for DBSCAN).
        let mut peds = Vec::new();
        for i in 0..5 {
            peds.push(ped(i, i as f64 * 0.4, 0.0, 0.0));
            peds.push(ped(10 + i, i as f64 * 0.4, 0.5, PI));
        }
        let crowds = cluster_crowds(&peds);
        assert_eq!(crowds.len(), 2);
        check_invariants(&peds, &crowds);
        // DBSCAN on location alone merges them into one cluster.
        let base = cluster_dbscan(&peds, CROWD_LOCATION_EPS, 1);
        assert_eq!(base.len(), 1);
    }

    #[test]
    fn spatially_spread_group_splits_on_beta() {
        // A long line of pedestrians, all heading the same way: orientation
        // fine, one location cluster, but its location std (≈ 4.1 m) is
        // above β.
        let peds: Vec<_> = (0..12).map(|i| ped(i, i as f64 * 1.2, 0.0, FRAC_PI_2)).collect();
        assert_eq!(cluster_dbscan(&peds, CROWD_LOCATION_EPS, 1).len(), 1);
        let crowds = cluster_crowds(&peds);
        assert!(crowds.len() >= 2);
        check_invariants(&peds, &crowds);
    }

    #[test]
    fn far_groups_stay_separate() {
        let mut peds = Vec::new();
        for i in 0..4 {
            peds.push(ped(i, i as f64 * 0.3, 0.0, 0.0));
            peds.push(ped(10 + i, 100.0 + i as f64 * 0.3, 0.0, 0.0));
        }
        let crowds = cluster_crowds(&peds);
        assert_eq!(crowds.len(), 2);
        check_invariants(&peds, &crowds);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(cluster_crowds(&[]).is_empty());
        let one = [ped(0, 1.0, 1.0, 0.3)];
        let crowds = cluster_crowds(&one);
        assert_eq!(crowds.len(), 1);
        assert_eq!(crowds[0].representative, 0);
    }

    #[test]
    fn symmetric_orientation_spread_terminates() {
        // Every member deviates from the mean by the same angle > gamma:
        // naive eviction would evict everyone forever.
        let peds: Vec<_> = (0..6)
            .map(|i| {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                ped(i, (i / 2) as f64 * 0.3, 0.0, sign * 0.3)
            })
            .collect();
        let crowds = cluster_crowds(&peds);
        check_invariants(&peds, &crowds);
        assert!(crowds.len() >= 2);
    }

    #[test]
    fn representative_is_closest_to_centroid() {
        let peds = vec![
            ped(0, 0.0, 0.0, 0.0),
            ped(1, 1.0, 0.0, 0.0),
            ped(2, 2.0, 0.0, 0.0),
        ];
        let crowds = cluster_crowds(&peds);
        assert_eq!(crowds.len(), 1);
        assert_eq!(crowds[0].representative, 1); // the middle pedestrian
    }

    #[test]
    fn dbscan_baseline_covers_everyone() {
        let peds: Vec<_> = (0..10).map(|i| ped(i, i as f64 * 3.0, 0.0, 0.0)).collect();
        let crowds = cluster_dbscan(&peds, 1.0, 2);
        let total: usize = crowds.iter().map(|c| c.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn deterministic_output() {
        let peds: Vec<_> = (0..20)
            .map(|i| ped(i, (i % 5) as f64 * 0.7, (i / 5) as f64 * 0.7, (i % 3) as f64 * 0.2))
            .collect();
        let a = cluster_crowds(&peds);
        let b = cluster_crowds(&peds);
        assert_eq!(a, b);
    }

    #[test]
    fn wraparound_orientations_cluster_together() {
        // Orientations hugging the ±π discontinuity are a tight group.
        let peds: Vec<_> = (0..6)
            .map(|i| {
                let o = if i % 2 == 0 { PI - 0.01 } else { -(PI - 0.01) };
                ped(i, i as f64 * 0.3, 0.0, o)
            })
            .collect();
        let crowds = cluster_crowds(&peds);
        assert_eq!(crowds.len(), 1);
    }
}
