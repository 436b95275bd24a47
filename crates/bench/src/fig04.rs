//! Fig. 4(c): final-location deviation of pedestrians clustered by our
//! crowd-clustering algorithm vs. DBSCAN, as the number of pedestrians at
//! the intersection grows.

use crate::{f1, f3, HarnessConfig, Table};
use erpd_geometry::Vec2;
use erpd_tracking::{
    cluster_crowds, cluster_dbscan, mean_final_deviation, ObjectId, Pedestrian,
    CROWD_LOCATION_EPS,
};
use erpd_rand::rngs::StdRng;
use erpd_rand::{Rng, SeedableRng};
use std::f64::consts::{FRAC_PI_2, PI};

/// Synthesises the paper's Fig. 4(a) setting: pedestrians on the crosswalks
/// of an intersection, each crosswalk carrying two opposing streams.
pub(crate) fn intersection_pedestrians(n: usize, seed: u64) -> Vec<Pedestrian> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(77).wrapping_add(3));
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        // Four crosswalk arms; walkers alternate direction within each.
        let arm = i % 4;
        let along = rng.gen_range(-6.0..6.0);
        let side = rng.gen_range(-1.2..1.2);
        let (position, base_orientation) = match arm {
            0 => (Vec2::new(-8.5 + side, along), FRAC_PI_2),  // west arm, N-S walkway
            1 => (Vec2::new(8.5 + side, along), FRAC_PI_2),   // east arm
            2 => (Vec2::new(along, -8.5 + side), 0.0),        // south arm, E-W walkway
            _ => (Vec2::new(along, 8.5 + side), 0.0),         // north arm
        };
        let reverse = (i / 4) % 2 == 1;
        let orientation = base_orientation + if reverse { PI } else { 0.0 }
            + rng.gen_range(-0.04..0.04);
        out.push(Pedestrian {
            id: ObjectId(i as u64),
            position,
            orientation,
            speed: rng.gen_range(1.1..1.5),
        });
    }
    out
}

/// One measured data point of Fig. 4(c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterPoint {
    /// Number of pedestrians.
    pub n: usize,
    /// Mean final-location deviation of our clustering, metres.
    pub deviation_ours: f64,
    /// Mean final-location deviation of DBSCAN, metres.
    pub deviation_dbscan: f64,
    /// Clusters produced by our algorithm.
    pub clusters_ours: f64,
    /// Clusters produced by DBSCAN.
    pub clusters_dbscan: f64,
}

/// Runs the Fig. 4(c) sweep (β = 2, γ = 5 as in the paper).
pub fn sweep(cfg: &HarnessConfig) -> Vec<ClusterPoint> {
    let walk_time = 8.0;
    let mut out = Vec::new();
    for &n in &[10usize, 20, 30, 40, 50, 60] {
        let mut dev_ours = 0.0;
        let mut dev_base = 0.0;
        let mut k_ours = 0.0;
        let mut k_base = 0.0;
        for &seed in &cfg.seeds {
            let peds = intersection_pedestrians(n, seed);
            let ours = cluster_crowds(&peds);
            let base = cluster_dbscan(&peds, CROWD_LOCATION_EPS, 1);
            dev_ours += mean_final_deviation(&peds, &ours, walk_time);
            dev_base += mean_final_deviation(&peds, &base, walk_time);
            k_ours += ours.len() as f64;
            k_base += base.len() as f64;
        }
        let s = cfg.seeds.len().max(1) as f64;
        out.push(ClusterPoint {
            n,
            deviation_ours: dev_ours / s,
            deviation_dbscan: dev_base / s,
            clusters_ours: k_ours / s,
            clusters_dbscan: k_base / s,
        });
    }
    out
}

/// Runs the experiment and renders the Fig. 4(c) table.
pub fn run(cfg: &HarnessConfig) -> Table {
    let mut table = Table::new(
        "fig04c_clustering_deviation",
        &[
            "pedestrians",
            "deviation_ours_m",
            "deviation_dbscan_m",
            "clusters_ours",
            "clusters_dbscan",
        ],
    );
    for p in sweep(cfg) {
        table.push_row(vec![
            p.n.to_string(),
            f3(p.deviation_ours),
            f3(p.deviation_dbscan),
            f1(p.clusters_ours),
            f1(p.clusters_dbscan),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ours_beats_dbscan_at_every_size() {
        let cfg = HarnessConfig::quick();
        for p in sweep(&cfg) {
            assert!(
                p.deviation_ours < p.deviation_dbscan,
                "n = {}: ours {} vs dbscan {}",
                p.n,
                p.deviation_ours,
                p.deviation_dbscan
            );
        }
    }

    #[test]
    fn dbscan_deviation_grows_with_crowd_size() {
        let cfg = HarnessConfig::quick();
        let pts = sweep(&cfg);
        let first = pts.first().unwrap();
        let last = pts.last().unwrap();
        assert!(last.deviation_dbscan >= first.deviation_dbscan * 0.8);
        // Our algorithm keeps deviations bounded by construction.
        assert!(last.deviation_ours < 4.0);
    }

    #[test]
    fn table_has_six_rows() {
        let t = run(&HarnessConfig::quick());
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.header.len(), 5);
    }
}
