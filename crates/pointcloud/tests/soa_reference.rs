//! What is left of the struct-of-arrays differential suite now that the
//! verbatim array-of-structs references have been retired: the lane seam
//! of DBSCAN — labelling over the cloud's raw x/y lanes equals labelling
//! over the interleaved planar projection. End to end the layout is
//! pinned by the pipeline fingerprints in `tests/stage_graph_determinism.rs`.

use erpd_geometry::{Vec2, Vec3};
use erpd_pointcloud::{DbscanParams, DbscanScratch, PointCloud};
use erpd_rand::proptest::prelude::*;
use erpd_rand::rngs::StdRng;
use erpd_rand::{Rng, RngCore, SeedableRng};

// --- Generators ---------------------------------------------------------

/// A LiDAR-shaped random frame: ground returns near `z = -h`, object
/// returns above, a few outliers — all coordinates in sensor frame.
fn random_frame(seed: u64) -> Vec<Vec3> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa0761d6478bd642f);
    let n = rng.gen_range(0..400usize);
    (0..n)
        .map(|_| {
            let x = (rng.next_unit_f64() - 0.5) * 120.0;
            let y = (rng.next_unit_f64() - 0.5) * 120.0;
            let z = match rng.gen_range(0..10u32) {
                0..=4 => -1.8 + (rng.next_unit_f64() - 0.5) * 0.2, // ground band
                5..=8 => -1.0 + rng.next_unit_f64() * 2.5,         // objects
                _ => (rng.next_unit_f64() - 0.5) * 10.0,           // stray
            };
            Vec3::new(x, y, z)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `DbscanScratch::run_lanes` over the cloud's raw x/y lanes labels
    /// exactly as `run` over the materialized `Vec2` projection — the seam
    /// that let the extractor stop building a planar copy per frame.
    #[test]
    fn dbscan_lanes_match_interleaved_projection(seed in 0u64..5_000) {
        let raw = random_frame(seed ^ 2);
        let cloud = PointCloud::from_points(raw.clone());
        let planar: Vec<Vec2> = raw.iter().map(|p| Vec2::new(p.x, p.y)).collect();
        let params = DbscanParams::new(1.2, 4);

        let mut a = DbscanScratch::new();
        let mut b = DbscanScratch::new();
        a.run(&planar, params);
        b.run_lanes(cloud.xs(), cloud.ys(), params);

        prop_assert_eq!(a.n_clusters(), b.n_clusters());
        prop_assert_eq!(a.noise_count(), b.noise_count());
        for i in 0..raw.len() {
            prop_assert_eq!(a.label(i), b.label(i), "label of point {}", i);
        }
    }
}
