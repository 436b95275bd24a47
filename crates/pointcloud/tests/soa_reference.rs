//! What is left of the struct-of-arrays differential suite now that the
//! verbatim array-of-structs references have been retired (they held for
//! the PR that introduced the layout and several after it): the lane seam
//! of DBSCAN, and the property `MergeStage` leans on — the incremental
//! voxel map stays integer-exact against a full rebuild under arbitrary
//! per-vehicle upload churn. End to end the layout is pinned by the
//! pipeline fingerprints in `tests/stage_graph_determinism.rs`.

use erpd_geometry::{Vec2, Vec3};
use erpd_pointcloud::{DbscanParams, DbscanScratch, PointCloud, PointCloudMerger};
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

// --- Incremental merge vs full rebuild under upload churn ---------------

/// A per-vehicle partial: a random world-frame cloud (with occasional NaN
/// points, which the merge boundary must count and drop) fed through one
/// `PointCloudMerger`.
fn random_partial(rng: &mut StdRng, voxel_size: f64) -> PointCloudMerger {
    let n = rng.gen_range(0..120usize);
    let mut cloud = PointCloud::new();
    for _ in 0..n {
        if rng.gen_range(0..40u32) == 0 {
            cloud.push(Vec3::new(f64::NAN, 0.0, 0.0));
        } else {
            cloud.push(Vec3::new(
                (rng.next_unit_f64() - 0.5) * 60.0,
                (rng.next_unit_f64() - 0.5) * 60.0,
                rng.next_unit_f64() * 3.0,
            ));
        }
    }
    let mut m = PointCloudMerger::new(voxel_size);
    m.add(&cloud);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random churn — vehicles joining, replacing their upload, leaving —
    /// applied to one persistent `IncrementalMerger` must leave exactly
    /// the occupied-voxel set, per-voxel counts, and input/rejection stats
    /// of a from-scratch rebuild over the surviving partials, at every
    /// intermediate step.
    #[test]
    fn incremental_merge_matches_full_rebuild_under_churn(seed in 0u64..5_000) {
        use erpd_pointcloud::IncrementalMerger;

        let mut rng = StdRng::seed_from_u64(seed ^ 0xe7037ed1a0b428db);
        let voxel = 0.4;
        let mut map = IncrementalMerger::new(voxel);
        let mut live: Vec<PointCloudMerger> = Vec::new();

        for _ in 0..12 {
            match rng.gen_range(0..3u32) {
                // Join: a new vehicle's first upload.
                0 => {
                    let p = random_partial(&mut rng, voxel);
                    map.absorb_partial(&p);
                    live.push(p);
                }
                // Replace: retract a random vehicle's old upload, absorb
                // its new one — the steady-state per-frame operation.
                1 if !live.is_empty() => {
                    let k = rng.gen_range(0..live.len());
                    map.retract_partial(&live[k]);
                    let p = random_partial(&mut rng, voxel);
                    map.absorb_partial(&p);
                    live[k] = p;
                }
                // Leave: retract without replacement.
                2 if !live.is_empty() => {
                    let k = rng.gen_range(0..live.len());
                    let p = live.swap_remove(k);
                    map.retract_partial(&p);
                }
                _ => {}
            }

            let mut rebuild = IncrementalMerger::new(voxel);
            for p in &live {
                rebuild.absorb_partial(p);
            }
            prop_assert_eq!(map.voxel_counts(), rebuild.voxel_counts());
            prop_assert_eq!(map.output_points(), rebuild.output_points());
            prop_assert_eq!(map.input_points(), rebuild.input_points());
            prop_assert_eq!(map.rejected_points(), rebuild.rejected_points());
        }

        // Retract everything: the map must return exactly to empty.
        for p in &live {
            map.retract_partial(p);
        }
        prop_assert_eq!(map.output_points(), 0);
        prop_assert_eq!(map.input_points(), 0);
        prop_assert_eq!(map.rejected_points(), 0);
    }
}
