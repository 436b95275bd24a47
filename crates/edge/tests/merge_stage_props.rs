//! Property suite for the traffic-map merge (`MergeStage`, paper §II-C):
//! whatever happened in earlier frames, a frame's map is the voxel union
//! of exactly that frame's uploads. Random frame sequences — vehicles
//! joining, re-sending an unchanged upload, replacing it, leaving, one id
//! uploading twice in a frame, non-finite points — must report, frame by
//! frame, the `map_points` and `merge_rejected_points` of a fresh
//! `PointCloudMerger` fed that frame's object clouds and nothing else.

use erpd_edge::{FrameCx, MergeStage, ServerConfig, Stage, Upload, UploadedObject};
use erpd_geometry::{Pose2, Vec2, Vec3};
use erpd_pointcloud::{PointCloud, PointCloudMerger};
use erpd_rand::proptest::prelude::*;
use erpd_rand::rngs::StdRng;
use erpd_rand::{Rng, RngCore, SeedableRng};

/// `MergeStage`'s voxel edge, metres (a private constant there).
const VOXEL_SIZE: f64 = 0.3;

/// A random object cloud: points on a 0.1 m lattice inside a 12 m square,
/// so uploads from different vehicles share voxels, with about one point
/// in thirty non-finite.
fn random_object(rng: &mut StdRng) -> UploadedObject {
    let n = rng.gen_range(0..60usize);
    let mut points = PointCloud::new();
    for _ in 0..n {
        let lattice = |rng: &mut StdRng| rng.gen_range(-60..60i64) as f64 * 0.1;
        let p = match rng.gen_range(0..30u32) {
            0 => Vec3::new(f64::NAN, lattice(rng), 0.5),
            1 => Vec3::new(lattice(rng), f64::INFINITY, 0.5),
            2 => Vec3::new(lattice(rng), lattice(rng), f64::NEG_INFINITY),
            _ => Vec3::new(lattice(rng), lattice(rng), rng.next_unit_f64() * 2.0),
        };
        points.push(p);
    }
    UploadedObject {
        centroid: Vec2::new(0.0, 0.0),
        points,
    }
}

fn random_upload(rng: &mut StdRng, vehicle_id: u64) -> Upload {
    let n_objects = rng.gen_range(0..4usize);
    Upload {
        vehicle_id,
        pose: Pose2::new(Vec2::new(0.0, 0.0), 0.0),
        objects: (0..n_objects).map(|_| random_object(rng)).collect(),
        bytes: 0,
        processing_time: 0.0,
        clustered_points: 0,
    }
}

/// What a fresh merger reports over exactly these uploads.
fn rebuilt(uploads: &[Upload]) -> (usize, usize) {
    let mut m = PointCloudMerger::new(VOXEL_SIZE);
    let voxels = m.count(uploads.iter().flat_map(|u| &u.objects).map(|o| &o.points));
    (voxels, m.rejected_points())
}

/// Runs one frame through the stage, returning `(map_points, rejected)`.
fn merged(stage: &mut MergeStage, frame: usize, uploads: &[Upload]) -> (usize, usize) {
    let cx = FrameCx {
        now: frame as f64 * 0.1,
        uploads,
    };
    let map = stage.run(&cx, ()).expect("merging never fails").artifact;
    (map.map_points, map.merge_rejected_points)
}

/// One vehicle id uploading twice in a frame, then re-sending only the
/// second upload: the next frame's map holds that upload alone. (A cache
/// keyed by the vehicle's last digest once served the folded pair here.)
#[test]
fn a_twice_uploading_vehicle_leaves_nothing_behind() {
    let upload = |x: f64| Upload {
        vehicle_id: 1,
        pose: Pose2::new(Vec2::new(0.0, 0.0), 0.0),
        objects: vec![UploadedObject {
            centroid: Vec2::new(x, 0.0),
            points: PointCloud::from_points(vec![Vec3::new(x, 0.0, 0.5)]),
        }],
        bytes: 0,
        processing_time: 0.0,
        clustered_points: 0,
    };
    let (a, b) = (upload(-5.0), upload(5.0));
    let mut stage = MergeStage::new(&ServerConfig::default());
    assert_eq!(merged(&mut stage, 0, &[a, b.clone()]), (2, 0));
    assert_eq!(merged(&mut stage, 1, &[b]), (1, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn each_frame_map_is_a_fresh_merge_of_that_frames_uploads(seed in 0u64..5_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2545f4914f6cdd1d);
        let mut stage = MergeStage::new(&ServerConfig::default());
        // Each live vehicle's latest upload, in join order.
        let mut live: Vec<Upload> = Vec::new();
        let mut next_id = 0u64;

        for frame in 0..16 {
            // Churn: every live vehicle re-sends its upload unchanged,
            // replaces it, or leaves; then up to two vehicles join.
            let mut kept = Vec::new();
            for u in live.drain(..) {
                match rng.gen_range(0..4u32) {
                    0 | 1 => kept.push(u),
                    2 => kept.push(random_upload(&mut rng, u.vehicle_id)),
                    _ => {}
                }
            }
            live = kept;
            for _ in 0..rng.gen_range(0..3u32) {
                live.push(random_upload(&mut rng, next_id));
                next_id += 1;
            }

            let mut uploads = live.clone();
            // One vehicle id uploading twice in the frame, either the same
            // upload again or a different one.
            if !uploads.is_empty() && rng.gen_range(0..3u32) == 0 {
                let k = rng.gen_range(0..uploads.len());
                let id = uploads[k].vehicle_id;
                let twin = if rng.gen_range(0..2u32) == 0 {
                    uploads[k].clone()
                } else {
                    random_upload(&mut rng, id)
                };
                uploads.push(twin);
            }
            // Arrival order is not join order.
            for i in (1..uploads.len()).rev() {
                uploads.swap(i, rng.gen_range(0..=i));
            }
            // Now and then nothing arrives at all.
            if rng.gen_range(0..8u32) == 0 {
                uploads.clear();
            }

            prop_assert_eq!(
                merged(&mut stage, frame, &uploads),
                rebuilt(&uploads),
                "frame {}", frame
            );
        }

        // An empty frame after a busy one: nothing carries over.
        let busy: Vec<Upload> = (0..3).map(|v| random_upload(&mut rng, v)).collect();
        prop_assert_eq!(merged(&mut stage, 16, &busy), rebuilt(&busy));
        prop_assert_eq!(merged(&mut stage, 17, &[]), (0, 0));
    }
}
