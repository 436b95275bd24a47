//! Load generation: what `--seed` does to the scenarios, and the
//! replication of a recorded upload corpus to a larger fleet. The program
//! under test only ever sees what is generated here.
//!
//! Scenarios differ a lot from one another — the bytes a fleet uploads, the
//! relevance a plan carries and the frames that are slow all swing by tens
//! of percent from one scenario seed to the next — and a run can afford
//! about a dozen of them. So the scenario seeds are fixed (unit `u` of every
//! run plays scenario seed `u`; the corpus is recorded on scenario seed 0)
//! and `--seed` perturbs each scenario instead: it moves the scripted
//! conflict by up to ±2 ms, which shifts where the protagonists start by
//! up to 17 mm and with them every point cloud they appear in, every track
//! and every relevance value. Two seeds therefore never feed the program
//! the same bytes, yet measure the same mix of traffic. (A wider swing
//! does not: the scenarios are chaotic in it. At ±100 ms the default
//! scenario alone moves its uploaded bytes by a third, because who brakes
//! for whom changes; at ±10 ms the four-edge deployment's downlink bytes
//! still spread by 6 %, because which edge owns a boundary vehicle flips.)

use erpd_edge::capacity::{build_corpus, Corpus, CLIENT_ID_BASE};
use erpd_edge::{SystemConfig, Upload};
use erpd_geometry::{Pose2, Vec2, Vec3};
use erpd_sim::{ScenarioConfig, ScenarioKind};

/// Frames recorded into a corpus (8 s of the scenario: the approach, the
/// conflict at 4.5 s and its aftermath); replaying them once is one cycle.
pub const CORPUS_FRAMES: u64 = 80;

/// Seconds before the protagonists would meet, for a run seeded `seed`:
/// the default 4.5 s moved by a whole number of 0.2 ms steps in ±2 ms.
pub fn time_to_conflict(seed: u64) -> f64 {
    ScenarioConfig::default().time_to_conflict + ((seed % 21) as f64 - 10.0) / 5000.0
}

/// The paper's intersection — 40 vehicles, half of them connected — as
/// unit `unit` of a run seeded `seed` plays it.
pub fn paper_scenario(kind: ScenarioKind, unit: u64, seed: u64) -> ScenarioConfig {
    ScenarioConfig::default()
        .with_kind(kind)
        .with_n_vehicles(40)
        .with_connected_fraction(0.5)
        .with_seed(unit)
        .with_time_to_conflict(time_to_conflict(seed))
}

/// Records the upload corpus of the default scenario for a run seeded
/// `seed`.
pub fn corpus(seed: u64, system: &SystemConfig) -> Corpus {
    let scenario = ScenarioConfig::default().with_time_to_conflict(time_to_conflict(seed));
    build_corpus(scenario, system, CORPUS_FRAMES)
}

/// Where replica `i` is placed relative to its source vehicle: the ±20 m
/// half-metre lattice `erpd_edge::capacity` spreads its clients over, so
/// replicas of one source do not collapse onto one point.
pub fn replica_offset(i: usize) -> Vec2 {
    let fx = ((i * 73) % 80) as f64 - 40.0;
    let fy = ((i * 131) % 80) as f64 - 40.0;
    Vec2::new(fx * 0.5, fy * 0.5)
}

/// The vehicle id replica `i` uploads under.
pub fn replica_id(i: usize) -> u64 {
    CLIENT_ID_BASE + i as u64
}

/// A corpus upload rebranded for a replica: new vehicle id, pose and every
/// world-frame point translated by `offset`. `Upload::bytes` is what the
/// source vehicle put on the air and does not change.
pub fn remap_upload(source: &Upload, vehicle_id: u64, offset: Vec2) -> Upload {
    let mut u = source.clone();
    u.vehicle_id = vehicle_id;
    u.pose = Pose2::new(u.pose.position + offset, u.pose.heading());
    let shift = Vec3::new(offset.x, offset.y, 0.0);
    for o in &mut u.objects {
        o.centroid += offset;
        o.points = o.points.iter().map(|p| p + shift).collect();
    }
    u
}

/// Frame `k`'s uploads for a fleet of `n` replicas: replica `i` replays
/// source vehicle `i mod width` of corpus frame `k mod len`.
pub fn fleet_frame(corpus: &Corpus, k: u64, n: usize) -> Vec<Upload> {
    let base = &corpus.frames[k as usize % corpus.frames.len()];
    (0..n)
        .map(|i| remap_upload(&base[i % base.len()], replica_id(i), replica_offset(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use erpd_edge::UploadedObject;

    fn source() -> Upload {
        let points = (0..12)
            .map(|i| Vec3::new(3.0 + 0.1 * f64::from(i), -2.0 + 0.05 * f64::from(i), 0.4))
            .collect();
        Upload {
            vehicle_id: 3,
            pose: Pose2::new(Vec2::new(1.0, 2.0), 0.3),
            objects: vec![UploadedObject {
                centroid: Vec2::new(3.5, -1.7),
                points,
            }],
            bytes: 4321,
            processing_time: 0.01,
            clustered_points: 99,
        }
    }

    #[test]
    fn remap_keeps_the_bytes_and_translates_every_point() {
        let src = source();
        let offset = Vec2::new(10.0, -4.0);
        let got = remap_upload(&src, 77, offset);
        assert_eq!(got.vehicle_id, 77);
        assert_eq!(got.bytes, src.bytes, "a replica costs what its source cost");
        assert_eq!(got.clustered_points, src.clustered_points);
        assert_eq!(got.pose.position, src.pose.position + offset);
        assert_eq!(got.pose.heading(), src.pose.heading());
        assert_eq!(got.objects.len(), src.objects.len());
        for (g, s) in got.objects.iter().zip(&src.objects) {
            assert_eq!(g.centroid, s.centroid + offset);
            assert_eq!(g.points.len(), s.points.len());
            for (gp, sp) in g.points.iter().zip(s.points.iter()) {
                assert_eq!(gp, sp + Vec3::new(offset.x, offset.y, 0.0));
            }
        }
    }

    #[test]
    fn replicas_stay_inside_the_twenty_metre_square_and_apart() {
        // The walk visits 80 distinct lattice points, then repeats — by
        // which time the replica replays another source vehicle.
        let offsets: Vec<Vec2> = (0..80).map(replica_offset).collect();
        for (i, o) in offsets.iter().enumerate() {
            assert!(o.x.abs() <= 20.0 && o.y.abs() <= 20.0, "{o:?}");
            assert!(!offsets[..i].contains(o), "replica {i} sits on another");
        }
        assert_eq!(replica_offset(80), replica_offset(0));
    }

    #[test]
    fn the_seed_moves_the_conflict_by_at_most_two_milliseconds() {
        assert_eq!(time_to_conflict(10), 4.5);
        assert_eq!(time_to_conflict(0), 4.498);
        assert_eq!(time_to_conflict(20), 4.502);
        assert_eq!(time_to_conflict(21), time_to_conflict(0));
        let scenario = paper_scenario(ScenarioKind::RedLightViolation, 3, 15);
        assert_eq!((scenario.seed, scenario.time_to_conflict), (3, 4.501));
    }
}
