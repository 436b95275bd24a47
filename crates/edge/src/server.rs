//! The edge server: traffic-map construction, tracking, rule-based
//! trajectory prediction, and relevance-matrix assembly (paper Fig. 2,
//! server side).
//!
//! The server is a thin driver: it owns the five server [`Stage`]s as
//! plain fields and [`EdgeServer::process`] is pure composition —
//! `merge → associate → track → predict → relevance` — folding each
//! stage's self-reported [`StageSample`] into the frame's [`StageTimes`].
//!
//! Identity model: connected vehicles self-report stable network ids with
//! their uploads, so they map to `ObjectId(sim id)` directly. Sensed
//! objects are anonymous — the tracking stage's own tracker assigns them
//! ids, offset by [`TRACK_ID_BASE`] to keep the spaces disjoint.

use crate::pipeline::{
    AssociateStage, FrameCx, MergeStage, PredictStage, RelevanceStage, Stage, TrackStage,
    TrafficMap,
};
use crate::stages::{StageSample, StageTimes};
use crate::Upload;
use erpd_core::{Error, RelevanceConfig, RelevanceMatrix};
use erpd_geometry::Vec2;
use erpd_sim::IntersectionMap;
use erpd_tracking::{ObjectId, ObjectKind};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Offset separating tracker-assigned object ids from vehicle network ids.
pub const TRACK_ID_BASE: u64 = 1_000_000;

/// Server-side configuration: the parameters some caller sets to a second
/// value. Everything the paper gives once (predictor horizon `T`, crowd
/// thresholds β and γ, voxel size, association radii, pose-history depth)
/// is a constant beside the stage that reads it (`pipeline.rs`; the one a
/// caller must name is [`crate::POSE_HISTORY_LEN`]).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Relevance-estimation parameters.
    pub relevance: RelevanceConfig,
    /// Follower relevance decay α (paper: 0.8).
    pub alpha: f64,
    /// Staleness horizon for **coasting**, seconds: how long an object
    /// whose source upload went missing is kept alive — advanced by the
    /// trajectory predictor from its last observation — before being
    /// dropped. `0.0` (the default) disables coasting, reproducing the
    /// ideal-network behaviour exactly.
    pub coast_horizon: f64,
    /// First tracker-local id this server assigns to a fresh track. A
    /// multi-edge deployment gives edge `k` the base `k << 32`, so track
    /// identities stay unique fleet-wide and survive cross-edge handover.
    /// The default `0` reproduces the single-edge id sequence exactly.
    pub track_id_base: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            relevance: RelevanceConfig::default(),
            alpha: erpd_core::DEFAULT_ALPHA,
            coast_horizon: 0.0,
            track_id_base: 0,
        }
    }
}

impl ServerConfig {
    /// Returns the configuration with the relevance parameters replaced.
    pub fn with_relevance(mut self, relevance: RelevanceConfig) -> Self {
        self.relevance = relevance;
        self
    }

    /// Returns the configuration with the follower decay α replaced.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Returns the configuration with the coasting staleness horizon
    /// replaced.
    pub fn with_coast_horizon(mut self, coast_horizon: f64) -> Self {
        self.coast_horizon = coast_horizon;
        self
    }

    /// Returns the configuration with the tracker id namespace replaced.
    pub fn with_track_id_base(mut self, track_id_base: u64) -> Self {
        self.track_id_base = track_id_base;
        self
    }
}

/// One merged, tracked object known to the server this frame.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionSummary {
    /// Server-assigned id.
    pub id: ObjectId,
    /// Planar position.
    pub position: Vec2,
    /// Classified kind.
    pub kind: ObjectKind,
    /// Wire size of this object's perception data.
    pub bytes: u64,
}

/// Everything dissemination needs for one frame.
#[derive(Debug, Clone, Default)]
pub struct ServerFrame {
    /// The relevance matrix `R_ij`.
    pub matrix: RelevanceMatrix,
    /// Perception-data sizes per object.
    pub sizes: BTreeMap<ObjectId, u64>,
    /// Connected vehicles able to receive data.
    pub receivers: Vec<ObjectId>,
    /// Objects detected from the uploads (excluding self-reports).
    pub detections: Vec<DetectionSummary>,
    /// Number of trajectories actually predicted (Rules 1–3 savings).
    pub predicted_trajectories: usize,
    /// Occupied voxels in the merged traffic map.
    pub map_points: usize,
    /// Observation age of each object served from coasted (stale) state
    /// because its source upload went missing, seconds (empty when nothing
    /// coasted); its length is the coasted-object count.
    pub staleness: Vec<f64>,
    /// Per-stage timings and item counts. The server fills `merge`,
    /// `tracking`, `prediction`, and `relevance`; the [`crate::System`]
    /// adds `extraction` and `knapsack` around this frame.
    pub stages: StageTimes,
}

impl ServerFrame {
    /// The server object (detection or self-report) closest to `pos` within
    /// `radius` — lets evaluation code map ground-truth entities to server
    /// ids.
    pub fn object_near(&self, pos: Vec2, radius: f64) -> Option<ObjectId> {
        self.detections
            .iter()
            .map(|d| (d.id, d.position.distance(pos)))
            .filter(|&(_, d)| d <= radius)
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(id, _)| id)
    }
}

/// The edge server: the paper's fixed five-stage chain (Fig. 2).
#[derive(Debug)]
pub struct EdgeServer {
    merge: MergeStage,
    associate: AssociateStage,
    track: TrackStage,
    predict: PredictStage,
    relevance: RelevanceStage,
}

impl EdgeServer {
    /// Creates a server for a given HD map.
    pub fn new(config: ServerConfig, map: IntersectionMap) -> Self {
        let map = Arc::new(map);
        EdgeServer {
            merge: MergeStage::new(&config),
            associate: AssociateStage::new(&config),
            track: TrackStage::new(&config, Arc::clone(&map)),
            predict: PredictStage::new(&config, map),
            relevance: RelevanceStage::new(&config),
        }
    }

    /// Processes one frame of uploads by running the stage graph:
    /// `merge → associate → track → predict → relevance`.
    ///
    /// Association reads the uploads, not the traffic map, so nothing
    /// waits for the merge: a frame of at least
    /// [`erpd_par::FAN_OUT_POINTS`] uploaded points runs it on a worker
    /// beside `associate → … → relevance` ([`erpd_par::join`]); a smaller
    /// one runs both on the calling thread. Either way the outputs are the
    /// same.
    ///
    /// The returned frame's only timing record is `stages`, filled from
    /// the stages' own [`StageSample`]s; `map_points` comes from the merge
    /// stage's traffic map.
    ///
    /// With a positive [`ServerConfig::coast_horizon`], objects and
    /// connected vehicles whose upload went missing are **coasted**:
    /// advanced from their last observation by the predictor's
    /// constant-velocity model and kept as (age-discounted) relevance
    /// inputs until the horizon expires.
    ///
    /// # Errors
    ///
    /// [`Error::NonFiniteRelevance`] if relevance assembly produces a
    /// non-finite value.
    pub fn process(&mut self, now: f64, uploads: &[Upload]) -> Result<ServerFrame, Error> {
        let cx = FrameCx { now, uploads };
        let points = uploads
            .iter()
            .flat_map(|u| &u.objects)
            .map(|o| o.points.len())
            .sum();
        let (chain, merged) = erpd_par::join(
            points,
            || {
                // The map input goes unread (see `AssociateStage`).
                let assoc = self.associate.run(&cx, TrafficMap::default())?;
                let tracked = self.track.run(&cx, assoc.artifact)?;
                let predicted = self.predict.run(&cx, tracked.artifact)?;
                let relevant = self.relevance.run(&cx, predicted.artifact)?;
                Ok((assoc.sample, tracked.sample, predicted.sample, relevant))
            },
            || self.merge.run(&cx, ()),
        );
        let merged = merged?;
        let (assoc, tracked, predicted, relevant) = chain?;

        let mut frame = relevant.artifact;
        frame.map_points = merged.artifact.map_points;
        // The canonical "merge" sample covers map merge + association,
        // preserving the pre-refactor stage schema. On a frame that ran the
        // merge beside association it is compute time, not wall time.
        frame.stages = StageTimes {
            merge: StageSample::new(merged.sample.seconds + assoc.seconds, assoc.items),
            tracking: tracked,
            prediction: predicted,
            relevance: relevant.sample,
            ..Default::default()
        };
        Ok(frame)
    }

    /// Fills in the server's share of a cross-edge handover message for
    /// `handover.vehicle_id` — the tracking stage's, the one stage that
    /// holds per-vehicle state.
    pub fn export_handover(&mut self, handover: &mut erpd_core::VehicleHandover) {
        self.track.export_handover(handover);
    }

    /// Absorbs a handover message from another edge.
    pub fn import_handover(&mut self, handover: &erpd_core::VehicleHandover) {
        self.track.import_handover(handover);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UploadedObject;
    use erpd_geometry::{Pose2, Vec3};
    use erpd_pointcloud::PointCloud;

    fn cloud_at(x: f64, y: f64, n: usize, spread: f64) -> PointCloud {
        (0..n)
            .map(|i| {
                Vec3::new(
                    x + spread * (i % 4) as f64 / 4.0,
                    y + spread * (i / 4) as f64 / 4.0,
                    0.8,
                )
            })
            .collect()
    }

    fn upload(vehicle_id: u64, pose: Pose2, objects: Vec<(f64, f64, usize, f64)>) -> Upload {
        let objects = objects
            .into_iter()
            .map(|(x, y, n, spread)| {
                let points = cloud_at(x, y, n, spread);
                UploadedObject {
                    centroid: Vec2::new(x + spread / 2.0, y + spread / 2.0),
                    points,
                }
            })
            .collect();
        Upload {
            vehicle_id,
            pose,
            objects,
            bytes: 1000,
            processing_time: 0.001,
            clustered_points: 0,
        }
    }

    fn server() -> EdgeServer {
        EdgeServer::new(ServerConfig::default(), IntersectionMap::default())
    }

    #[test]
    fn merges_duplicate_uploads_of_one_object() {
        let mut s = server();
        // Two vehicles both upload the same car at (20, 0).
        let u1 = upload(1, Pose2::new(Vec2::new(-10.0, 0.0), 0.0), vec![(20.0, 0.0, 40, 3.0)]);
        let u2 = upload(2, Pose2::new(Vec2::new(40.0, 0.0), 0.0), vec![(20.3, 0.2, 40, 3.0)]);
        let f = s.process(0.0, &[u1, u2]).unwrap();
        assert_eq!(f.detections.len(), 1);
        assert_eq!(f.detections[0].kind, ObjectKind::Vehicle);
        assert_eq!(f.receivers.len(), 2);
    }

    #[test]
    fn self_reports_suppress_detections() {
        let mut s = server();
        // Vehicle 2's cluster sits exactly at vehicle 1's reported pose.
        let u1 = upload(1, Pose2::new(Vec2::new(20.0, 0.0), 0.0), vec![]);
        let u2 = upload(2, Pose2::new(Vec2::new(40.0, 0.0), 0.0), vec![(20.0, 0.0, 40, 2.0)]);
        let f = s.process(0.0, &[u1, u2]).unwrap();
        assert!(f.detections.is_empty(), "self-reported vehicle must not duplicate");
        // Its bytes become the connected vehicle's data size.
        assert!(f.sizes[&ObjectId(1)] > 600);
    }

    #[test]
    fn classifies_pedestrians_by_extent() {
        let mut s = server();
        let u = upload(
            1,
            Pose2::new(Vec2::new(-10.0, 0.0), 0.0),
            vec![(20.0, 0.0, 40, 3.0), (10.0, 5.0, 12, 0.4)],
        );
        let f = s.process(0.0, &[u]).unwrap();
        let kinds: Vec<ObjectKind> = f.detections.iter().map(|d| d.kind).collect();
        assert!(kinds.contains(&ObjectKind::Vehicle));
        assert!(kinds.contains(&ObjectKind::Pedestrian));
    }

    #[test]
    fn detects_conflict_between_connected_vehicles() {
        let mut s = server();
        // Two connected vehicles on a perpendicular collision course,
        // mutually invisible (no uploads of each other).
        for step in 0..5 {
            let t = step as f64 * 0.1;
            let u1 = upload(
                1,
                Pose2::new(Vec2::new(-30.0 + 10.0 * t, -1.75), 0.0),
                vec![],
            );
            let u2 = upload(
                2,
                Pose2::new(Vec2::new(1.75, -30.0 + 10.0 * t), std::f64::consts::FRAC_PI_2),
                vec![],
            );
            let f = s.process(t, &[u1, u2]).unwrap();
            if step == 4 {
                assert!(
                    f.matrix.get(ObjectId(1), ObjectId(2)) > 0.0,
                    "vehicle 2 must be relevant to vehicle 1"
                );
                assert!(f.matrix.get(ObjectId(2), ObjectId(1)) > 0.0);
            }
        }
    }

    #[test]
    fn visible_objects_not_relevant() {
        let mut s = server();
        for step in 0..5 {
            let t = step as f64 * 0.1;
            // Vehicle 1 uploads a cluster at vehicle 2's position: it SEES 2.
            let p2 = Vec2::new(1.75, -30.0 + 10.0 * t);
            let u1 = upload(
                1,
                Pose2::new(Vec2::new(-30.0 + 10.0 * t, -1.75), 0.0),
                vec![(p2.x, p2.y, 30, 2.0)],
            );
            let u2 = upload(2, Pose2::new(p2, std::f64::consts::FRAC_PI_2), vec![]);
            let f = s.process(t, &[u1, u2]).unwrap();
            if step == 4 {
                assert_eq!(
                    f.matrix.get(ObjectId(1), ObjectId(2)),
                    0.0,
                    "visible object must have zero relevance"
                );
                // 2 does not see 1, so 1 stays relevant to 2.
                assert!(f.matrix.get(ObjectId(2), ObjectId(1)) > 0.0);
            }
        }
    }

    #[test]
    fn left_turn_hypothesis_found_from_inner_lane() {
        let mut s = server();
        let map = IntersectionMap::default();
        // Connected vehicle eastbound inner lane, 30 m before the stop line,
        // and a sensed vehicle oncoming (westbound outer lane) uploaded by a
        // third vehicle. Straight paths never cross; only the left-turn
        // hypothesis conflicts.
        for step in 0..6 {
            let t = step as f64 * 0.1;
            let ego_pose = map.spawn_pose(erpd_sim::Approach::East, 0, 30.0 - 8.0 * t);
            let u_ego = upload(1, ego_pose, vec![]);
            let hazard_x = 40.0 - 8.0 * t;
            let u_obs = upload(
                3,
                Pose2::new(Vec2::new(60.0, 5.25), std::f64::consts::PI),
                vec![(hazard_x, 5.25, 40, 3.0)],
            );
            let f = s.process(t, &[u_ego, u_obs]).unwrap();
            if step == 5 {
                let hazard_id = f
                    .object_near(Vec2::new(hazard_x + 1.5, 5.25 + 1.5), 4.0)
                    .expect("hazard tracked");
                assert!(
                    f.matrix.get(ObjectId(1), hazard_id) > 0.0,
                    "left-turn hypothesis must flag the oncoming car; matrix = {:?}",
                    f.matrix
                );
            }
        }
    }

    #[test]
    fn rules_reduce_predicted_trajectories() {
        let mut s = server();
        let map = IntersectionMap::default();
        // Eight connected vehicles queued in one lane: only the leader (plus
        // the other receivers' fallback CTRV) is predicted... the queue
        // followers must NOT each get a trajectory.
        let mut uploads = Vec::new();
        for k in 0..8u64 {
            let pose = map.spawn_pose(erpd_sim::Approach::East, 0, 15.0 + 10.0 * k as f64);
            uploads.push(upload(k + 1, pose, vec![]));
        }
        let f = s.process(0.0, &uploads).unwrap();
        assert!(
            f.predicted_trajectories <= 2,
            "queue must collapse to its leader, got {}",
            f.predicted_trajectories
        );
    }

    #[test]
    fn empty_frame_is_fine() {
        let mut s = server();
        let f = s.process(0.0, &[]).unwrap();
        assert!(f.matrix.is_empty());
        assert!(f.detections.is_empty());
        assert!(f.receivers.is_empty());
        assert_eq!(f.map_points, 0);
    }

    #[test]
    fn object_near_lookup() {
        let mut s = server();
        let u = upload(1, Pose2::new(Vec2::new(-20.0, 0.0), 0.0), vec![(20.0, 0.0, 40, 3.0)]);
        let f = s.process(0.0, &[u]).unwrap();
        assert!(f.object_near(Vec2::new(21.0, 1.0), 4.0).is_some());
        assert!(f.object_near(Vec2::new(90.0, 0.0), 4.0).is_none());
    }
}
