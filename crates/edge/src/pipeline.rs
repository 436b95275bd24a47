//! The typed stage graph behind the edge server (paper Fig. 2).
//!
//! Each server module is a [`Stage`]: a typed transform from one frame
//! artifact to the next, owning its slice of mutable server state and
//! reporting its own [`StageSample`]. The chain is
//!
//! ```text
//! Uploads → TrafficMap → AssociatedDetections → Tracks → Predictions
//!         → ServerFrame (relevance matrix) → DisseminationPlan
//! ```
//!
//! where `Uploads` rides in the per-frame [`FrameCx`] so every stage can
//! see the raw arrivals. [`crate::EdgeServer::process`] composes the five
//! server stages — one implementation each, held as plain fields;
//! [`crate::System`] appends one dissemination stage, chosen by strategy:
//! the EMP / Unlimited baselines are alternative dissemination stages
//! ([`RoundRobinDissemination`], [`BroadcastDissemination`] beside the
//! paper's [`GreedyDissemination`]) rather than `match` arms.
//!
//! The `erpd-par` fork-join fan-out lives *inside* the stage
//! that uses it (trajectory fan-out in [`PredictStage`]); the map merge
//! in [`MergeStage`] is one sequential loop over a warm merger.
//!
//! Parameters the paper gives once and nothing varies are constants beside
//! the stage that reads them ([`POSE_HISTORY_LEN`] and the private radii
//! and sizes below); [`ServerConfig`] carries only what some caller sets.

use crate::server::{DetectionSummary, ServerConfig, ServerFrame, TRACK_ID_BASE};
use crate::stages::{StageSample, StageTimer};
use crate::Upload;
use erpd_core::{
    build_relevance_matrix_multi, DisseminationPlan, Error, ObjectHypotheses, PlanInputs,
    RelevanceConfig,
};
use erpd_geometry::{Pose2, Vec2, Vec3};
use erpd_pointcloud::{PointCloud, PointCloudMerger, POINT_WIRE_BYTES};
use erpd_sim::{IntersectionMap, LaneLocation, Turn};
use erpd_tracking::{
    apply_rules, predict_ctrv, Detection, FollowerLink, LanePosition, ObjectId, ObjectKind,
    ObjectState, PredictedTrajectory, RuleInput, Tracker, HORIZON,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;


/// Read-only per-frame context handed to every stage: the frame time and
/// the uploads that arrived (the `Uploads` artifact of the stage graph).
#[derive(Debug, Clone, Copy)]
pub struct FrameCx<'a> {
    /// Simulation time of the frame, seconds.
    pub now: f64,
    /// Uploads delivered by the network this frame, in arrival order.
    pub uploads: &'a [Upload],
}

/// A stage's output: the artifact it produced plus its own measurement
/// (wall time and item count), so the driver never brackets stages with
/// ad-hoc clocks.
#[derive(Debug, Clone)]
pub struct Staged<T> {
    /// The typed artifact passed to the next stage.
    pub artifact: T,
    /// What the stage measured about itself this frame.
    pub sample: StageSample,
}

/// One module of the edge pipeline: a typed transform over frame
/// artifacts. Implementations own whatever cross-frame state their module
/// needs (the tracker, pose histories, a round-robin offset, ...) and
/// time themselves with [`StageTimer`].
pub trait Stage<In, Out>: fmt::Debug + Send {
    /// Runs the stage over one frame.
    ///
    /// # Errors
    ///
    /// Stage-specific; the default stages only fail in relevance assembly
    /// ([`Error::NonFiniteRelevance`]).
    fn run(&mut self, cx: &FrameCx<'_>, input: In) -> Result<Staged<Out>, Error>;

    /// Contributes this stage's share of a cross-edge handover message
    /// when the vehicle leaves the edge's coverage region. Stateless
    /// stages have nothing to say — the default is a no-op, so custom
    /// stages only override this when they hold per-vehicle state (see
    /// [`TrackStage`], [`RoundRobinDissemination`]).
    fn export_handover(&mut self, _handover: &mut erpd_core::VehicleHandover) {}

    /// Absorbs a handover message from the edge that previously served
    /// the vehicle. Default: no-op (see [`Stage::export_handover`]).
    fn import_handover(&mut self, _handover: &erpd_core::VehicleHandover) {}
}

/// The merged traffic map (voxel-deduplicated union of all uploads).
#[derive(Debug, Clone, Copy, Default)]
pub struct TrafficMap {
    /// Points in the merged map.
    pub map_points: usize,
    /// Non-finite points rejected at the merge boundary across this
    /// frame's uploads (see
    /// [`erpd_pointcloud::PointCloudMerger::rejected_points`]).
    pub merge_rejected_points: usize,
    /// Always 0: the map is rebuilt every frame, so no upload is reused.
    /// Kept only because the benchmark's layer recomposition reads it
    /// (`pointcloud.merge_cache_hit_share`, which now reads 0).
    pub merge_cache_hits: usize,
    /// This frame's upload count (every upload is merged afresh). Kept
    /// only for the benchmark's layer recomposition, like
    /// [`merge_cache_hits`](Self::merge_cache_hits).
    pub merge_cache_misses: usize,
}

/// Cross-vehicle associated detections: one cluster per distinct object.
#[derive(Debug, Clone, Default)]
pub struct AssociatedDetections {
    /// The traffic map, carried through.
    pub map: TrafficMap,
    /// Running centroid and merged extent per cluster, in first-upload
    /// order (self-reports already suppressed).
    pub clusters: Vec<(Vec2, ClusterExtent)>,
    /// Classified detection per cluster, same order.
    pub classified: Vec<Detection>,
    /// Bytes of suppressed self-report clusters, per reporting vehicle.
    pub self_report_bytes: BTreeMap<u64, u64>,
    /// Objects across all uploads before association.
    pub uploaded_objects: usize,
}

/// What the server reads of a cluster's merged cloud: how many points it
/// holds and the box around them. The points themselves are already in the
/// traffic map ([`MergeStage`]); association only weighs centroids by point
/// count, sizes the cluster on the wire and classifies it by extent, all of
/// which are functions of exactly these three values — and the box of a
/// union is the fold of its parts' boxes, so no point is copied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterExtent {
    /// Points across every uploaded object merged into the cluster.
    pub points: usize,
    /// Componentwise minimum over those points (`+∞` while there are none).
    pub min: Vec3,
    /// Componentwise maximum over those points (`−∞` while there are none).
    pub max: Vec3,
}

impl ClusterExtent {
    /// The extent of one cloud: its `len()` and `bounds()`.
    pub fn of(cloud: &PointCloud) -> Self {
        let inf = Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let (min, max) = cloud.bounds().unwrap_or((inf, -inf));
        ClusterExtent {
            points: cloud.len(),
            min,
            max,
        }
    }

    /// Folds another cloud's extent in — the extent of the concatenation.
    fn absorb(&mut self, other: ClusterExtent) {
        self.points += other.points;
        self.min = Vec3::new(
            self.min.x.min(other.min.x),
            self.min.y.min(other.min.y),
            self.min.z.min(other.min.z),
        );
        self.max = Vec3::new(
            self.max.x.max(other.max.x),
            self.max.y.max(other.max.y),
            self.max.z.max(other.max.z),
        );
    }

    /// The box `(min, max)` around the points, or `None` when there are
    /// none — what `PointCloud::bounds` says of the merged cloud.
    pub fn bounds(&self) -> Option<(Vec3, Vec3)> {
        (self.points > 0).then_some((self.min, self.max))
    }

    /// Size of the merged cloud when transmitted uncompressed, in bytes.
    pub fn wire_size_bytes(&self) -> usize {
        self.points * POINT_WIRE_BYTES
    }

    /// Planar bounding-box diagonal, metres (0 without points).
    pub fn planar_extent(&self) -> f64 {
        match self.bounds() {
            None => 0.0,
            Some((min, max)) => {
                let dx = max.x - min.x;
                let dy = max.y - min.y;
                (dx * dx + dy * dy).sqrt()
            }
        }
    }
}

/// Planar kinematic state of one object, as estimated by the tracking
/// stage (replaces the old anonymous `(pos, speed, heading, turn_rate)`
/// tuple).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kinematics {
    /// Planar position.
    pub position: Vec2,
    /// Speed, m/s.
    pub speed: f64,
    /// Heading, radians.
    pub heading: f64,
    /// Turn rate, rad/s.
    pub turn_rate: f64,
}

/// Everything the tracking stage knows after associating this frame with
/// the past: identities, receivers, rule inputs, kinematics, staleness.
#[derive(Debug, Clone, Default)]
pub struct Tracks {
    /// The traffic map, carried through.
    pub map: TrafficMap,
    /// Tracked sensed objects (plus coasted ones), with server ids.
    pub detections: Vec<DetectionSummary>,
    /// Wire size per object.
    pub sizes: BTreeMap<ObjectId, u64>,
    /// Connected vehicles able to receive data (uploaders + coasted).
    pub receivers: Vec<ObjectId>,
    /// Per-object inputs to the Rules 1–3 selection.
    pub rule_inputs: Vec<RuleInput>,
    /// Kinematic state per object.
    pub kinematics: BTreeMap<ObjectId, Kinematics>,
    /// Observation age of each coasted object, seconds.
    pub ages: BTreeMap<ObjectId, f64>,
}

/// Predicted route hypotheses for the objects Rules 1–3 selected.
#[derive(Debug, Clone, Default)]
pub struct Predictions {
    /// The traffic map, carried through.
    pub map: TrafficMap,
    /// Tracked sensed objects, carried through.
    pub detections: Vec<DetectionSummary>,
    /// Wire size per object, carried through.
    pub sizes: BTreeMap<ObjectId, u64>,
    /// Receivers, carried through.
    pub receivers: Vec<ObjectId>,
    /// Kinematic state per object, carried through.
    pub kinematics: BTreeMap<ObjectId, Kinematics>,
    /// Observation ages, carried through.
    pub ages: BTreeMap<ObjectId, f64>,
    /// Hypothesis sets consumed by relevance estimation.
    pub objects: Vec<ObjectHypotheses>,
    /// Queue followers covered by relevance propagation.
    pub followers: Vec<FollowerLink>,
    /// Trajectories actually predicted (Rules 1–3 savings).
    pub predicted_trajectories: usize,
}

/// What a dissemination stage consumes: the finished server frame plus
/// the frame's downlink budget, borrowed for the call.
#[derive(Debug, Clone, Copy)]
pub struct PlanRequest<'a> {
    /// The server's relevance matrix, sizes, and receivers.
    pub frame: &'a ServerFrame,
    /// Downlink budget `B`, bytes per frame.
    pub budget: u64,
}

impl<'a> PlanRequest<'a> {
    /// The core-crate planner inputs for this frame.
    pub fn inputs(&self) -> PlanInputs<'a> {
        PlanInputs {
            matrix: &self.frame.matrix,
            sizes: &self.frame.sizes,
            receivers: &self.frame.receivers,
        }
    }
}

/// A boxed dissemination stage (the last hop of the graph, one per strategy).
pub type BoxedDisseminationStage = Box<dyn for<'a> Stage<PlanRequest<'a>, DisseminationPlan>>;

// ---------------------------------------------------------------------------
// Server stages
// ---------------------------------------------------------------------------

/// Builds the merged traffic map from this frame's uploaded clouds (voxel
/// dedup, paper §II-C).
///
/// Rebuilt every frame: one [`PointCloudMerger`] is reset and fed every
/// object cloud of the frame's uploads in arrival order, so the map is
/// exactly the union of *this* frame's uploads. The merger keeps its
/// allocations across frames, so a warm frame allocates nothing.
#[derive(Debug)]
pub struct MergeStage {
    map: PointCloudMerger,
}

/// Voxel size of the merged traffic map, metres.
const VOXEL_SIZE: f64 = 0.3;

impl MergeStage {
    /// An empty merge stage (nothing in the configuration concerns it).
    pub fn new(_config: &ServerConfig) -> Self {
        MergeStage {
            map: PointCloudMerger::new(VOXEL_SIZE),
        }
    }
}

impl Stage<(), TrafficMap> for MergeStage {
    fn run(&mut self, cx: &FrameCx<'_>, _input: ()) -> Result<Staged<TrafficMap>, Error> {
        let t = StageTimer::start();
        self.map.reset();
        let mut uploaded_objects = 0;
        for u in cx.uploads {
            uploaded_objects += u.objects.len();
            for o in &u.objects {
                self.map.add(&o.points);
            }
        }
        Ok(Staged {
            artifact: TrafficMap {
                map_points: self.map.output_points(),
                merge_rejected_points: self.map.rejected_points(),
                merge_cache_hits: 0,
                merge_cache_misses: cx.uploads.len(),
            },
            sample: t.stop(uploaded_objects),
        })
    }
}

/// Spatial hash over indexed points (cluster centroids, upload poses) for
/// first-within-radius queries: a query only probes the 3×3 cell
/// neighbourhood that can contain a point within the radius.
#[derive(Debug)]
struct PointGrid {
    cell: f64,
    buckets: HashMap<(i64, i64), Vec<usize>>,
}

impl PointGrid {
    /// A grid for queries of the given radius. The cell is a hair wider
    /// than the radius, so rounding in the key division can never put two
    /// points within the radius two cells apart.
    fn new(radius: f64) -> Self {
        PointGrid {
            cell: radius * (1.0 + 1e-9),
            buckets: HashMap::new(),
        }
    }

    fn key(&self, p: Vec2) -> (i64, i64) {
        ((p.x / self.cell).floor() as i64, (p.y / self.cell).floor() as i64)
    }

    fn insert(&mut self, idx: usize, p: Vec2) {
        self.buckets.entry(self.key(p)).or_default().push(idx);
    }

    /// Moves a point that crossed a cell boundary.
    fn relocate(&mut self, idx: usize, old: Vec2, new: Vec2) {
        let (ko, kn) = (self.key(old), self.key(new));
        if ko == kn {
            return;
        }
        if let Some(b) = self.buckets.get_mut(&ko) {
            b.retain(|&i| i != idx);
        }
        self.buckets.entry(kn).or_default().push(idx);
    }

    /// The lowest index whose point (`position(index)`) lies within
    /// `radius` of `p` — the same one a linear `find(..)` over the indices
    /// in order would return.
    fn first_match(
        &self,
        p: Vec2,
        radius: f64,
        position: impl Fn(usize) -> Vec2,
    ) -> Option<usize> {
        let (kx, ky) = self.key(p);
        let mut best: Option<usize> = None;
        for dx in -1..=1 {
            for dy in -1..=1 {
                let cell = (kx.wrapping_add(dx), ky.wrapping_add(dy));
                let Some(bucket) = self.buckets.get(&cell) else {
                    continue;
                };
                for &i in bucket {
                    if best.is_none_or(|b| i < b) && position(i).distance(p) <= radius {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }
}

/// Associates uploads of the same object across vehicles, suppresses
/// self-reports, and classifies the surviving clusters.
///
/// Association matches each uploaded object to the *first* existing
/// cluster (in insertion order) whose running centroid lies within
/// `DETECTION_MATCH_RADIUS` (2 m), and a cluster is a self-report of the
/// *first* uploader (in arrival order) posed within `SELF_REPORT_RADIUS`
/// of it — both found through a spatial hash, bit-identical to the
/// linear scans. A cluster is carried as its [`ClusterExtent`]; no point
/// is copied.
#[derive(Debug)]
pub struct AssociateStage;

/// Radius for merging the same object uploaded by several vehicles, metres
/// (also the cell size of the centroid hash).
const DETECTION_MATCH_RADIUS: f64 = 2.0;
/// Radius around a self-reported pose within which sensed detections are
/// the reporter itself, metres.
const SELF_REPORT_RADIUS: f64 = 3.0;
/// Planar extent below which a detection is classified as a pedestrian,
/// metres.
const PEDESTRIAN_EXTENT: f64 = 1.6;

impl AssociateStage {
    /// An association stage (nothing in the configuration concerns it).
    pub fn new(_config: &ServerConfig) -> Self {
        AssociateStage
    }
}

impl Stage<TrafficMap, AssociatedDetections> for AssociateStage {
    fn run(
        &mut self,
        cx: &FrameCx<'_>,
        input: TrafficMap,
    ) -> Result<Staged<AssociatedDetections>, Error> {
        let t = StageTimer::start();
        let radius = DETECTION_MATCH_RADIUS;
        let mut clusters: Vec<(Vec2, ClusterExtent)> = Vec::new();
        let mut grid = PointGrid::new(radius);
        for u in cx.uploads {
            for o in &u.objects {
                let extent = ClusterExtent::of(&o.points);
                match grid.first_match(o.centroid, radius, |i| clusters[i].0) {
                    Some(i) => {
                        let (c, merged) = &mut clusters[i];
                        let old = *c;
                        // Running centroid update.
                        let n_old = merged.points as f64;
                        let n_new = extent.points as f64;
                        *c = (*c * n_old + o.centroid * n_new) / (n_old + n_new).max(1.0);
                        merged.absorb(extent);
                        grid.relocate(i, old, *c);
                    }
                    None => {
                        let i = clusters.len();
                        clusters.push((o.centroid, extent));
                        grid.insert(i, o.centroid);
                    }
                }
            }
        }

        // Self-reports are authoritative: drop matching detections.
        let mut poses = PointGrid::new(SELF_REPORT_RADIUS);
        for (i, u) in cx.uploads.iter().enumerate() {
            poses.insert(i, u.pose.position);
        }
        let mut self_report_bytes: BTreeMap<u64, u64> = BTreeMap::new();
        clusters.retain(|(c, extent)| {
            let reporter =
                poses.first_match(*c, SELF_REPORT_RADIUS, |i| cx.uploads[i].pose.position);
            if let Some(i) = reporter {
                let e = self_report_bytes.entry(cx.uploads[i].vehicle_id).or_insert(0);
                *e += extent.wire_size_bytes() as u64;
            }
            reporter.is_none()
        });

        // Classify what survives.
        let classified: Vec<Detection> = clusters
            .iter()
            .map(|(c, extent)| Detection {
                position: *c,
                kind: if extent.planar_extent() < PEDESTRIAN_EXTENT {
                    ObjectKind::Pedestrian
                } else {
                    ObjectKind::Vehicle
                },
            })
            .collect();

        let uploaded_objects: usize = cx.uploads.iter().map(|u| u.objects.len()).sum();
        Ok(Staged {
            artifact: AssociatedDetections {
                map: input,
                clusters,
                classified,
                self_report_bytes,
                uploaded_objects,
            },
            sample: t.stop(uploaded_objects),
        })
    }
}

/// Tracks sensed objects over time and assembles the connected-vehicle
/// state: receivers, rule inputs, kinematics, and — under a positive
/// [`ServerConfig::coast_horizon`] — coasted vehicles and tracks.
///
/// Owns the server's cross-frame mutable state: the [`Tracker`], the
/// per-vehicle pose histories, and the last known wire sizes — all three
/// forget what they can no longer be asked about, so a long-running
/// server's memory follows the traffic, not its uptime.
#[derive(Debug)]
pub struct TrackStage {
    coast_horizon: f64,
    map: Arc<IntersectionMap>,
    tracker: Tracker,
    pose_history: BTreeMap<u64, VecDeque<(f64, Pose2)>>,
    /// Last known wire size per object, so coasted objects keep a
    /// dissemination cost after their source upload disappears.
    last_bytes: BTreeMap<ObjectId, u64>,
}

/// How far around a departing vehicle [`TrackStage::export_handover`]
/// snapshots tracks: objects it is plausibly the best observer of.
const HANDOVER_TRACK_RADIUS_M: f64 = 100.0;

/// Poses retained per connected vehicle for finite-difference velocity /
/// turn-rate estimation (and coasting anchors); also the depth of the pose
/// history a handover message carries.
pub const POSE_HISTORY_LEN: usize = 4;

impl TrackStage {
    /// A fresh tracking stage bound to the HD map. Fresh track ids start
    /// at [`ServerConfig::track_id_base`], so multi-edge deployments can
    /// give every edge a disjoint id namespace.
    pub fn new(config: &ServerConfig, map: Arc<IntersectionMap>) -> Self {
        TrackStage {
            coast_horizon: config.coast_horizon,
            map,
            tracker: Tracker::with_id_base(config.track_id_base),
            pose_history: BTreeMap::new(),
            last_bytes: BTreeMap::new(),
        }
    }
}

impl Stage<AssociatedDetections, Tracks> for TrackStage {
    fn run(
        &mut self,
        cx: &FrameCx<'_>,
        input: AssociatedDetections,
    ) -> Result<Staged<Tracks>, Error> {
        let t = StageTimer::start();
        let now = cx.now;
        let uploads = cx.uploads;

        // Track sensed objects over time.
        let assigned = self.tracker.update(now, &input.classified);
        let mut detections = Vec::new();
        let mut sizes: BTreeMap<ObjectId, u64> = BTreeMap::new();
        for (td, (_, extent)) in assigned.iter().zip(&input.clusters) {
            let id = ObjectId(TRACK_ID_BASE + td.id.0);
            let bytes = extent.wire_size_bytes() as u64;
            sizes.insert(id, bytes);
            self.last_bytes.insert(id, bytes);
            detections.push(DetectionSummary {
                id,
                position: td.detection.position,
                kind: td.detection.kind,
                bytes,
            });
        }

        // Connected-vehicle state from pose history.
        for u in uploads {
            let h = self.pose_history.entry(u.vehicle_id).or_default();
            h.push_back((now, u.pose));
            while h.len() > POSE_HISTORY_LEN {
                h.pop_front();
            }
        }
        let mut receivers = Vec::new();
        let mut rule_inputs: Vec<RuleInput> = Vec::new();
        let mut kinematics: BTreeMap<ObjectId, Kinematics> = BTreeMap::new();
        let mut ages: BTreeMap<ObjectId, f64> = BTreeMap::new();
        for u in uploads {
            let id = ObjectId(u.vehicle_id);
            receivers.push(id);
            let h = &self.pose_history[&u.vehicle_id];
            let (velocity, turn_rate) = history_kinematics(h);
            let mut state = ObjectState::new(id, ObjectKind::Vehicle, u.pose.position, velocity);
            state.heading = u.pose.heading();
            file_rule_input(
                &self.map,
                state,
                turn_rate,
                &mut rule_inputs,
                &mut kinematics,
            );
            let bytes = *sizes.entry(id).or_insert_with(|| {
                input
                    .self_report_bytes
                    .get(&u.vehicle_id)
                    .copied()
                    .unwrap_or(600)
            });
            self.last_bytes.insert(id, bytes);
        }

        // Coast connected vehicles whose upload went missing: within the
        // staleness horizon they stay receivers (and rule inputs),
        // advanced from their last reported pose by their last known
        // velocity.
        let coast_horizon = self.coast_horizon;
        if coast_horizon > 0.0 {
            let uploaded: BTreeSet<u64> = uploads.iter().map(|u| u.vehicle_id).collect();
            for (&vid, h) in &self.pose_history {
                if uploaded.contains(&vid) {
                    continue;
                }
                let &(t_last, pose) = h.back().expect("history entries are never empty");
                let age = now - t_last;
                if age <= 0.0 || age > coast_horizon {
                    continue;
                }
                let id = ObjectId(vid);
                let (velocity, turn_rate) = history_kinematics(h);
                let position = pose.position + velocity * age;
                receivers.push(id);
                let mut state = ObjectState::new(id, ObjectKind::Vehicle, position, velocity);
                state.heading = pose.heading();
                file_rule_input(
                    &self.map,
                    state,
                    turn_rate,
                    &mut rule_inputs,
                    &mut kinematics,
                );
                sizes
                    .entry(id)
                    .or_insert_with(|| self.last_bytes.get(&id).copied().unwrap_or(600));
                ages.insert(id, age);
            }
        }
        // A history past the coasting horizon can never coast again; with
        // coasting off, one older than the prediction horizon `T` says
        // nothing about where its vehicle is now.
        let pose_ttl = if coast_horizon > 0.0 {
            coast_horizon
        } else {
            HORIZON
        };
        self.pose_history
            .retain(|_, h| now - h.back().expect("non-empty").0 <= pose_ttl);

        // Tracked objects become rule inputs too. Unobserved tracks are
        // coasted along their velocity while inside the staleness horizon;
        // beyond it (or with coasting disabled) they are skipped.
        for track in self.tracker.tracks() {
            let age = now - track.last_seen();
            if track.misses() > 0 && (coast_horizon <= 0.0 || age > coast_horizon) {
                continue; // not observed this frame, nothing to coast
            }
            let id = ObjectId(TRACK_ID_BASE + track.id().0);
            let position = if track.misses() > 0 {
                track.coasted_position(now)
            } else {
                track.position()
            };
            let state = ObjectState::new(id, track.kind(), position, track.velocity());
            file_rule_input(
                &self.map,
                state,
                track.turn_rate(),
                &mut rule_inputs,
                &mut kinematics,
            );
            if track.misses() > 0 {
                ages.insert(id, age);
                let bytes = self.last_bytes.get(&id).copied().unwrap_or(600);
                sizes.insert(id, bytes);
                detections.push(DetectionSummary {
                    id,
                    position,
                    kind: track.kind(),
                    bytes,
                });
            }
        }

        // Sizes are only ever looked up for a track the tracker still holds
        // or a vehicle that still has a pose history.
        let live_tracks: BTreeSet<ObjectId> = self
            .tracker
            .tracks()
            .iter()
            .map(|t| ObjectId(TRACK_ID_BASE + t.id().0))
            .collect();
        let pose_history = &self.pose_history;
        self.last_bytes
            .retain(|id, _| live_tracks.contains(id) || pose_history.contains_key(&id.0));

        let items = rule_inputs.len();
        Ok(Staged {
            artifact: Tracks {
                map: input.map,
                detections,
                sizes,
                receivers,
                rule_inputs,
                kinematics,
                ages,
            },
            sample: t.stop(items),
        })
    }

    /// Moves the vehicle's pose history into the message and snapshots the
    /// tracks around its last known position. Tracks are *copied*, not
    /// removed: vehicles still inside this region may keep observing them,
    /// and an orphaned track ages out through the tracker's miss limit
    /// exactly as if its observer had disconnected.
    fn export_handover(&mut self, handover: &mut erpd_core::VehicleHandover) {
        if let Some(h) = self.pose_history.remove(&handover.vehicle_id) {
            if let Some(&(_, pose)) = h.back() {
                handover.position = pose.position;
            }
            handover.pose_history = h
                .into_iter()
                .map(|(t, pose)| erpd_core::PoseSample {
                    t,
                    position: pose.position,
                    heading: pose.heading(),
                })
                .collect();
        }
        for track in self.tracker.tracks() {
            if track.position().distance(handover.position) > HANDOVER_TRACK_RADIUS_M {
                continue;
            }
            let global = ObjectId(TRACK_ID_BASE + track.id().0);
            handover.tracks.push(erpd_core::TrackSnapshot {
                id: track.id().0,
                kind: track.kind(),
                misses: track.misses() as u64,
                bytes: self.last_bytes.get(&global).copied().unwrap_or(0),
                history: track.history().collect(),
            });
        }
    }

    /// Adopts the transferred pose history and track snapshots. A local
    /// pose history that is already fresher (the vehicle dual-reported
    /// here before crossing) is kept; transferred tracks replace same-id
    /// tracks and append otherwise, so identities survive the crossing.
    fn import_handover(&mut self, handover: &erpd_core::VehicleHandover) {
        let incoming_last = handover.pose_history.last().map(|p| p.t);
        let local_last = self
            .pose_history
            .get(&handover.vehicle_id)
            .and_then(|h| h.back().map(|&(t, _)| t));
        let keep_local = matches!((incoming_last, local_last), (Some(i), Some(l)) if i < l);
        if incoming_last.is_some() && !keep_local {
            let mut h: VecDeque<(f64, Pose2)> = handover
                .pose_history
                .iter()
                .map(|p| (p.t, Pose2::new(p.position, p.heading)))
                .collect();
            while h.len() > POSE_HISTORY_LEN {
                h.pop_front();
            }
            self.pose_history.insert(handover.vehicle_id, h);
        }
        for snap in &handover.tracks {
            let Some(track) = erpd_tracking::Track::from_history(
                ObjectId(snap.id),
                snap.kind,
                snap.misses as usize,
                &snap.history,
            ) else {
                continue;
            };
            self.tracker.adopt(track);
            if snap.bytes > 0 {
                self.last_bytes
                    .insert(ObjectId(TRACK_ID_BASE + snap.id), snap.bytes);
            }
        }
    }
}

/// Applies Rules 1–3 and predicts trajectories (map-route hypotheses plus
/// CTRV) for the selected objects. Each object's hypothesis set depends
/// only on shared read-only state (map, kinematics, lanes), so the
/// predictions fan out across workers and come back in selection order.
///
/// The predictor parameters (horizon `T` = 5 s, ...) and the crowd
/// thresholds (β = 2 m, γ = 5°) are the paper's, stated once as
/// `erpd-tracking`'s constants ([`erpd_tracking::HORIZON`], ...).
#[derive(Debug)]
pub struct PredictStage {
    map: Arc<IntersectionMap>,
}

impl PredictStage {
    /// A prediction stage bound to the HD map (nothing in the
    /// configuration concerns it).
    pub fn new(_config: &ServerConfig, map: Arc<IntersectionMap>) -> Self {
        PredictStage { map }
    }

    /// Map-based route hypotheses for a vehicle on an approach lane.
    fn route_hypotheses(
        &self,
        id: ObjectId,
        pos: Vec2,
        speed: f64,
        lane: &LanePosition,
    ) -> Vec<PredictedTrajectory> {
        let approach = match lane.lane_id / 8 {
            0 => erpd_sim::Approach::East,
            1 => erpd_sim::Approach::North,
            2 => erpd_sim::Approach::West,
            _ => erpd_sim::Approach::South,
        };
        let lane_idx = (lane.lane_id % 8) as usize;
        let mut turns = vec![Turn::Straight];
        if lane_idx == 0 {
            turns.push(Turn::Left);
        }
        if lane_idx == self.map.lanes_per_dir() - 1 {
            turns.push(Turn::Right);
        }
        let mut out = Vec::new();
        for turn in turns {
            let route = self.map.route(erpd_sim::RouteSpec {
                approach,
                lane: lane_idx,
                turn,
            });
            let (s0, lat) = route.path.project(pos);
            if lat > 3.0 {
                continue;
            }
            let reach = s0 + speed * HORIZON + 5.0;
            if let Some(path) = route.path.slice(s0, reach) {
                out.push(PredictedTrajectory::from_path(
                    id,
                    ObjectKind::Vehicle,
                    path,
                    speed,
                    4.5,
                ));
            }
        }
        out
    }

    /// Route hypotheses for a vehicle *inside* the intersection box (no
    /// lane assignment): every map route whose centreline passes close to
    /// the vehicle with a compatible heading.
    fn route_hypotheses_unmapped(
        &self,
        id: ObjectId,
        pos: Vec2,
        heading: f64,
        speed: f64,
    ) -> Vec<PredictedTrajectory> {
        let mut out = Vec::new();
        for approach in erpd_sim::Approach::ALL {
            for lane in 0..self.map.lanes_per_dir() {
                let mut turns = vec![Turn::Straight];
                if lane == 0 {
                    turns.push(Turn::Left);
                }
                if lane == self.map.lanes_per_dir() - 1 {
                    turns.push(Turn::Right);
                }
                for turn in turns {
                    let route = self.map.route(erpd_sim::RouteSpec { approach, lane, turn });
                    let (s0, lat) = route.path.project(pos);
                    if lat > 2.0 || s0 < route.stop_line_s - 25.0 || s0 > route.exit_s + 5.0 {
                        continue;
                    }
                    let path_heading = route.path.heading_at(s0);
                    // Tighter than the lane-lookup gate: a vehicle a third
                    // of the way into its turn must no longer match the
                    // straight route.
                    if erpd_geometry::angle::angle_dist(heading, path_heading)
                        > std::f64::consts::FRAC_PI_6
                    {
                        continue;
                    }
                    let reach = s0 + speed * HORIZON + 5.0;
                    if let Some(path) = route.path.slice(s0, reach) {
                        out.push(PredictedTrajectory::from_path(
                            id,
                            ObjectKind::Vehicle,
                            path,
                            speed,
                            4.5,
                        ));
                    }
                }
            }
        }
        out
    }
}

impl Stage<Tracks, Predictions> for PredictStage {
    fn run(&mut self, _cx: &FrameCx<'_>, input: Tracks) -> Result<Staged<Predictions>, Error> {
        let t = StageTimer::start();

        // Rules 1-3 select what to predict.
        let selection = apply_rules(&input.rule_inputs);
        let lane_by_id: BTreeMap<ObjectId, Option<LanePosition>> = input
            .rule_inputs
            .iter()
            .map(|r| (r.state.id, r.lane))
            .collect();

        let mut objects: Vec<ObjectHypotheses> = Vec::new();
        let mut predicted_ids: Vec<ObjectId> = selection.predicted_vehicles.clone();
        // Receivers must always carry a trajectory so dissemination decisions
        // can be made for them; followers are covered by propagation, other
        // connected vehicles get a CTRV hypothesis.
        for &r in &input.receivers {
            let is_follower = selection.followers.iter().any(|f| f.follower == r);
            if !predicted_ids.contains(&r) && !is_follower {
                predicted_ids.push(r);
            }
        }
        let receiver_set: BTreeSet<ObjectId> = input.receivers.iter().copied().collect();
        let predicted_count = predicted_ids.len();
        let this = &*self;
        let kin = &input.kinematics;
        let lanes = &lane_by_id;
        let recv_set = &receiver_set;
        let age_of = &input.ages;
        let predicted = erpd_par::par_map(predicted_ids, |id| {
            let &Kinematics {
                position: pos,
                speed,
                heading,
                turn_rate,
            } = kin.get(&id)?;
            // Body trajectories: where the object will actually be.
            let mut trajectories = vec![predict_ctrv(
                id,
                ObjectKind::Vehicle,
                pos,
                speed,
                heading,
                turn_rate,
                4.5,
            )];
            let lane = lanes.get(&id).copied().flatten();
            let near_box = this.map.in_intersection(pos)
                || lane.is_some_and(|l| l.distance_to_stop < 15.0);
            match lane {
                Some(lane) => trajectories.extend(this.route_hypotheses(id, pos, speed, &lane)),
                None if near_box => {
                    trajectories.extend(this.route_hypotheses_unmapped(id, pos, heading, speed))
                }
                None => {}
            }
            // Receiver-side extras: a connected vehicle waiting at or inside
            // the intersection will proceed shortly; predict its routes at a
            // nominal proceed speed so crossing traffic stays relevant *to
            // it* while it waits. These hypotheses never make the waiting
            // vehicle itself look like a moving hazard to others.
            let mut receiver_extra = Vec::new();
            if recv_set.contains(&id) && speed < 2.0 && near_box {
                let proceed = 5.0;
                match lane {
                    Some(lane) => {
                        receiver_extra.extend(this.route_hypotheses(id, pos, proceed, &lane))
                    }
                    None => receiver_extra
                        .extend(this.route_hypotheses_unmapped(id, pos, heading, proceed)),
                }
            }
            Some(ObjectHypotheses {
                object: id,
                trajectories,
                receiver_extra,
                age: age_of.get(&id).copied().unwrap_or(0.0),
            })
        });
        objects.extend(predicted.into_iter().flatten());
        // Crowd representatives (Rule 3).
        for crowd in &selection.crowds {
            let rep = &selection.pedestrians[crowd.representative];
            objects.push(ObjectHypotheses::single(predict_ctrv(
                rep.id,
                ObjectKind::Pedestrian,
                rep.position,
                rep.speed,
                rep.orientation,
                0.0,
                0.6,
            )));
            // Crowd members share the representative's data relevance: give
            // each member a copy of the representative's trajectory so their
            // perception data can be disseminated when the crowd conflicts.
            for &m in &crowd.members {
                if m == crowd.representative {
                    continue;
                }
                let member = &selection.pedestrians[m];
                objects.push(ObjectHypotheses::single(predict_ctrv(
                    member.id,
                    ObjectKind::Pedestrian,
                    member.position,
                    rep.speed,
                    rep.orientation,
                    0.0,
                    0.6,
                )));
            }
        }
        let predicted_trajectories = predicted_count + selection.crowds.len();

        Ok(Staged {
            artifact: Predictions {
                map: input.map,
                detections: input.detections,
                sizes: input.sizes,
                receivers: input.receivers,
                kinematics: input.kinematics,
                ages: input.ages,
                objects,
                followers: selection.followers,
                predicted_trajectories,
            },
            sample: t.stop(predicted_trajectories),
        })
    }
}

/// Assembles the relevance matrix (with follower propagation and
/// upload-visibility suppression) and finishes the [`ServerFrame`].
#[derive(Debug)]
pub struct RelevanceStage {
    alpha: f64,
    relevance: RelevanceConfig,
}

impl RelevanceStage {
    /// A relevance stage with the configured α and relevance parameters.
    pub fn new(config: &ServerConfig) -> Self {
        RelevanceStage {
            alpha: config.alpha,
            relevance: config.relevance,
        }
    }
}

impl Stage<Predictions, ServerFrame> for RelevanceStage {
    fn run(
        &mut self,
        cx: &FrameCx<'_>,
        input: Predictions,
    ) -> Result<Staged<ServerFrame>, Error> {
        let t = StageTimer::start();

        // Visibility from uploads: receiver r already perceives o if r
        // uploaded a cluster at o's position (paper §III-A).
        let uploads_by_vehicle: BTreeMap<u64, &Upload> =
            cx.uploads.iter().map(|u| (u.vehicle_id, u)).collect();
        let kinematics = &input.kinematics;
        let visible = |receiver: ObjectId, object: ObjectId| -> bool {
            let Some(upload) = uploads_by_vehicle.get(&receiver.0) else {
                return false;
            };
            let Some(at) = kinematics.get(&object) else {
                return false;
            };
            upload
                .objects
                .iter()
                .any(|o| o.centroid.distance(at.position) <= 2.5)
        };

        // Relevance matrix (with follower propagation).
        let matrix = build_relevance_matrix_multi(
            &input.objects,
            &input.receivers,
            &input.followers,
            self.alpha,
            self.relevance,
            visible,
        )?;
        let items = input.objects.len();

        let staleness: Vec<f64> = input.ages.values().copied().collect();
        let frame = ServerFrame {
            matrix,
            sizes: input.sizes,
            receivers: input.receivers,
            detections: input.detections,
            predicted_trajectories: input.predicted_trajectories,
            map_points: input.map.map_points,
            coasted_objects: staleness.len(),
            staleness,
            // Filled by the driver ([`crate::EdgeServer::process`]) from
            // the stages' own samples.
            stages: Default::default(),
        };
        Ok(Staged {
            artifact: frame,
            sample: t.stop(items),
        })
    }
}

// ---------------------------------------------------------------------------
// Dissemination stages
// ---------------------------------------------------------------------------

/// The paper's dissemination: relevance-greedy knapsack (Algorithm 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyDissemination;

impl<'a> Stage<PlanRequest<'a>, DisseminationPlan> for GreedyDissemination {
    fn run(
        &mut self,
        _cx: &FrameCx<'_>,
        req: PlanRequest<'a>,
    ) -> Result<Staged<DisseminationPlan>, Error> {
        let t = StageTimer::start();
        let inputs = req.inputs();
        let plan = inputs.greedy(req.budget);
        let items = inputs.candidate_pairs();
        Ok(Staged {
            artifact: plan,
            sample: t.stop(items),
        })
    }
}

/// The EMP baseline: relevance-blind round robin over every pair. Owns
/// the rotation offset that used to live in the system loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinDissemination {
    offset: usize,
}

impl RoundRobinDissemination {
    /// A rotation starting at offset 0.
    pub fn new() -> Self {
        RoundRobinDissemination::default()
    }
}

impl<'a> Stage<PlanRequest<'a>, DisseminationPlan> for RoundRobinDissemination {
    fn run(
        &mut self,
        _cx: &FrameCx<'_>,
        req: PlanRequest<'a>,
    ) -> Result<Staged<DisseminationPlan>, Error> {
        let t = StageTimer::start();
        let inputs = req.inputs();
        let (plan, next) = inputs.round_robin(req.budget, self.offset);
        self.offset = next;
        let items = inputs.candidate_pairs();
        Ok(Staged {
            artifact: plan,
            sample: t.stop(items),
        })
    }

    /// Records the rotation offset so the EMP state survives the transfer.
    fn export_handover(&mut self, handover: &mut erpd_core::VehicleHandover) {
        handover.rr_offset = self.offset as u64;
    }

    /// Resumes the exported rotation, so the gaining edge does not
    /// immediately re-serve pairs the losing edge just served.
    fn import_handover(&mut self, handover: &erpd_core::VehicleHandover) {
        self.offset = handover.rr_offset as usize;
    }
}

/// The `Unlimited` baseline: everything to everyone, no budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct BroadcastDissemination;

impl<'a> Stage<PlanRequest<'a>, DisseminationPlan> for BroadcastDissemination {
    fn run(
        &mut self,
        _cx: &FrameCx<'_>,
        req: PlanRequest<'a>,
    ) -> Result<Staged<DisseminationPlan>, Error> {
        let t = StageTimer::start();
        let inputs = req.inputs();
        let plan = inputs.broadcast();
        let items = inputs.candidate_pairs();
        Ok(Staged {
            artifact: plan,
            sample: t.stop(items),
        })
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Pairs the edge server with the paper's dissemination stage,
/// [`GreedyDissemination`]. The server's five stages are fixed (see
/// [`crate::EdgeServer`]); [`crate::System`] and [`crate::EdgeDaemon`] pick
/// the dissemination stage by strategy instead.
///
/// ```
/// use erpd_edge::{PipelineBuilder, ServerConfig};
/// use erpd_sim::IntersectionMap;
///
/// let (mut server, _disseminate) =
///     PipelineBuilder::new(ServerConfig::default(), IntersectionMap::default()).build();
/// assert!(server.process(0.0, &[]).unwrap().receivers.is_empty());
/// ```
#[derive(Debug)]
pub struct PipelineBuilder {
    config: ServerConfig,
    map: IntersectionMap,
}

impl PipelineBuilder {
    /// A builder for the default (paper) pipeline over the given map.
    pub fn new(config: ServerConfig, map: IntersectionMap) -> Self {
        PipelineBuilder { config, map }
    }

    /// Builds the server plus the [`GreedyDissemination`] stage.
    pub fn build(self) -> (crate::EdgeServer, BoxedDisseminationStage) {
        (
            crate::EdgeServer::new(self.config, self.map),
            Box::new(GreedyDissemination),
        )
    }
}

/// Files one object as a rule input plus its kinematics — the shape
/// uploaders, coasted vehicles and tracks share. Only vehicles are mapped
/// to a lane.
fn file_rule_input(
    map: &IntersectionMap,
    state: ObjectState,
    turn_rate: f64,
    rule_inputs: &mut Vec<RuleInput>,
    kinematics: &mut BTreeMap<ObjectId, Kinematics>,
) {
    rule_inputs.push(RuleInput {
        state,
        lane: if state.kind == ObjectKind::Vehicle {
            map.lane_of(state.position, state.heading)
                .map(to_lane_position)
        } else {
            None
        },
        in_intersection: map.in_intersection(state.position),
    });
    kinematics.insert(
        state.id,
        Kinematics {
            position: state.position,
            speed: state.velocity.norm(),
            heading: state.heading,
            turn_rate,
        },
    );
}

/// Converts the sim map's lane lookup into the tracking crate's type.
fn to_lane_position(l: LaneLocation) -> LanePosition {
    LanePosition {
        lane_id: l.lane_id,
        distance_to_stop: l.distance_to_stop,
    }
}

/// Velocity and turn rate from a short pose history.
fn history_kinematics(h: &VecDeque<(f64, Pose2)>) -> (Vec2, f64) {
    if h.len() < 2 {
        return (Vec2::ZERO, 0.0);
    }
    let (t0, p0) = h[0];
    let (t1, p1) = h[h.len() - 1];
    let dt = t1 - t0;
    if dt <= 1e-9 {
        return (Vec2::ZERO, 0.0);
    }
    let v = (p1.position - p0.position) / dt;
    let w = erpd_geometry::angle::angle_diff(p1.heading(), p0.heading()) / dt;
    (v, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UploadedObject;

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

    /// A crowded frame: `n_vehicles` uploaders, each reporting the same
    /// field of objects with small per-vehicle offsets, plus chains of
    /// clusters ~0.95 radii apart whose running centroids drift across
    /// grid-cell boundaries as they merge.
    fn crowded_uploads(n_vehicles: u64) -> Vec<Upload> {
        let mut uploads = Vec::new();
        for v in 0..n_vehicles {
            let mut objects = Vec::new();
            for k in 0..12u64 {
                // Deterministic pseudo-spread: offsets below the 2 m match
                // radius so vehicles mostly agree, occasionally not.
                let jx = ((v * 7 + k * 13) % 11) as f64 * 0.17;
                let jy = ((v * 5 + k * 3) % 13) as f64 * 0.13;
                let base_x = 8.0 * (k % 4) as f64 + jx;
                let base_y = 6.0 * (k / 4) as f64 + jy;
                let points = cloud_at(base_x, base_y, 18 + (k as usize % 5), 1.2);
                objects.push(UploadedObject {
                    centroid: Vec2::new(base_x + 0.6, base_y + 0.6),
                    points,
                });
            }
            // Chain of near-threshold clusters along x, crossing cells.
            for c in 0..6u64 {
                let x = 60.0 + 1.9 * c as f64 + 0.05 * (v % 3) as f64;
                let points = cloud_at(x, -20.0, 10, 0.8);
                objects.push(UploadedObject {
                    centroid: Vec2::new(x + 0.4, -19.6),
                    points,
                });
            }
            uploads.push(Upload {
                vehicle_id: v + 1,
                pose: Pose2::new(Vec2::new(-100.0 - 5.0 * v as f64, 0.0), 0.0),
                objects,
                bytes: 1000,
                processing_time: 0.001,
                clustered_points: 0,
            });
        }
        uploads
    }

    #[test]
    fn grid_matches_at_exactly_the_radius_across_cells() {
        // Two centroids exactly `radius` apart, guaranteed to land in
        // different grid cells: the second must still merge into the first.
        let r = DETECTION_MATCH_RADIUS;
        let objects = vec![
            UploadedObject {
                centroid: Vec2::new(r - 0.01, 0.0),
                points: cloud_at(0.0, 0.0, 8, 0.5),
            },
            UploadedObject {
                centroid: Vec2::new(2.0 * r - 0.01, 0.0),
                points: cloud_at(2.0 * r, 0.0, 8, 0.5),
            },
        ];
        let uploads = vec![Upload {
            vehicle_id: 1,
            pose: Pose2::new(Vec2::new(-100.0, 0.0), 0.0),
            objects,
            bytes: 100,
            processing_time: 0.0,
            clustered_points: 0,
        }];
        let mut stage = AssociateStage::new(&ServerConfig::default());
        let cx = FrameCx {
            now: 0.0,
            uploads: &uploads,
        };
        let out = stage.run(&cx, TrafficMap::default()).unwrap().artifact;
        assert_eq!(out.clusters.len(), 1, "exact-radius match must merge");
    }

    #[test]
    fn stages_report_their_samples() {
        let uploads = crowded_uploads(3);
        let cx = FrameCx {
            now: 0.0,
            uploads: &uploads,
        };
        let config = ServerConfig::default();
        let mut merge = MergeStage::new(&config);
        let m = merge.run(&cx, ()).unwrap();
        let total: usize = uploads.iter().map(|u| u.objects.len()).sum();
        assert_eq!(m.sample.items, total);
        assert!(m.artifact.map_points > 0);

        let mut assoc = AssociateStage::new(&config);
        let a = assoc.run(&cx, m.artifact).unwrap();
        assert_eq!(a.sample.items, total);
        assert_eq!(a.artifact.uploaded_objects, total);
    }

    #[test]
    fn round_robin_stage_owns_its_rotation() {
        let frame = ServerFrame {
            sizes: BTreeMap::from([(ObjectId(1), 400u64), (ObjectId(2), 400u64)]),
            receivers: vec![ObjectId(10), ObjectId(11)],
            ..Default::default()
        };
        let cx = FrameCx {
            now: 0.0,
            uploads: &[],
        };
        let mut stage = RoundRobinDissemination::new();
        let req = PlanRequest {
            frame: &frame,
            budget: 1000,
        };
        let p1 = stage.run(&cx, req).unwrap();
        let p2 = stage.run(&cx, req).unwrap();
        assert_eq!(p1.artifact.assignments.len(), 2);
        assert_eq!(p2.artifact.assignments.len(), 2);
        // The rotation advanced: the two frames cover all four pairs.
        let mut all: Vec<_> = p1
            .artifact
            .assignments
            .iter()
            .chain(&p2.artifact.assignments)
            .map(|a| (a.receiver, a.object))
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 4);
        assert_eq!(p1.sample.items, 4);
    }

    #[test]
    fn track_stage_state_stays_bounded() {
        // Churn: every frame a never-seen vehicle reports one never-seen
        // object, then falls silent. Coasting is off (the default).
        let dt = 0.1;
        let mut stage = TrackStage::new(
            &ServerConfig::default(),
            Arc::new(IntersectionMap::default()),
        );
        for k in 0..300u64 {
            let at = Vec2::new(10.0 * k as f64, 400.0);
            let uploads = [Upload {
                vehicle_id: k + 1,
                pose: Pose2::new(Vec2::new(10.0 * k as f64, -400.0), 0.0),
                objects: Vec::new(),
                bytes: 100,
                processing_time: 0.0,
                clustered_points: 0,
            }];
            let input = AssociatedDetections {
                clusters: vec![(at, ClusterExtent::of(&cloud_at(at.x, at.y, 8, 0.5)))],
                classified: vec![Detection {
                    position: at,
                    kind: ObjectKind::Pedestrian,
                }],
                ..Default::default()
            };
            let cx = FrameCx {
                now: k as f64 * dt,
                uploads: &uploads,
            };
            stage.run(&cx, input).unwrap();
        }
        // Vehicles heard within the horizon `T`, plus the tracks the
        // tracker has not yet aged out (it drops a track after five missed
        // frames) — independent of the frame count.
        let vehicles = (HORIZON / dt) as usize + 2;
        let tracks = 5 + 2;
        assert!(
            stage.pose_history.len() <= vehicles,
            "{} pose histories",
            stage.pose_history.len()
        );
        assert!(
            stage.last_bytes.len() <= vehicles + tracks,
            "{} sizes",
            stage.last_bytes.len()
        );
    }
}
