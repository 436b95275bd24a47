//! The frame recomposed from the program's public pieces, one span per
//! layer call — what the traced run times.
//!
//! [`StagePipeline::serve`] runs the six public stage types in sequence,
//! exactly as `EdgeServer::process` followed by the dissemination stage
//! composes them inside `ServingCore::serve`; [`VehicleFleet::process`]
//! runs the vehicle side the way `System::tick` does (the same
//! `erpd_par::par_map_reuse` fan-out over `VehicleSide::process_in`, so the
//! recomposed frame keeps the real frame's parallelism). On the workloads
//! that can be recomposed completely the caller asserts, frame by frame,
//! that the plan coming out of here equals the real driver's.

use crate::trace::SpanId;
use crate::workloads::Run;
use erpd_core::DisseminationPlan;
use erpd_edge::{
    AssociateStage, Error, FrameCx, GreedyDissemination, MergeStage, NetworkConfig, PlanRequest,
    PredictStage, RelevanceStage, ServerConfig, Stage, Strategy, TrackStage, Upload,
    VehicleScratch, VehicleSide, WireMessage,
};
use erpd_geometry::{Transform3, Vec2};
use erpd_pointcloud::{
    ExtractionConfig, ExtractionScratch, GroundFilter, MovingObjectExtractor, PointCloud,
};
use erpd_sim::{IntersectionMap, LidarFrame};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The six server stages of `Strategy::Ours`, held individually.
#[derive(Debug)]
pub struct StagePipeline {
    merge: MergeStage,
    associate: AssociateStage,
    pub track: TrackStage,
    predict: PredictStage,
    relevance: RelevanceStage,
    disseminate: GreedyDissemination,
}

impl StagePipeline {
    pub fn new(config: &ServerConfig, map: &IntersectionMap) -> Self {
        let map = Arc::new(map.clone());
        StagePipeline {
            merge: MergeStage::new(config),
            associate: AssociateStage::new(config),
            track: TrackStage::new(config, Arc::clone(&map)),
            predict: PredictStage::new(config, map),
            relevance: RelevanceStage::new(config),
            disseminate: GreedyDissemination,
        }
    }

    /// One frame through the six stages, each `run` a span under `parent`,
    /// with the counts each boundary exposes added to the run's tally.
    pub fn serve(
        &mut self,
        run: &mut Run,
        frame: u64,
        parent: Option<SpanId>,
        now: f64,
        uploads: &[Upload],
        budget: u64,
    ) -> Result<DisseminationPlan, Error> {
        let cx = FrameCx { now, uploads };
        let t = &mut run.trace;
        let merged = t.time("pointcloud.merge", frame, parent, || {
            self.merge.run(&cx, ())
        })?;
        let map = merged.artifact;
        let assoc = t.time("edge.pipeline.associate", frame, parent, || {
            self.associate.run(&cx, map)
        })?;
        let tracked = t.time("tracking.track", frame, parent, || {
            self.track.run(&cx, assoc.artifact)
        })?;
        let n_tracks = tracked.artifact.detections.len();
        let n_coasted = tracked.artifact.ages.len();
        let predicted = t.time("tracking.predict", frame, parent, || {
            self.predict.run(&cx, tracked.artifact)
        })?;
        let n_objects = predicted.artifact.objects.len();
        let n_trajectories = predicted.artifact.predicted_trajectories;
        let relevant = t.time("core.relevance", frame, parent, || {
            self.relevance.run(&cx, predicted.artifact)
        })?;
        let server_frame = relevant.artifact;
        let planned = t.time("core.disseminate", frame, parent, || {
            self.disseminate.run(
                &cx,
                PlanRequest {
                    frame: &server_frame,
                    budget,
                },
            )
        })?;
        let plan = planned.artifact;

        let points_in: usize = uploads
            .iter()
            .flat_map(|u| u.objects.iter())
            .map(|o| o.points.len())
            .sum();
        run.add("edge.serves", 1.0);
        run.add("pointcloud.merge_points_in", points_in as f64);
        run.add("pointcloud.merge_cache_hits", map.merge_cache_hits as f64);
        run.add(
            "pointcloud.merge_cache_misses",
            map.merge_cache_misses as f64,
        );
        run.add(
            "pointcloud.merge_rejected_points",
            map.merge_rejected_points as f64,
        );
        run.add("tracking.tracks", n_tracks as f64);
        run.add("tracking.coasted_objects", n_coasted as f64);
        run.add("tracking.predicted_trajectories", n_trajectories as f64);
        run.add(
            "core.relevance_pairs",
            (n_objects * server_frame.receivers.len()) as f64,
        );
        run.add("core.relevance_nonzero", server_frame.matrix.len() as f64);
        run.add("core.plan_assignments", plan.assignments.len() as f64);
        Ok(plan)
    }
}

/// The vehicle side of a fleet: one `VehicleSide` per vehicle plus the
/// per-worker scratch pool, as `System` keeps them — and, beside each
/// vehicle, a shadow copy of its ground filter and extractor, so the two
/// halves of `Strategy::Ours`' vehicle side can be timed apart.
#[derive(Debug, Default)]
pub struct VehicleFleet {
    sides: BTreeMap<u64, VehicleSide>,
    scratch: Vec<VehicleScratch>,
    shadows: BTreeMap<u64, (GroundFilter, MovingObjectExtractor)>,
    shadow_world: PointCloud,
    shadow_scratch: ExtractionScratch,
}

impl VehicleFleet {
    /// Turns one fleet scan into uploads (scan order), as one span; each
    /// vehicle's own host time — `process_in` reports it — becomes a sample.
    pub fn process(
        &mut self,
        run: &mut Run,
        frame: u64,
        parent: Option<SpanId>,
        scans: &[LidarFrame],
        network: &NetworkConfig,
    ) -> Vec<Upload> {
        let positions: Vec<(u64, Vec2)> = scans
            .iter()
            .map(|f| (f.vehicle_id, f.sensor_pose.position))
            .collect();
        for f in scans {
            self.sides
                .entry(f.vehicle_id)
                .or_insert_with(|| VehicleSide::new(Strategy::Ours, f.sensor_height));
        }
        let mut sides: BTreeMap<u64, &mut VehicleSide> =
            self.sides.iter_mut().map(|(&id, s)| (id, s)).collect();
        let jobs: Vec<(&LidarFrame, &mut VehicleSide)> = scans
            .iter()
            .map(|f| {
                let side = sides
                    .remove(&f.vehicle_id)
                    .expect("one scan per vehicle per frame");
                (f, side)
            })
            .collect();
        let scratch = &mut self.scratch;
        let processed = run.trace.time("edge.upload.fleet", frame, parent, || {
            erpd_par::par_map_reuse(jobs, scratch, |scratch, (f, side)| {
                side.process_in(f, &positions, network, scratch)
            })
        });
        let mut uploads = Vec::with_capacity(processed.len());
        for (upload, host_s) in processed {
            run.sample("edge.upload.process_ms", host_s * 1e3);
            run.sample(
                "edge.upload.process_jetson_ms",
                upload.processing_time * 1e3,
            );
            run.add("edge.upload.uploads", 1.0);
            run.add("edge.upload.bytes", upload.bytes as f64);
            run.add("edge.upload.objects", upload.objects.len() as f64);
            uploads.push(upload);
        }
        uploads
    }

    /// Moves a vehicle's on-board state to another fleet (the vehicle
    /// drove from one edge's coverage into another's).
    pub fn hand_over(&mut self, vehicle_id: u64, to: &mut VehicleFleet) {
        if let Some(side) = self.sides.remove(&vehicle_id) {
            to.sides.insert(vehicle_id, side);
        }
        if let Some(shadow) = self.shadows.remove(&vehicle_id) {
            to.shadows.insert(vehicle_id, shadow);
        }
    }

    /// Re-runs the extraction of every scan on the shadow extractors, as
    /// two spans per vehicle — ground removal fused with the world
    /// transform, then moving-object extraction — beside the frame (no
    /// parent span), and checks each finds the objects the real vehicle
    /// side uploaded. Call it once per [`VehicleFleet::process`], after
    /// the frame's span has ended.
    pub fn shadow(&mut self, run: &mut Run, frame: u64, scans: &[LidarFrame], uploads: &[Upload]) {
        for (f, upload) in scans.iter().zip(uploads) {
            let (ground, extractor) = self.shadows.entry(f.vehicle_id).or_insert_with(|| {
                (
                    GroundFilter::new(f.sensor_height, 0.1),
                    MovingObjectExtractor::new(ExtractionConfig::default()),
                )
            });
            let to_world = Transform3::lidar_to_world(
                f.sensor_pose.position,
                f.sensor_pose.heading(),
                f.sensor_height,
            );
            let world = &mut self.shadow_world;
            run.trace
                .time("pointcloud.ground_transform", frame, None, || {
                    world.clear();
                    for o in &f.objects {
                        ground.apply_transformed_into(&o.points, &to_world, world);
                    }
                    ground.apply_transformed_into(&f.ground_sample, &to_world, world);
                });
            let scratch = &mut self.shadow_scratch;
            let out = run.trace.time("pointcloud.extract", frame, None, || {
                extractor.process_in(world, scratch)
            });
            run.add("pointcloud.extractions", 1.0);
            run.add("pointcloud.extract_points_in", world.len() as f64);
            run.add("pointcloud.objects_out", out.objects.len() as f64);
            run.add("pointcloud.moving_objects", out.moving_count() as f64);
            run.check(out.moving_count() == upload.objects.len(), || {
                format!(
                    "frame {frame} vehicle {}: shadow extraction found {} moving objects, the upload carries {}",
                    f.vehicle_id,
                    out.moving_count(),
                    upload.objects.len()
                )
            });
        }
    }
}

/// Counts one fleet scan into the `sim` tallies.
pub fn count_scan(run: &mut Run, scans: &[LidarFrame]) {
    let points: usize = scans
        .iter()
        .map(|f| f.ground_sample.len() + f.objects.iter().map(|o| o.points.len()).sum::<usize>())
        .sum();
    run.add("sim.scans", 1.0);
    run.add("sim.scan_points", points as f64);
}

/// Encodes one upload as the byte path would, as a span.
pub fn encode_upload(run: &mut Run, frame: u64, parent: Option<SpanId>, upload: Upload) -> Vec<u8> {
    let message = WireMessage::Upload { frame, upload };
    let bytes = run
        .trace
        .time("edge.wire.upload_encode", frame, parent, || {
            message.encode()
        });
    run.add("edge.wire.uploads", 1.0);
    run.add("edge.wire.upload_wire_bytes", bytes.len() as f64);
    bytes
}

/// Decodes one encoded upload as a span. A decode that fails counts as a
/// decode error and fails the frame.
pub fn decode_upload(
    run: &mut Run,
    frame: u64,
    parent: Option<SpanId>,
    bytes: &[u8],
) -> Option<Upload> {
    let decoded = run
        .trace
        .time("edge.wire.upload_decode", frame, parent, || {
            WireMessage::decode(bytes)
        });
    match decoded {
        Ok((WireMessage::Upload { upload, .. }, _)) => Some(upload),
        other => {
            decode_failed(run, frame, "upload", other.err());
            None
        }
    }
}

/// Encodes and decodes one upload, a span each; returns the decoded upload.
pub fn upload_round_trip(
    run: &mut Run,
    frame: u64,
    parent: Option<SpanId>,
    upload: Upload,
) -> Option<Upload> {
    let bytes = encode_upload(run, frame, parent, upload);
    decode_upload(run, frame, parent, &bytes)
}

/// Encodes and decodes one plan as the byte path would, a span each;
/// returns the decoded plan.
pub fn plan_round_trip(
    run: &mut Run,
    frame: u64,
    parent: Option<SpanId>,
    plan: DisseminationPlan,
) -> Option<DisseminationPlan> {
    let message = WireMessage::Plan {
        frame,
        acks: Vec::new(),
        plan,
    };
    let bytes = run
        .trace
        .time("edge.wire.plan_encode", frame, parent, || message.encode());
    run.add("edge.wire.plans", 1.0);
    run.add("edge.wire.plan_wire_bytes", bytes.len() as f64);
    let decoded = run.trace.time("edge.wire.plan_decode", frame, parent, || {
        WireMessage::decode(&bytes)
    });
    match decoded {
        Ok((WireMessage::Plan { plan, .. }, _)) => Some(plan),
        other => {
            decode_failed(run, frame, "plan", other.err());
            None
        }
    }
}

/// Records that a message this benchmark encoded itself did not decode
/// back: `error`, or another kind of message when there is none.
pub fn decode_failed(run: &mut Run, frame: u64, what: &str, error: Option<Error>) {
    run.add("edge.wire.decode_errors", 1.0);
    run.fail(match error {
        Some(e) => format!("frame {frame}: a self-encoded {what} failed to decode: {e}"),
        None => format!("frame {frame}: a self-encoded {what} decoded to another kind of message"),
    });
}
