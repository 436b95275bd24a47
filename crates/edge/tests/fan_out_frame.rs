//! Differential test of the edge's frame-level fan-out. A 128-vehicle
//! frame holds more than [`erpd_par::FAN_OUT_POINTS`] points, so
//! `WireTransport::recv_uploads` decodes it across workers and
//! `EdgeServer::process` runs the traffic-map merge beside
//! association → tracking → prediction → relevance. At 1, 2 and 4 threads
//! the decoded uploads, the server frame and the plan must be identical —
//! the frame-level fan-out is invisible in every output — and the decoded
//! uploads and the map's voxel count must equal what one frame decode at a
//! time and a lone `MergeStage` give.
//!
//! The pinned fingerprints (`tests/stage_graph_determinism.rs`,
//! `tests/multi_edge_equivalence.rs`) run frames below the constant, so
//! this is the test that covers the overlapped path.
//!
//! Both tests set the process-wide thread limit, so they hold one lock.

use erpd_core::{DisseminationPlan, Error};
use erpd_edge::capacity::{build_corpus, Corpus};
use erpd_edge::{
    FrameCx, MergeStage, PipelineBuilder, ServerFrame, ServingCore, Stage, SystemConfig, Transport,
    Upload, WireMessage, WireTransport,
};
use erpd_geometry::{Pose2, Vec2, Vec3};
use erpd_sim::ScenarioConfig;
use std::sync::Mutex;

/// Serialises the tests that set the process-wide thread limit.
static THREADS: Mutex<()> = Mutex::new(());

/// Replicas served per frame, as in the benchmark's `fleet_wire`.
const FLEET: usize = 128;
/// Corpus frames served per thread count.
const FRAMES: usize = 6;
/// Corpus frames skipped: the first scan uploads no points (extraction has
/// seen no motion yet) and the next few stay under the constant at 128
/// replicas.
const SKIPPED: usize = 5;

/// Replica `i` of a corpus upload: a fresh vehicle id, and pose and points
/// moved onto a ±20 m half-metre lattice so replicas do not coincide.
fn replica(source: &Upload, i: usize) -> Upload {
    let offset = Vec2::new(
        ((i * 73) % 80) as f64 * 0.5 - 20.0,
        ((i * 131) % 80) as f64 * 0.5 - 20.0,
    );
    let mut u = source.clone();
    u.vehicle_id = 10_000 + i as u64;
    u.pose = Pose2::new(u.pose.position + offset, u.pose.heading());
    let shift = Vec3::new(offset.x, offset.y, 0.0);
    for o in &mut u.objects {
        o.centroid += offset;
        o.points = o.points.iter().map(|p| p + shift).collect();
    }
    u
}

/// What one served frame produced, field by field.
struct Served {
    decoded: Vec<Upload>,
    frame: FrameOutputs,
    plan: DisseminationPlan,
}

/// The deterministic part of a [`ServerFrame`] (its `stages` are wall
/// time).
#[derive(Debug, PartialEq)]
struct FrameOutputs {
    matrix: erpd_core::RelevanceMatrix,
    map_points: usize,
    detections: Vec<erpd_edge::DetectionSummary>,
    sizes: Vec<(erpd_tracking::ObjectId, u64)>,
    receivers: Vec<erpd_tracking::ObjectId>,
    staleness: Vec<f64>,
    predicted_trajectories: usize,
}

impl From<ServerFrame> for FrameOutputs {
    fn from(sf: ServerFrame) -> Self {
        FrameOutputs {
            matrix: sf.matrix,
            map_points: sf.map_points,
            detections: sf.detections,
            sizes: sf.sizes.into_iter().collect(),
            receivers: sf.receivers,
            staleness: sf.staleness,
            predicted_trajectories: sf.predicted_trajectories,
        }
    }
}

/// Serves [`FRAMES`] corpus frames after the first [`SKIPPED`],
/// replicated to [`FLEET`] vehicles, through a wire transport and a fresh
/// serving core.
fn serve(corpus: &Corpus, config: &SystemConfig) -> Vec<Served> {
    let (server, strategy) = PipelineBuilder::new(config.server, corpus.map.clone()).build();
    let mut core = ServingCore::new(server, strategy);
    let mut transport = WireTransport::new();
    let budget = config.network.downlink_budget_bytes();
    let mut out = Vec::new();
    for (k, base) in corpus.frames.iter().skip(SKIPPED).take(FRAMES).enumerate() {
        let uploads: Vec<Upload> = (0..FLEET)
            .map(|i| replica(&base[i % base.len()], i))
            .collect();
        let points: usize = uploads
            .iter()
            .flat_map(|u| &u.objects)
            .map(|o| o.points.len())
            .sum();
        assert!(
            points >= erpd_par::FAN_OUT_POINTS,
            "frame {k}: {points} points stay below the fan-out constant"
        );
        let mut wire_bytes = 0;
        let mut one_by_one = Vec::new();
        for upload in uploads {
            let bytes = WireMessage::Upload {
                frame: k as u64,
                upload: upload.clone(),
            }
            .encode();
            wire_bytes += bytes.len();
            match WireMessage::decode(&bytes).unwrap().0 {
                WireMessage::Upload { upload, .. } => one_by_one.push(upload),
                other => panic!("an upload frame decoded as {other:?}"),
            }
            transport.send_upload(k as u64, upload).unwrap();
        }
        assert!(
            wire_bytes / 6 >= erpd_par::FAN_OUT_POINTS,
            "frame {k}: {wire_bytes} queued bytes stay below the fan-out constant"
        );
        let decoded = transport.recv_uploads().unwrap();
        assert!(decoded == one_by_one, "frame {k}: decoded uploads");
        let now = k as f64 * config.network.frame_period;
        let (sf, planned) = core.serve(now, &decoded, budget).unwrap();
        let cx = FrameCx {
            now,
            uploads: &decoded,
        };
        let lone = MergeStage::new(&config.server).run(&cx, ()).unwrap();
        assert_eq!(
            sf.map_points, lone.artifact.map_points,
            "frame {k}: map points"
        );
        out.push(Served {
            decoded,
            frame: sf.into(),
            plan: planned.artifact,
        });
    }
    out
}

#[test]
fn frames_above_the_fan_out_constant_are_identical_at_1_2_and_4_threads() {
    let _lock = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let config = SystemConfig::default();
    let corpus = build_corpus(
        ScenarioConfig::default(),
        &config,
        (SKIPPED + FRAMES) as u64,
    );
    assert_eq!(corpus.frames.len(), SKIPPED + FRAMES);
    erpd_par::set_max_threads(1);
    let reference = serve(&corpus, &config);
    assert_eq!(reference.len(), FRAMES);
    assert!(reference.iter().all(|s| s.decoded.len() == FLEET));
    assert!(
        reference.iter().any(|s| !s.plan.assignments.is_empty()),
        "the frames must plan something for the comparison to mean anything"
    );
    for threads in [2, 4] {
        erpd_par::set_max_threads(threads);
        let got = serve(&corpus, &config);
        for (k, (g, r)) in got.iter().zip(&reference).enumerate() {
            assert!(
                g.decoded == r.decoded,
                "threads {threads}, frame {k}: decoded uploads"
            );
            assert_eq!(
                g.frame, r.frame,
                "threads {threads}, frame {k}: server frame"
            );
            assert_eq!(g.plan, r.plan, "threads {threads}, frame {k}: plan");
        }
    }
    erpd_par::set_max_threads(0);
}

#[test]
fn a_rejected_frame_mid_queue_gives_the_first_error_and_drains_the_queue() {
    let _lock = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let config = SystemConfig::default();
    let corpus = build_corpus(ScenarioConfig::default(), &config, SKIPPED as u64 + 1);
    let base = &corpus.frames[SKIPPED];
    let mut uploads: Vec<Upload> = (0..FLEET)
        .map(|i| replica(&base[i % base.len()], i))
        .collect();
    // Two frames the decoder refuses; the one earlier in the queue wins.
    uploads[40].pose = Pose2::new(Vec2::new(2e6, 0.0), 0.0);
    let with_objects = (90..FLEET)
        .find(|&i| !uploads[i].objects.is_empty())
        .expect("a later upload with an object");
    uploads[with_objects].objects[0].centroid = Vec2::new(f64::NAN, 0.0);
    let points: usize = uploads
        .iter()
        .flat_map(|u| &u.objects)
        .map(|o| o.points.len())
        .sum();
    assert!(points >= erpd_par::FAN_OUT_POINTS, "{points} points");

    for threads in [1, 2] {
        erpd_par::set_max_threads(threads);
        let mut transport = WireTransport::new();
        for upload in &uploads {
            transport.send_upload(2, upload.clone()).unwrap();
        }
        assert_eq!(
            transport.recv_uploads(),
            Err(Error::Codec {
                reason: "upload pose is out of range"
            }),
            "threads {threads}"
        );
        assert_eq!(
            transport.recv_uploads(),
            Ok(Vec::new()),
            "threads {threads}: queue drained"
        );
    }
    erpd_par::set_max_threads(0);
}
