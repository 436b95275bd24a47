//! Driving the server's stage chain by hand gives the server's result.
//!
//! `MergeStage → AssociateStage → TrackStage → PredictStage →
//! RelevanceStage → GreedyDissemination`, stepped one `run` at a time,
//! must produce — frame by frame — the very `ServerFrame` an
//! [`EdgeServer`] composes and the very plan a [`ServingCore`] running
//! `Strategy::Ours` serves, on the same uploads. Callers that time the
//! stages one by one rely on that. Uploads are withheld on a fixed pattern
//! and coasting is on, so coasted vehicles and tracks flow through every
//! stage too.

use erpd_edge::capacity::build_corpus;
use erpd_edge::{
    AssociateStage, EdgeServer, FrameCx, GreedyDissemination, MergeStage, PlanRequest,
    PredictStage, RelevanceStage, ServerConfig, ServingCore, Stage, Strategy, SystemConfig,
    TrackStage, Upload,
};
use erpd_sim::{ScenarioConfig, ScenarioKind};
use std::sync::Arc;

/// Frame period of the replayed corpus, seconds.
const PERIOD: f64 = 0.1;

#[test]
fn stepping_the_stages_by_hand_matches_the_server_and_the_serving_core() {
    let server = ServerConfig::default().with_coast_horizon(1.0);
    let system = SystemConfig::new(Strategy::Ours).with_server(server);
    let corpus = build_corpus(
        ScenarioConfig::default()
            .with_kind(ScenarioKind::UnprotectedLeftTurn)
            .with_n_vehicles(16)
            .with_seed(5),
        &system,
        40,
    );
    assert!(
        corpus.frames.len() >= 30,
        "{} corpus frames",
        corpus.frames.len()
    );
    let budget = system.network.downlink_budget_bytes();

    let map = Arc::new(corpus.map.clone());
    let mut merge = MergeStage::new(&server);
    let mut associate = AssociateStage::new(&server);
    let mut track = TrackStage::new(&server, Arc::clone(&map));
    let mut predict = PredictStage::new(&server, map);
    let mut relevance = RelevanceStage::new(&server);
    let mut disseminate = GreedyDissemination;

    let mut edge = EdgeServer::new(server, corpus.map.clone());
    let mut core = ServingCore::new(EdgeServer::new(server, corpus.map.clone()), Strategy::Ours);

    let mut coasted = 0usize;
    for (k, frame) in corpus.frames.iter().enumerate() {
        // Withhold every third vehicle's upload on a rotating pattern, so
        // vehicles drop out for a frame and coast.
        let uploads: Vec<Upload> = frame
            .iter()
            .enumerate()
            .filter(|(i, _)| (i + k) % 3 != 0)
            .map(|(_, u)| u.clone())
            .collect();
        let now = k as f64 * PERIOD;
        let cx = FrameCx {
            now,
            uploads: &uploads,
        };
        let merged = merge.run(&cx, ()).unwrap();
        let assoc = associate.run(&cx, merged.artifact).unwrap();
        let tracked = track.run(&cx, assoc.artifact).unwrap();
        let predicted = predict.run(&cx, tracked.artifact).unwrap();
        let by_hand = relevance.run(&cx, predicted.artifact).unwrap().artifact;
        let plan = disseminate
            .run(
                &cx,
                PlanRequest {
                    frame: &by_hand,
                    budget,
                },
            )
            .unwrap()
            .artifact;

        let composed = edge.process(now, &uploads).unwrap();
        let (served, served_plan) = core.serve(now, &uploads, budget).unwrap();
        for (name, sf) in [("EdgeServer", &composed), ("ServingCore", &served)] {
            assert_eq!(by_hand.matrix, sf.matrix, "frame {k}: {name} matrix");
            assert_eq!(by_hand.sizes, sf.sizes, "frame {k}: {name} sizes");
            assert_eq!(
                by_hand.receivers, sf.receivers,
                "frame {k}: {name} receivers"
            );
            assert_eq!(
                by_hand.detections, sf.detections,
                "frame {k}: {name} detections"
            );
            assert_eq!(
                by_hand.staleness, sf.staleness,
                "frame {k}: {name} staleness"
            );
        }
        assert_eq!(
            composed.map_points, merged.artifact.map_points,
            "frame {k}: map"
        );
        assert_eq!(plan, served_plan.artifact, "frame {k}: plan");
        coasted += by_hand.staleness.len();
    }
    assert!(coasted > 0, "withheld uploads must coast");
}
