//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root is [`manifest`] rendered — a unit test holds the two together.

use crate::json::Json;

/// Seconds one run measures for (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "intersection",
        why: "One System::tick on the paper's 40-vehicle scenario, loopback: scanning and vehicle-side extraction dominate, the server stages are small. The workload extraction work must show on.",
    },
    Workload {
        name: "fleet_wire",
        why: "The edge's share of a frame for 128 replayed vehicles over the byte path without sockets: zero extraction; merge, quadratic relevance and the codec dominate. Vehicle-side work must not show here.",
    },
    Workload {
        name: "daemon_rtt",
        why: "Upload-to-acked-plan round trips of 2 clients against an in-process EdgeDaemon on 127.0.0.1: tiny messages, so frame-close wait, thread hand-off and socket cost dominate and stage work is nil.",
    },
    Workload {
        name: "multi_edge",
        why: "One Deployment::tick over 4 strip edges with dual-report handover and the wire transport: the same layers routed, ghosted and run as four small cores, so per-edge overhead shows as a loss.",
    },
];

use Better::{Higher, Lower};

pub const END_TO_END: [Metric; 7] = [
    e2e("frame_ms_p50", "ms", Lower, 0.15),
    e2e("frame_ms_p95", "ms", Lower, 0.20),
    e2e("frames_per_s", "1/s", Higher, 0.20),
    e2e("uplink_bytes_per_frame", "bytes", Lower, 0.02),
    e2e("downlink_bytes_per_frame", "bytes", Lower, 0.06),
    e2e("plan_relevance_per_frame", "relevance", Higher, 0.05),
    e2e("setup_s", "s", Lower, 0.25),
];

pub const PER_LAYER: [Metric; 58] = [
    layer("sim.scan_ms", "ms", Lower),
    layer("sim.scan_points", "count", Lower),
    layer("sim.step_ms", "ms", Lower),
    layer("sim.safe_passage_share", "ratio", Higher),
    layer("pointcloud.ground_transform_ms", "ms", Lower),
    layer("pointcloud.extract_ms", "ms", Lower),
    layer("pointcloud.extract_points_in", "count", Lower),
    layer("pointcloud.objects_out", "count", Higher),
    layer("pointcloud.moving_share", "ratio", Lower),
    layer("pointcloud.merge_ms", "ms", Lower),
    layer("pointcloud.merge_points_in", "count", Lower),
    layer("pointcloud.merge_cache_hit_share", "ratio", Higher),
    layer("pointcloud.merge_rejected_points", "count", Lower),
    layer("edge.upload.process_ms", "ms", Lower),
    layer("edge.upload.process_ms_p95", "ms", Lower),
    layer("edge.upload.process_jetson_ms", "ms", Lower),
    layer("edge.upload.bytes_per_upload", "bytes", Lower),
    layer("edge.upload.objects_per_upload", "count", Higher),
    layer("edge.wire.upload_encode_us", "us", Lower),
    layer("edge.wire.upload_decode_us", "us", Lower),
    layer("edge.wire.upload_wire_bytes", "bytes", Lower),
    layer("edge.wire.plan_encode_us", "us", Lower),
    layer("edge.wire.plan_decode_us", "us", Lower),
    layer("edge.wire.plan_wire_bytes", "bytes", Lower),
    layer("edge.wire.handover_roundtrip_us", "us", Lower),
    layer("edge.wire.handover_wire_bytes", "bytes", Lower),
    layer("edge.wire.decode_errors", "count", Lower),
    layer("edge.pipeline.associate_ms", "ms", Lower),
    layer("tracking.track_ms", "ms", Lower),
    layer("tracking.predict_ms", "ms", Lower),
    layer("tracking.tracks", "count", Higher),
    layer("tracking.predicted_trajectories", "count", Lower),
    layer("tracking.coasted_objects", "count", Lower),
    layer("core.relevance_ms", "ms", Lower),
    layer("core.relevance_pairs", "count", Lower),
    layer("core.relevance_nonzero_share", "ratio", Higher),
    layer("core.disseminate_ms", "ms", Lower),
    layer("core.plan_assignments", "count", Higher),
    layer("edge.transport.serve_ms", "ms", Lower),
    layer("edge.transport.tcp_send_us", "us", Lower),
    layer("edge.transport.over_period_frames", "count", Lower),
    layer("edge.daemon.overhead_ms", "ms", Lower),
    layer("edge.daemon.frames_served", "count", Higher),
    layer("edge.daemon.rounds_per_frame_served", "ratio", Lower),
    layer("edge.daemon.missed_acks", "count", Lower),
    layer("edge.daemon.broadcast_bytes_per_frame", "bytes", Lower),
    layer("edge.daemon.connect_ms", "ms", Lower),
    layer("edge.multi.handovers", "count", Lower),
    layer("edge.multi.ghost_uploads_per_frame", "count", Lower),
    layer("edge.multi.max_edge_upload_share", "ratio", Lower),
    layer("edge.multi.overhead_ms", "ms", Lower),
    layer("par.threads", "count", Higher),
    layer("bench.samples", "count", Higher),
    layer("bench.frame_ms_p99", "ms", Lower),
    layer("bench.gen_share", "ratio", Lower),
    layer("bench.peak_rss_mb", "MiB", Lower),
    layer("bench.trace_frame_ratio", "ratio", Lower),
    layer("bench.unattributed_share", "ratio", Lower),
];

/// `BENCHMARK.json`, exactly.
pub fn manifest() -> Json {
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound", Json::num(bound)));
        }
        Json::object(fields)
    };
    Json::object([
        (
            "command",
            Json::Array(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Array(vec![Json::str("benchmark")])),
        ("run_seconds", Json::num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Array(
                WORKLOADS
                    .iter()
                    .map(|w| Json::object([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Array(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Array(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(is_name(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(is_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(unit_ok));
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!((0.0..=0.25).contains(&bound), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest().render_pretty(),
            "BENCHMARK.json is stale: regenerate it with `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
