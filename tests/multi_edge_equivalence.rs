//! Pins the multi-edge deployment.
//!
//! The single-edge degenerate case: a 1-edge [`Deployment`] must be
//! plan-for-plan, bit-for-bit identical to a bare [`System`] — same frame
//! reports, same relevance matrices, same dissemination plans, on the
//! ideal *and* the faulty channel. Its fingerprints are the ones
//! `stage_graph_determinism.rs` pins for the bare system, hashed with the
//! same FNV scheme over the same scenario — so the test fails if the
//! deployment's routing, ghost accounting, or track-id namespacing
//! perturbs the single-edge path by even one bit.
//!
//! The benchmark's `multi_edge` shape: four strip edges with dual
//! reporting and the wire transport, where vehicles hand over between
//! edges — tracks, pose histories and EMP's rotation offset cross an edge
//! boundary. Pinned for each edge-served strategy.
//!
//! Like `stage_graph_determinism.rs`, every constant is checked
//! sequentially and on four worker threads.

use erpd::prelude::*;
use std::sync::Mutex;

/// The thread count is process-wide: each test holds this lock while it
/// sets and uses it.
static THREADS: Mutex<()> = Mutex::new(());

/// FNV-1a over a stream of u64 words (same scheme as
/// `stage_graph_determinism.rs`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn push(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x100000001b3);
    }

    fn push_f64(&mut self, x: f64) {
        self.push(x.to_bits());
    }
}

fn hash_frame(h: &mut Fnv, r: &FrameReport, sf: &ServerFrame) {
    for &b in &r.upload_bytes {
        h.push(b);
    }
    h.push(r.dissemination_bytes);
    h.push(r.assignments as u64);
    for &a in &r.alerted {
        h.push(a);
    }
    for p in &r.detected_positions {
        h.push_f64(p.x);
        h.push_f64(p.y);
    }
    h.push(r.predicted_trajectories as u64);
    h.push(r.expected_uploads as u64);
    h.push(r.delivered_uploads as u64);
    h.push(r.lost_uploads as u64);
    h.push(r.late_uploads as u64);
    h.push(r.truncated_uploads as u64);
    h.push(r.staleness.len() as u64);
    for &s in &r.staleness {
        h.push_f64(s);
    }
    for sample in sf.stages.iter() {
        h.push(sample.items as u64);
    }
    for (receiver, object, relevance) in sf.matrix.iter() {
        h.push(receiver.0);
        h.push(object.0);
        h.push_f64(relevance);
    }
    for (&id, &bytes) in &sf.sizes {
        h.push(id.0);
        h.push(bytes);
    }
    for &id in &sf.receivers {
        h.push(id.0);
    }
}

/// The determinism suite's scenario, served by a 1-edge deployment.
fn deployment_fingerprint(fault: FaultModel, coast: f64, frames: usize) -> u64 {
    let mut s = Scenario::build(
        ScenarioConfig::default()
            .with_kind(ScenarioKind::UnprotectedLeftTurn)
            .with_n_vehicles(24)
            .with_seed(5),
    );
    let cfg = SystemConfig::new(Strategy::Ours)
        .with_network(NetworkConfig::default().with_fault(fault))
        .with_server(ServerConfig::default().with_coast_horizon(coast));
    let mut dep = Deployment::builder()
        .config(cfg)
        .build(&s.world)
        .expect("edge strategy");
    assert_eq!(dep.n_edges(), 1);
    let mut h = Fnv::new();
    for _ in 0..frames {
        let r = dep.tick(&mut s.world).expect("valid configuration");
        hash_frame(&mut h, &r.per_edge[0], dep.edge(0).last_server_frame());
        s.world.step();
    }
    assert_eq!(dep.handovers(), 0, "one edge has nowhere to hand over to");
    h.0
}

#[test]
fn one_edge_deployment_matches_the_pinned_system_fingerprints() {
    let _threads = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1, 4] {
        set_max_threads(threads);
        // Ideal channel: the exact constant stage_graph_determinism.rs pins
        // for the bare system.
        let ideal = deployment_fingerprint(FaultModel::default(), 0.0, 40);
        assert_eq!(
            ideal, 0x07ed590fdcbdf321,
            "ideal at {threads} thread(s): deployment fingerprint {ideal:#018x} diverged from the bare system"
        );

        // Faulty channel with coasting: loss, jitter, churn, and wire-level
        // truncation all flow through the deployment's frame routing.
        let fault = FaultModel::default()
            .with_loss_prob(0.2)
            .with_jitter(0.02)
            .with_churn_prob(0.05)
            .with_truncate_prob(0.2)
            .with_seed(11);
        let faulty = deployment_fingerprint(fault, 1.0, 40);
        assert_eq!(
            faulty, 0xc4e6e9cb4854091f,
            "faulty at {threads} thread(s): deployment fingerprint {faulty:#018x} diverged from the bare system"
        );
    }
}

/// The benchmark's `multi_edge` shape: the 40-vehicle, half-connected
/// unprotected left turn (scenario seed 1, default time to conflict) over
/// four strip edges with `DualReport { margin: 30.0 }` and a wire
/// transport per edge, 150 frames. Hashes every edge's report, server
/// frame and plan each frame.
fn four_edge_fingerprint(strategy: Strategy) -> u64 {
    let mut s = Scenario::build(
        ScenarioConfig::default()
            .with_kind(ScenarioKind::UnprotectedLeftTurn)
            .with_n_vehicles(40)
            .with_connected_fraction(0.5)
            .with_seed(1),
    );
    let mut builder = Deployment::builder()
        .config(SystemConfig::new(strategy))
        .edges(4)
        .handover(HandoverPolicy::DualReport { margin: 30.0 });
    for _ in 0..4 {
        builder = builder.transport(Box::new(WireTransport::new()));
    }
    let mut dep = builder.build(&s.world).expect("edge strategy");
    let mut h = Fnv::new();
    for _ in 0..150 {
        let r = dep.tick(&mut s.world).expect("valid configuration");
        h.push(r.handovers as u64);
        for (k, report) in r.per_edge.iter().enumerate() {
            let edge = dep.edge(k);
            hash_frame(&mut h, report, edge.last_server_frame());
            for a in &edge.last_plan().assignments {
                h.push(a.object.0);
                h.push(a.receiver.0);
                h.push_f64(a.relevance);
                h.push(a.size_bytes);
            }
        }
        s.world.step();
    }
    assert!(
        dep.handovers() >= 1,
        "{strategy:?}: no vehicle crossed a strip boundary"
    );
    h.0
}

#[test]
fn four_edge_dual_report_deployment_fingerprints_are_pinned() {
    let _threads = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let pinned = [
        (Strategy::Ours, 0x267ae270a1ac1b8b),
        (Strategy::Emp, 0x882c179c2f35243d),
        (Strategy::Unlimited, 0x84c166150c948ad6),
    ];
    for threads in [1, 4] {
        set_max_threads(threads);
        for (strategy, want) in pinned {
            let got = four_edge_fingerprint(strategy);
            assert_eq!(
                got, want,
                "{strategy:?} at {threads} thread(s): fingerprint {got:#018x} moved"
            );
        }
    }
}
