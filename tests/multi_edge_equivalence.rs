//! Pins the single-edge degenerate case of the multi-edge deployment: a
//! 1-edge [`Deployment`] must be plan-for-plan, bit-for-bit identical to
//! a bare [`System`] — same frame reports, same relevance matrices, same
//! dissemination plans, on the ideal *and* the faulty channel.
//!
//! The fingerprints below are the ones `stage_graph_determinism.rs` pins
//! for the bare system, hashed with the same FNV scheme over the same
//! scenario — so this test fails if the deployment's routing, ghost
//! accounting, or track-id namespacing perturbs the single-edge path by
//! even one bit. Like that suite, the one `#[test]` below checks the
//! constants sequentially and on four worker threads.

use erpd::prelude::*;

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
    h.push(r.coasted_objects as u64);
    for &s in &r.staleness {
        h.push_f64(s);
    }
    for (_, sample) in sf.stages.iter() {
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
    // The thread count is process-wide; this file's single test owns it.
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
