//! Pins the frame-for-frame behaviour of the edge pipeline across the
//! stage-graph refactor: the fingerprints below were captured from the
//! pre-refactor straight-line `EdgeServer::process` / `System::tick`
//! implementation, so a passing run proves the composed stage graph is
//! bit-identical to it — deterministic counters, ids, byte tallies, and
//! every `f64` (positions, relevances, staleness) compared via `to_bits`.
//!
//! The same constants must hold sequentially and on four worker threads
//! (the one `#[test]` below pins `set_max_threads` to 1, then 4) and on
//! ideal *and* faulty networks; wall-clock fields are the only exemption.

use erpd::prelude::*;

/// FNV-1a over a stream of u64 words.
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

/// Hashes every deterministic field of a frame report plus the server
/// frame's relevance matrix, sizes, and receivers.
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
    // Per-stage item counts are deterministic (seconds are wall clock).
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

/// Runs the pinned scenario for `frames` ticks, folding each frame into an
/// FNV-1a with `hash`.
fn run(
    strategy: Strategy,
    fault: FaultModel,
    coast: f64,
    frames: usize,
    hash: fn(&mut Fnv, &FrameReport, &ServerFrame),
) -> u64 {
    let mut s = Scenario::build(
        ScenarioConfig::default()
            .with_kind(ScenarioKind::UnprotectedLeftTurn)
            .with_n_vehicles(24)
            .with_seed(5),
    );
    let cfg = SystemConfig::new(strategy)
        .with_network(NetworkConfig::default().with_fault(fault))
        .with_server(ServerConfig::default().with_coast_horizon(coast));
    let mut sys = System::builder(cfg).build(&s.world);
    let mut h = Fnv::new();
    for _ in 0..frames {
        let r = sys.tick(&mut s.world).expect("valid configuration");
        hash(&mut h, &r, sys.last_server_frame());
        s.world.step();
    }
    h.0
}

fn faulty() -> FaultModel {
    FaultModel::default()
        .with_loss_prob(0.2)
        .with_jitter(0.02)
        .with_churn_prob(0.05)
        .with_truncate_prob(0.2)
        .with_seed(11)
}

#[test]
fn pipeline_fingerprints_match_the_pre_refactor_implementation() {
    let cases: [(&str, Strategy, FaultModel, f64, usize, u64); 8] = [
        ("ours/ideal", Strategy::Ours, FaultModel::default(), 0.0, 40, 0x07ed590fdcbdf321),
        // Re-pinned when truncation faults moved to the wire level: a
        // truncated upload is now clipped as an encoded v1 frame and
        // lossily re-decoded (complete leading objects survive, points
        // carry the codec's quantisation), instead of dropping a suffix
        // of in-memory objects. Zero-fault cases are unaffected — the
        // loopback transport passes uploads through untouched.
        ("ours/faulty", Strategy::Ours, faulty(), 1.0, 40, 0xc4e6e9cb4854091f),
        ("emp/ideal", Strategy::Emp, FaultModel::default(), 0.0, 20, 0x53f3219fc18e761f),
        ("unlimited/ideal", Strategy::Unlimited, FaultModel::default(), 0.0, 20, 0x2ba07434e1666a26),
        // 20 frames of V2V: its per-receiver fusion fan-out is held to
        // one fingerprint at 1 and at 4 threads.
        ("v2v/ideal", Strategy::V2v, FaultModel::default(), 0.0, 20, 0xfb2fed2c4b259a79),
        // The faulty channel for every other strategy: loss, jitter,
        // churn and wire-level truncation reach EMP and Unlimited through
        // the edge path and V2V through its broadcast channel.
        ("emp/faulty", Strategy::Emp, faulty(), 1.0, 20, 0x3946eadd4e813346),
        ("unlimited/faulty", Strategy::Unlimited, faulty(), 1.0, 20, 0xb2e094c8db3298cd),
        ("v2v/faulty", Strategy::V2v, faulty(), 1.0, 20, 0x5776462a380cbae4),
    ];
    // The thread count is process-wide; only this test sets it.
    for threads in [1, 4] {
        set_max_threads(threads);
        for (name, strategy, fault, coast, frames, expected) in cases {
            let got = run(strategy, fault, coast, frames, hash_frame);
            assert_eq!(
                got, expected,
                "{name} at {threads} thread(s): fingerprint {got:#018x} != pinned {expected:#018x}"
            );
        }
    }
}

/// Pins the merged traffic map: an FNV-1a over every frame's
/// `ServerFrame::map_points` (the occupied-voxel count) for the runs above,
/// which `hash_frame` does not read. Thread-independent, so it leaves the
/// process-wide thread count to the test above.
#[test]
fn traffic_map_voxel_counts_are_pinned() {
    fn hash_map(h: &mut Fnv, _: &FrameReport, sf: &ServerFrame) {
        h.push(sf.map_points as u64);
    }
    let cases: [(&str, Strategy, FaultModel, f64, usize, u64); 5] = [
        ("ours/ideal", Strategy::Ours, FaultModel::default(), 0.0, 40, 0x3bd4bc1790355428),
        ("ours/faulty", Strategy::Ours, faulty(), 1.0, 40, 0xfe4ba22cbc91ff40),
        ("emp/ideal", Strategy::Emp, FaultModel::default(), 0.0, 20, 0x09c58d7868d7bb65),
        ("unlimited/ideal", Strategy::Unlimited, FaultModel::default(), 0.0, 20, 0x82822fd196f21631),
        ("v2v/ideal", Strategy::V2v, FaultModel::default(), 0.0, 10, 0xd3cdc41b4b32691d),
    ];
    for (name, strategy, fault, coast, frames, expected) in cases {
        let got = run(strategy, fault, coast, frames, hash_map);
        assert_eq!(
            got, expected,
            "{name}: map_points fingerprint {got:#018x} != pinned {expected:#018x}"
        );
    }
}
