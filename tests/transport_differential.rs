//! Differential tests across the transport seam.
//!
//! 1. **Loopback vs wire codec**: the same scenario served through the
//!    default identity transport and through [`WireTransport`] (every
//!    upload and plan round-trips the v1 wire codec in process). The wire
//!    path quantises point clouds, so detections may move by the codec's
//!    sub-centimetre bound — but counts, byte tallies, and alert decisions
//!    must agree.
//! 2. **TCP daemon vs local reference**: vehicle clients replay a corpus
//!    against a real [`EdgeDaemon`] over sockets, in lockstep, and every
//!    broadcast plan must equal — exactly — what a local [`ServingCore`]
//!    computes from the same codec-round-tripped uploads. Same bytes in,
//!    same code, same plan out: that is the claim that makes the daemon a
//!    drop-in serving path.

use erpd::prelude::*;
use erpd_edge::capacity::build_corpus;
use erpd_edge::wire::write_message;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn scenario() -> Scenario {
    Scenario::build(
        ScenarioConfig::default()
            .with_kind(ScenarioKind::UnprotectedLeftTurn)
            .with_n_vehicles(12)
            .with_seed(3),
    )
}

#[test]
fn loopback_and_wire_transport_agree_frame_for_frame() {
    let run = |wire: bool| {
        let mut s = scenario();
        let cfg = SystemConfig::new(Strategy::Ours);
        let mut builder = System::builder(cfg);
        if wire {
            builder = builder.transport(Box::new(WireTransport::new()));
        }
        let mut sys = builder.build(&s.world);
        let mut frames = Vec::new();
        for _ in 0..30 {
            let r = sys.tick(&mut s.world).expect("valid configuration");
            frames.push(r);
            s.world.step();
        }
        frames
    };
    let loopback = run(false);
    let wire = run(true);
    for (k, (a, b)) in loopback.iter().zip(&wire).enumerate() {
        assert_eq!(a.expected_uploads, b.expected_uploads, "frame {k}");
        assert_eq!(a.delivered_uploads, b.delivered_uploads, "frame {k}");
        assert_eq!(a.lost_uploads, b.lost_uploads, "frame {k}");
        // Upload byte accounting is integral and codec-exempt.
        assert_eq!(a.upload_bytes, b.upload_bytes, "frame {k}");
        // Detections may shift by the point codec's quantisation, bounded
        // well under a centimetre for intersection-scale clouds.
        assert_eq!(a.detected_positions.len(), b.detected_positions.len(), "frame {k}");
        for (p, q) in a.detected_positions.iter().zip(&b.detected_positions) {
            assert!(
                p.distance(*q) < 0.02,
                "frame {k}: detection moved {} m across the codec",
                p.distance(*q)
            );
        }
        assert_eq!(a.alerted, b.alerted, "frame {k}: alert decisions must agree");
        assert_eq!(a.assignments, b.assignments, "frame {k}");
    }
}

#[test]
fn built_transport_reports_its_name() {
    let s = scenario();
    let sys = System::builder(SystemConfig::new(Strategy::Ours)).build(&s.world);
    assert_eq!(sys.transport_name(), "loopback");
    let sys = System::builder(SystemConfig::new(Strategy::Ours))
        .transport(Box::new(WireTransport::new()))
        .build(&s.world);
    assert_eq!(sys.transport_name(), "wire");
}

#[test]
fn tcp_daemon_matches_local_serving_core_exactly() {
    // A long frame period turns the daemon's early-close policy into pure
    // lockstep: a frame closes exactly when every client has submitted,
    // never on the wall-clock deadline, so daemon frame k IS round k.
    const PERIOD: f64 = 5.0;
    const ROUNDS: usize = 6;
    let system = SystemConfig::new(Strategy::Ours)
        .with_network(NetworkConfig::default().with_frame_period(PERIOD));
    let corpus = build_corpus(
        ScenarioConfig::default()
            .with_kind(ScenarioKind::UnprotectedLeftTurn)
            .with_n_vehicles(12)
            .with_seed(3),
        &system,
        ROUNDS as u64 + 4,
    );
    // The vehicles present in every corpus frame become the clients.
    let mut vehicles: Vec<u64> = corpus.frames[0].iter().map(|u| u.vehicle_id).collect();
    for f in &corpus.frames[..ROUNDS] {
        vehicles.retain(|v| f.iter().any(|u| u.vehicle_id == *v));
    }
    vehicles.truncate(4);
    assert!(vehicles.len() >= 2, "need at least two stable vehicles");

    let mut handle = EdgeDaemon::spawn(
        DaemonConfig::new(system),
        corpus.map.clone(),
        "127.0.0.1:0",
    )
    .expect("daemon binds");
    let mut clients: BTreeMap<u64, TcpTransport> = vehicles
        .iter()
        .map(|&v| {
            let mut t = TcpTransport::connect(handle.addr()).expect("client connects");
            t.send_message(&WireMessage::Hello { vehicle_id: v }).unwrap();
            (v, t)
        })
        .collect();
    // `Hello` is registered by each connection's reader thread, and a frame
    // closes all-in over the vehicles registered *so far*: uploading before
    // every handshake has landed would let round 0 close without the
    // stragglers. Wait (bounded) until the daemon has seen everyone.
    let registered_by = Instant::now() + Duration::from_secs(20);
    while handle.connected_vehicles() < vehicles.len() {
        assert!(Instant::now() < registered_by, "handshakes must register");
        std::thread::sleep(Duration::from_millis(1));
    }

    // The local reference: the same stage graph the daemon serves, fed
    // the same uploads after the same codec round trip, with the daemon's
    // strategy (`Strategy::Ours`, the greedy knapsack).
    let mut reference = ServingCore::new(
        EdgeServer::new(system.server, corpus.map.clone()),
        Strategy::Ours,
    );
    let budget = system.network.downlink_budget_bytes();

    for round in 0..ROUNDS {
        // Every client sends its upload for this round...
        let mut sent: BTreeMap<u64, erpd_edge::Upload> = BTreeMap::new();
        for (&v, t) in clients.iter_mut() {
            let u = corpus.frames[round]
                .iter()
                .find(|u| u.vehicle_id == v)
                .expect("stable vehicle uploads every round")
                .clone();
            t.send_message(&WireMessage::Upload { frame: round as u64, upload: u.clone() })
                .unwrap();
            sent.insert(v, u);
        }
        // ...and waits for the daemon's broadcast (lockstep).
        let mut daemon_plans = Vec::new();
        for (&v, t) in clients.iter_mut() {
            loop {
                let msg = t
                    .recv_message(Duration::from_secs(20))
                    .expect("daemon responds")
                    .expect("stream stays open");
                if let WireMessage::Plan { frame, acks, plan } = msg {
                    if acks.iter().any(|&(av, af)| av == v && af == round as u64) {
                        daemon_plans.push((frame, acks, plan));
                        break;
                    }
                }
            }
        }
        // Every client saw the very same frame and plan.
        for w in daemon_plans.windows(2) {
            assert_eq!(w[0], w[1], "round {round}: broadcast must be uniform");
        }
        let (frame, acks, daemon_plan) = daemon_plans.pop().unwrap();
        assert_eq!(frame, round as u64, "lockstep: daemon frame == round");
        assert_eq!(acks.len(), vehicles.len(), "round {round}: everyone acked");

        // The reference serves the codec-round-tripped uploads in the
        // daemon's (vehicle-sorted) order at the daemon's clock.
        let mut wire = WireTransport::new();
        for u in sent.into_values() {
            wire.send_upload(round as u64, u).unwrap();
        }
        let arrivals = wire.recv_uploads().unwrap();
        let (_, planned) = reference
            .serve(round as f64 * PERIOD, &arrivals, budget)
            .expect("reference serves");
        assert_eq!(
            daemon_plan, planned.artifact,
            "round {round}: the daemon must compute the exact plan the local core does"
        );
    }
    for (_, t) in clients.iter_mut() {
        let _ = t.send_message(&WireMessage::Bye);
    }
    assert_eq!(handle.frames_served(), ROUNDS as u64);
    handle.shutdown();
}

/// `write_message` and the transport's buffered reader interoperate over a
/// plain byte stream — the framing survives arbitrary chunking.
#[test]
fn framing_survives_byte_level_chunking() {
    let plan = DisseminationPlan::default();
    let msg = WireMessage::Plan { frame: 9, acks: vec![(1, 2)], plan };
    let mut bytes = Vec::new();
    write_message(&mut bytes, &msg).unwrap();
    // Feed the stream one byte at a time through decode_frame.
    let mut buf = Vec::new();
    let mut decoded = None;
    for &b in &bytes {
        buf.push(b);
        if let Some((m, used)) = WireMessage::decode_frame(&buf).expect("no corruption") {
            assert_eq!(used, buf.len());
            decoded = Some(m);
        }
    }
    assert_eq!(decoded, Some(msg));
}
