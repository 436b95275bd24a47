//! `daemon_rtt`: upload → acked-plan round trips against an in-process
//! `EdgeDaemon` on the loopback interface (`127.0.0.1:0`).
//!
//! Two client threads, one TCP connection and one vehicle each, replay two
//! vehicles of the default scenario's upload corpus. After `Hello` they
//! meet at a barrier, then run in lockstep with zero think time: send the
//! upload, wait (at most two frame periods) for the plan broadcast whose
//! acks name it. A frame is one such round trip. The messages are the
//! smallest the system carries, so the fixed per-message cost dominates:
//! the daemon's frame-close wait, the reader → serve thread hand-off, the
//! socket writes and the broadcast. A unit is 500 rounds per client; the
//! clients agree at each unit boundary whether time is up.
//!
//! A run is five **sessions**, each with a daemon, connections and warm-up
//! of its own, and the timing metrics are the medians over the sessions.
//! Round-trip time here depends on how the scheduler happens to place the
//! daemon's and the clients' seven threads on the machine's cores, which
//! is settled anew for every session and drifts within one; one long
//! session reads several percent apart from run to run, the median of
//! five does not. Each session's set-up is one sample of `setup_s`.
//!
//! When a session's clients are done, every plan its daemon broadcast is
//! checked against a local `ServingCore` fed the uploads its acks name,
//! decoded from the same wire frames; that core's serve time is what the
//! daemon's round trip is compared with (`edge.daemon.overhead_ms`).
//! Serving two such uploads locally takes most of a round trip, so the
//! check lasts about as long as the load did: the clients run for half of
//! `--seconds` in all and the checks take the other half.

use super::fleet_wire::serving_core;
use super::{Run, Timing};
use crate::gen::{corpus, remap_upload, replica_id};
use crate::recompose::upload_round_trip;
use crate::stats::p50;
use erpd_core::DisseminationPlan;
use erpd_edge::capacity::Corpus;
use erpd_edge::{
    DaemonConfig, EdgeDaemon, Error, ServerHandle, SystemConfig, TcpTransport, Upload, WireMessage,
};
use erpd_geometry::Vec2;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const CLIENTS: usize = 2;
pub const WARMUP_ROUNDS: u64 = 50;
pub const ROUNDS_PER_UNIT: u64 = 500;
const SESSIONS: usize = 5;
/// The byte/relevance metrics are taken over the first session's first
/// two units, which every run completes.
const COUNTED_ROUNDS: u64 = 2 * ROUNDS_PER_UNIT;

/// One plan broadcast as a client read it.
struct Broadcast {
    server_frame: u64,
    acks: Vec<(u64, u64)>,
    plan: DisseminationPlan,
}

/// One round trip as its client timed it.
struct Round {
    round: u64,
    sent_at: Instant,
    /// When `send_message` returned (traced run only).
    send_done: Option<Instant>,
    /// When the acking broadcast was read; `None` when it never came.
    acked_at: Option<Instant>,
}

#[derive(Default)]
struct ClientLog {
    connect_ms: f64,
    rounds: Vec<Round>,
    /// Every broadcast read, in order (kept by the first client only).
    broadcasts: Vec<Broadcast>,
    units: u64,
}

/// What the leader (the first client) observes for the whole session.
#[derive(Default)]
struct Leader {
    warmed_up_at: Option<Instant>,
    frames_served_at_start: u64,
    frames_served_at_end: u64,
    measured_s: f64,
}

struct Session<'a> {
    addr: SocketAddr,
    handle: &'a ServerHandle,
    /// Per client, the uploads it cycles through.
    uploads: &'a [Vec<Upload>],
    gate: Barrier,
    stop: AtomicBool,
    period: Duration,
    measure_for: Duration,
    traced: bool,
}

impl Session<'_> {
    /// One round trip: send the upload, read broadcasts until ours is
    /// acked or two frame periods have passed.
    fn round(
        &self,
        transport: &mut TcpTransport,
        client: usize,
        round: u64,
        log: &mut ClientLog,
    ) -> io::Result<()> {
        let vehicle_id = replica_id(client);
        let cycle = &self.uploads[client];
        let message = WireMessage::Upload {
            frame: round,
            upload: cycle[round as usize % cycle.len()].clone(),
        };
        let sent_at = Instant::now();
        transport.send_message(&message)?;
        let send_done = self.traced.then(Instant::now);
        let deadline = sent_at + self.period * 2;
        let acked_at = loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break None;
            }
            match transport.recv_message(remaining) {
                Ok(Some(WireMessage::Plan { frame, acks, plan })) => {
                    let at = Instant::now();
                    let mine = acks.iter().any(|&(v, f)| v == vehicle_id && f == round);
                    if client == 0 {
                        log.broadcasts.push(Broadcast {
                            server_frame: frame,
                            acks,
                            plan,
                        });
                    }
                    if mine {
                        break Some(at);
                    }
                }
                Ok(Some(_)) => {}
                Ok(None) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "the daemon closed the connection",
                    ))
                }
                Err(e) if e.kind() == io::ErrorKind::TimedOut => break None,
                Err(e) => return Err(e),
            }
        };
        log.rounds.push(Round {
            round,
            sent_at,
            send_done,
            acked_at,
        });
        Ok(())
    }

    /// One client's whole session. Every exit path passes the same
    /// barriers, or the other client would wait forever.
    fn client(&self, client: usize, leader: &mut Option<&mut Leader>) -> io::Result<ClientLog> {
        let mut log = ClientLog::default();
        let t_connect = Instant::now();
        let connected = TcpTransport::connect(self.addr).and_then(|mut t| {
            t.send_message(&WireMessage::Hello {
                vehicle_id: replica_id(client),
            })?;
            Ok(t)
        });
        log.connect_ms = t_connect.elapsed().as_secs_f64() * 1e3;
        // `Hello` has no reply: wait until the daemon's readers have
        // registered every client, or the first frame could close (and be
        // broadcast) without one of them.
        let registered_by = Instant::now() + self.period * 20;
        while self.handle.connected_vehicles() < CLIENTS && Instant::now() < registered_by {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.gate.wait();
        let mut transport = connected;
        let mut first_error = None;
        let mut rounds = |from: u64, to: u64, log: &mut ClientLog| {
            for round in from..to {
                let Ok(t) = transport.as_mut() else { return };
                if let Err(e) = self.round(t, client, round, log) {
                    first_error.get_or_insert(e);
                    return;
                }
            }
        };

        rounds(0, WARMUP_ROUNDS, &mut log);
        self.gate.wait();
        let started = Instant::now();
        if let Some(leader) = leader {
            leader.warmed_up_at = Some(started);
            leader.frames_served_at_start = self.handle.frames_served();
        }
        let mut next = WARMUP_ROUNDS;
        loop {
            rounds(next, next + ROUNDS_PER_UNIT, &mut log);
            next += ROUNDS_PER_UNIT;
            log.units += 1;
            if self.gate.wait().is_leader() {
                self.stop
                    .store(started.elapsed() >= self.measure_for, Ordering::SeqCst);
            }
            self.gate.wait();
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        if let Some(leader) = leader {
            leader.measured_s = started.elapsed().as_secs_f64();
            leader.frames_served_at_end = self.handle.frames_served();
        }
        let mut transport = transport?;
        if let Some(e) = first_error {
            return Err(e);
        }
        transport.send_message(&WireMessage::Bye)?;
        Ok(log)
    }
}

/// The two vehicles of the corpus the clients replay: the first two in
/// scan order, under replica ids, where they stood.
fn client_uploads(corpus: &Corpus) -> Vec<Vec<Upload>> {
    (0..CLIENTS)
        .map(|i| {
            corpus
                .frames
                .iter()
                .map(|frame| remap_upload(&frame[i % frame.len()], replica_id(i), Vec2::ZERO))
                .collect()
        })
        .collect()
}

pub fn run(run: &mut Run) -> Result<(), Error> {
    let config = SystemConfig::default();
    let io_failed = |_: io::Error| Error::Codec {
        reason: "daemon_rtt: socket i/o failed",
    };

    run.notes.push("interface=loopback(127.0.0.1)".to_string());
    let sessions = run.setups(SESSIONS);
    let mut timings = Vec::with_capacity(sessions);
    for session_index in 0..sessions {
        let t_setup = Instant::now();
        let corpus = corpus(run.seed, &config);
        let uploads = client_uploads(&corpus);
        let mut handle =
            EdgeDaemon::spawn(DaemonConfig::new(config), corpus.map.clone(), "127.0.0.1:0")
                .map_err(io_failed)?;
        let session = Session {
            addr: handle.addr(),
            handle: &handle,
            uploads: &uploads,
            gate: Barrier::new(CLIENTS),
            stop: AtomicBool::new(false),
            period: Duration::from_secs_f64(config.network.frame_period),
            measure_for: Duration::from_secs_f64(run.seconds / 2.0 / sessions as f64),
            traced: run.traced,
        };
        let mut leader = Leader::default();
        let logs: Vec<io::Result<ClientLog>> = std::thread::scope(|scope| {
            let session = &session;
            let mut leader = Some(&mut leader);
            let threads: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let mut leader = if client == 0 { leader.take() } else { None };
                    scope.spawn(move || session.client(client, &mut leader))
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("a client thread panicked"))
                .collect()
        });
        handle.shutdown();
        let warmed_up_at = leader
            .warmed_up_at
            .expect("the leader always passes the warm-up barrier");
        run.setup_s.push(
            warmed_up_at
                .saturating_duration_since(t_setup)
                .as_secs_f64(),
        );
        let logs: Vec<ClientLog> = logs
            .into_iter()
            .collect::<io::Result<_>>()
            .map_err(io_failed)?;
        let counted = session_index == 0;
        timings.push(record(
            run, &config, &corpus, &uploads, &leader, logs, counted,
        )?);
    }
    let median = |of: fn(&Timing) -> f64| p50(&timings.iter().map(of).collect::<Vec<_>>());
    run.timing = Some(Timing {
        frame_ms_p50: median(|t| t.frame_ms_p50),
        frame_ms_p95: median(|t| t.frame_ms_p95),
        frames_per_s: median(|t| t.frames_per_s),
    });
    Ok(())
}

/// Turns one session's logs into the run's record, checks every plan its
/// daemon broadcast against a local serving core, and returns the
/// session's timing. `counted`: this session's first [`COUNTED_ROUNDS`]
/// feed the byte/relevance metrics.
fn record(
    run: &mut Run,
    config: &SystemConfig,
    corpus: &Corpus,
    uploads: &[Vec<Upload>],
    leader: &Leader,
    mut logs: Vec<ClientLog>,
    counted: bool,
) -> Result<Timing, Error> {
    let units = logs.iter().map(|l| l.units).min().unwrap_or(0);
    let frames_served = leader.frames_served_at_end - leader.frames_served_at_start;
    run.units += units;
    run.add("edge.daemon.frames_served", frames_served as f64);
    run.add("edge.daemon.rounds", (units * ROUNDS_PER_UNIT) as f64);

    // Round trips, both clients pooled; a missed ack is a failed frame.
    let first_sample = run.frame_ms.len();
    for (client, log) in logs.iter().enumerate() {
        run.sample("edge.daemon.connect_ms", log.connect_ms);
        for r in log.rounds.iter().filter(|r| r.round >= WARMUP_ROUNDS) {
            run.attempted += 1;
            let Some(acked_at) = r.acked_at else {
                run.add("edge.daemon.missed_acks", 1.0);
                run.fail(format!(
                    "client {client} round {}: no ack within two frame periods",
                    r.round
                ));
                continue;
            };
            run.frame_ms
                .push(acked_at.duration_since(r.sent_at).as_secs_f64() * 1e3);
            if let Some(send_done) = r.send_done {
                let span = run
                    .trace
                    .record("bench.frame", r.round, None, r.sent_at, acked_at);
                run.trace.record(
                    "edge.transport.tcp_send",
                    r.round,
                    Some(span),
                    r.sent_at,
                    send_done,
                );
                run.trace.record(
                    "edge.daemon.ack_wait",
                    r.round,
                    Some(span),
                    send_done,
                    acked_at,
                );
            }
        }
    }
    let timing = Timing::of(
        &run.frame_ms[first_sample..],
        frames_served as f64,
        leader.measured_s,
    );

    // Every broadcast, in the daemon's frame order, against a local core
    // fed the uploads its acks name — decoded from their wire frames, as
    // the daemon's readers decoded them.
    let t_check = Instant::now();
    let mut reference = serving_core(config, corpus);
    let budget = config.network.downlink_budget_bytes();
    let decoded: Vec<Vec<Option<Upload>>> = uploads
        .iter()
        .map(|cycle| {
            cycle
                .iter()
                .map(|u| upload_round_trip(run, 0, None, u.clone()))
                .collect()
        })
        .collect();
    let broadcasts = std::mem::take(&mut logs[0].broadcasts);
    for (expected_frame, b) in broadcasts.iter().enumerate() {
        if b.server_frame != expected_frame as u64 {
            run.fail(format!(
                "broadcast {expected_frame} carries the daemon's frame {}: a plan went missing",
                b.server_frame
            ));
            break;
        }
        let mut served = Vec::with_capacity(b.acks.len());
        for &(vehicle, client_frame) in &b.acks {
            let cycle = &decoded[(vehicle - replica_id(0)) as usize];
            served.extend(cycle[client_frame as usize % cycle.len()].clone());
        }
        let now = b.server_frame as f64 * config.network.frame_period;
        let span = run
            .trace
            .begin("edge.transport.serve", b.server_frame, None);
        let served_frame = reference.serve(now, &served, budget);
        let serve_ms = run.trace.end(span);
        let (_, planned) = served_frame?;
        run.check(planned.artifact == b.plan, || {
            format!(
                "the daemon's frame {} differs from a local ServingCore's plan",
                b.server_frame
            )
        });

        let rounds = |range: std::ops::Range<u64>| b.acks.iter().all(|(_, f)| range.contains(f));
        if rounds(WARMUP_ROUNDS..u64::MAX) {
            run.sample("bench.layers_ms", serve_ms);
            let message = WireMessage::Plan {
                frame: b.server_frame,
                acks: b.acks.clone(),
                plan: b.plan.clone(),
            };
            run.add(
                "edge.daemon.broadcast_bytes",
                (message.encode().len() * CLIENTS) as f64,
            );
        }
        if counted && rounds(WARMUP_ROUNDS..WARMUP_ROUNDS + COUNTED_ROUNDS) {
            run.count_frame(served.iter().map(|u| u.bytes).sum(), &b.plan);
        }
    }
    run.gen_s += t_check.elapsed().as_secs_f64();
    Ok(timing)
}
