//! Capacity harness: replay synthetic vehicle clients against a running
//! [`crate::EdgeDaemon`] and measure what one server sustains.
//!
//! The load generator builds an **upload corpus** by running a scenario's
//! vehicle-side pipeline once ([`build_corpus`]), then replicates it to any
//! number of clients: client *i* replays the uploads of source vehicle
//! `i % width` under a fresh vehicle id and a deterministic position
//! offset, so a 12-vehicle scenario drives hundreds of distinct clients
//! without re-simulating. Each client thread paces its uploads on the
//! frame-period grid, stamps the send time, and waits for the daemon's
//! plan broadcast whose acks name its `(vehicle, frame)` — the stamp
//! difference is that frame's end-to-end serving latency. The first
//! [`WARMUP_FRAMES`] of every client are paced and served but excluded
//! from the statistics.
//!
//! [`measure_point`] runs one client count against a fresh in-process
//! daemon, [`measure_against`] against one already running elsewhere; the
//! `erpd-loadgen` binary prints the resulting [`CapacityPoint`]s as a
//! table.

use crate::daemon::{DaemonConfig, EdgeDaemon};
use crate::system::delivery_ratio;
use crate::transport::TcpTransport;
use crate::wire::WireMessage;
use crate::{SystemConfig, Upload, VehicleFleet};
use erpd_geometry::stats::quantile;
use erpd_geometry::{Pose2, Vec2, Vec3};
use erpd_sim::{IntersectionMap, Scenario, ScenarioConfig};
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Loadgen client ids start here: far above the sim's vehicle ids and far
/// below [`crate::TRACK_ID_BASE`]'s server-track namespace.
pub const CLIENT_ID_BASE: u64 = 10_000;

/// Frames at the head of every client's replay that are paced and served
/// but excluded from the measurement: connection ramp-up and first-frame
/// cache warming are real, but they are not steady-state capacity.
pub const WARMUP_FRAMES: u64 = 2;

/// One load-generation run: which scenario feeds the corpus, how the
/// daemon is configured, and how much load to offer.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Scenario whose vehicle-side pipeline produces the upload corpus.
    pub scenario: ScenarioConfig,
    /// Daemon-side configuration (strategy, network model, server).
    pub system: SystemConfig,
    /// Concurrent vehicle clients to replay.
    pub clients: usize,
    /// Frames each client uploads (the corpus is cycled when shorter).
    pub frames: u64,
}

impl Default for LoadgenConfig {
    /// 64 clients × 50 frames over the default scenario and system.
    fn default() -> Self {
        LoadgenConfig {
            scenario: ScenarioConfig::default(),
            system: SystemConfig::default(),
            clients: 64,
            frames: 50,
        }
    }
}

/// The measurement at one client count.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityPoint {
    /// Concurrent vehicle clients offered.
    pub clients: usize,
    /// Frames each client uploaded.
    pub frames_per_client: u64,
    /// Median upload→plan-ack latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile upload→plan-ack latency, milliseconds.
    pub p95_ms: f64,
    /// Acked uploads / sent uploads across all clients.
    pub delivery_ratio: f64,
    /// Frames the daemon closed and broadcast during the run.
    pub frames_served: u64,
}

/// The corpus: per source frame, the uploads of every connected vehicle,
/// plus the scenario's map (the daemon must serve against the same map the
/// uploads were extracted on).
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Uploads per frame, in scan order. Frames where no vehicle uploaded
    /// are dropped so replication always has a source.
    pub frames: Vec<Vec<Upload>>,
    /// The scenario's intersection map.
    pub map: IntersectionMap,
}

/// Runs the scenario's vehicle-side pipeline for `frames` steps and
/// records every upload — the raw material every synthetic client replays.
pub fn build_corpus(scenario: ScenarioConfig, system: &SystemConfig, frames: u64) -> Corpus {
    let mut s = Scenario::build(scenario);
    let mut fleet = VehicleFleet::new();
    let mut out = Vec::new();
    for _ in 0..frames {
        let uploads = fleet
            .process(system.strategy, &s.world.scan_connected(), &system.network)
            .expect("a scan names each connected vehicle once");
        if !uploads.is_empty() {
            out.push(uploads);
        }
        s.world.step();
    }
    Corpus {
        frames: out,
        map: s.world.map.clone(),
    }
}

/// Deterministic per-client placement: spreads the replicas over a
/// ±20 m square so their point clouds do not all collapse onto the
/// source vehicle's position.
fn client_offset(i: usize) -> Vec2 {
    let fx = ((i * 73) % 80) as f64 - 40.0;
    let fy = ((i * 131) % 80) as f64 - 40.0;
    Vec2::new(fx * 0.5, fy * 0.5)
}

/// Rebrands a corpus upload for a synthetic client: new vehicle id, pose
/// and every world-frame point translated by the client's offset.
fn remap_upload(mut u: Upload, vehicle_id: u64, offset: Vec2) -> Upload {
    u.vehicle_id = vehicle_id;
    u.pose = Pose2::new(u.pose.position + offset, u.pose.heading());
    let off3 = Vec3::new(offset.x, offset.y, 0.0);
    for o in &mut u.objects {
        o.centroid += offset;
        o.points = o.points.iter().map(|p| p + off3).collect();
    }
    u
}

/// What one client experienced.
#[derive(Debug, Default)]
struct ClientStats {
    latencies_ms: Vec<f64>,
    sent: u64,
    delivered: u64,
}

/// Connects, handshakes, and replays `uploads` on the frame grid,
/// recording the upload→ack latency of every delivered frame.
///
/// Every client passes `gate` after its handshake and *then* stamps its
/// grid epoch, so all clients share one frame grid. Without the
/// rendezvous the grids would be offset by the thread-spawn spread and
/// the daemon's early close could only fire a full spread after the
/// earliest sender — inflating every latency to ~one frame period.
fn run_client(
    addr: SocketAddr,
    vehicle_id: u64,
    uploads: Vec<Upload>,
    period: Duration,
    gate: Arc<Barrier>,
) -> io::Result<ClientStats> {
    // Even a failed setup must reach the barrier, or the others hang.
    let setup = (|| {
        let mut t = TcpTransport::connect(addr)?;
        t.send_message(&WireMessage::Hello { vehicle_id })?;
        Ok::<_, io::Error>(t)
    })();
    gate.wait();
    let mut t = setup?;
    let mut stats = ClientStats::default();
    let start = Instant::now();
    for (k, u) in uploads.into_iter().enumerate() {
        let frame = k as u64;
        // Pace onto the frame grid.
        let due = period.mul_f64(frame as f64);
        let elapsed = start.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
        }
        let sent_at = Instant::now();
        t.send_message(&WireMessage::Upload { frame, upload: u })?;
        // Warmup frames are paced and acked like any other but kept out
        // of the stats — they measure the connection ramp, not capacity.
        let measured = frame >= WARMUP_FRAMES;
        if measured {
            stats.sent += 1;
        }
        // Wait up to two periods for the ack; beyond that the frame counts
        // as undelivered. Two, not one: a frame the daemon's grace window
        // closed without us rides the next frame, whose close can land
        // just past one period after our send.
        let deadline = sent_at + period * 2;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            match t.recv_message(remaining) {
                Ok(Some(WireMessage::Plan { acks, .. })) => {
                    if acks.iter().any(|&(v, f)| v == vehicle_id && f == frame) {
                        if measured {
                            stats.delivered += 1;
                            stats
                                .latencies_ms
                                .push(sent_at.elapsed().as_secs_f64() * 1e3);
                        }
                        break;
                    }
                    // A broadcast acking other vehicles or an older frame:
                    // keep waiting for ours.
                }
                Ok(Some(_)) => {}
                Ok(None) => return Ok(stats), // daemon closed the stream
                Err(e) if e.kind() == io::ErrorKind::TimedOut => break,
                Err(e) => return Err(e),
            }
        }
    }
    let _ = t.send_message(&WireMessage::Bye);
    Ok(stats)
}

/// Spawns a fresh in-process daemon, offers `config.clients` replaying
/// clients, and aggregates the latency/delivery measurement.
///
/// # Errors
///
/// Propagates daemon bind and client socket failures.
pub fn measure_point(config: &LoadgenConfig, corpus: &Corpus) -> io::Result<CapacityPoint> {
    let mut handle = EdgeDaemon::spawn(
        DaemonConfig::new(config.system),
        corpus.map.clone(),
        "127.0.0.1:0",
    )?;
    let point = measure_against(config, corpus, handle.addr())?;
    let frames_served = handle.frames_served();
    handle.shutdown();
    Ok(CapacityPoint {
        frames_served,
        ..point
    })
}

/// Like [`measure_point`] but drives an already-running daemon at `addr`
/// (e.g. an `erpd-daemon` process on another host). `frames_served` is
/// zero — a remote daemon's counter is not observable here.
///
/// # Errors
///
/// Propagates client socket failures.
pub fn measure_against(
    config: &LoadgenConfig,
    corpus: &Corpus,
    addr: SocketAddr,
) -> io::Result<CapacityPoint> {
    assert!(
        !corpus.frames.is_empty(),
        "the corpus must contain at least one non-empty frame"
    );
    let period = Duration::from_secs_f64(config.system.network.frame_period);
    let gate = Arc::new(Barrier::new(config.clients));
    let mut threads = Vec::with_capacity(config.clients);
    for i in 0..config.clients {
        let vehicle_id = CLIENT_ID_BASE + i as u64;
        let offset = client_offset(i);
        let uploads: Vec<Upload> = (0..config.frames)
            .map(|k| {
                let base = &corpus.frames[(k as usize) % corpus.frames.len()];
                remap_upload(base[i % base.len()].clone(), vehicle_id, offset)
            })
            .collect();
        let gate = Arc::clone(&gate);
        threads.push(std::thread::spawn(move || {
            run_client(addr, vehicle_id, uploads, period, gate)
        }));
    }
    let mut latencies = Vec::new();
    let mut sent = 0u64;
    let mut delivered = 0u64;
    for t in threads {
        let stats = t.join().expect("client thread panicked")?;
        latencies.extend(stats.latencies_ms);
        sent += stats.sent;
        delivered += stats.delivered;
    }
    let (p50, p95) = if latencies.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (quantile(&mut latencies, 0.50), quantile(&mut latencies, 0.95))
    };
    Ok(CapacityPoint {
        clients: config.clients,
        frames_per_client: config.frames,
        p50_ms: p50,
        p95_ms: p95,
        delivery_ratio: delivery_ratio(delivered as usize, sent as usize),
        frames_served: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> LoadgenConfig {
        LoadgenConfig {
            scenario: ScenarioConfig {
                n_vehicles: 8,
                n_pedestrians: 2,
                ..ScenarioConfig::default()
            },
            clients: 4,
            frames: 6,
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn corpus_replays_deterministically() {
        let cfg = tiny_config();
        let mut a = build_corpus(cfg.scenario, &cfg.system, 5);
        let mut b = build_corpus(cfg.scenario, &cfg.system, 5);
        assert!(!a.frames.is_empty());
        // processing_time is wall clock — the only non-deterministic field.
        for f in a.frames.iter_mut().chain(b.frames.iter_mut()) {
            for u in f {
                u.processing_time = 0.0;
            }
        }
        assert_eq!(a.frames, b.frames, "same scenario, same corpus");
    }

    #[test]
    fn remap_translates_everything() {
        let cfg = tiny_config();
        let corpus = build_corpus(cfg.scenario, &cfg.system, 8);
        let src = corpus
            .frames
            .iter()
            .flat_map(|f| f.iter())
            .find(|u| !u.objects.is_empty())
            .expect("some upload has objects")
            .clone();
        let off = Vec2::new(10.0, -4.0);
        let got = remap_upload(src.clone(), 77, off);
        assert_eq!(got.vehicle_id, 77);
        assert_eq!(got.pose.position, src.pose.position + off);
        assert_eq!(got.objects[0].centroid, src.objects[0].centroid + off);
        assert_eq!(
            got.objects[0].points.point(0).x,
            src.objects[0].points.point(0).x + 10.0
        );
        assert_eq!(got.bytes, src.bytes, "rebranding does not change the cost");
    }

    #[test]
    fn small_point_sustains_full_delivery() {
        let cfg = tiny_config();
        let corpus = build_corpus(cfg.scenario, &cfg.system, cfg.frames);
        let p = measure_point(&cfg, &corpus).unwrap();
        assert_eq!(p.clients, 4);
        assert!(
            p.delivery_ratio > 0.9,
            "4 clients must be easily sustained, got {}",
            p.delivery_ratio
        );
        assert!(p.p95_ms.is_finite() && p.p95_ms > 0.0);
        assert!(p.frames_served > 0);
    }
}
