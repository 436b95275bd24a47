//! The streaming edge daemon: a TCP server driving the exact
//! [`ServingCore`] the in-process [`crate::System`] runs.
//!
//! # Threading model
//!
//! * **accept** — one thread on a non-blocking [`std::net::TcpListener`],
//!   spawning a reader per connection and joining the readers whose
//!   connections have ended, so the daemon holds one handle per live
//!   connection however many have come and gone.
//! * **readers** — one thread per connection, decoding wire frames off the
//!   socket with short read timeouts (a partial frame survives a timeout —
//!   the [`crate::TcpTransport`] buffer keeps sync). `Hello` registers the
//!   vehicle for plan delivery (a repeated `Hello` renames it); a decoded
//!   upload lands in the shared pending map if it names that vehicle, and
//!   is dropped and counted otherwise; `Bye` or EOF retires the
//!   connection, and the retirement is counted.
//! * **serve** — one thread closing frames. A frame closes once every
//!   registered vehicle has submitted (the common case under light load —
//!   this is what keeps p95 latency far below the frame period), else
//!   `CLOSE_GRACE` (0.2) of a frame period after its first upload, else at
//!   its deadline (the network model's `frame_period`). The
//!   pending uploads run through the serving core and the resulting plan
//!   is broadcast to every connection, tagged with acks naming each
//!   `(vehicle, client_frame)` the served frame consumed. Every plan write
//!   gives up after two frame periods without progress — the wait after
//!   which a client stops expecting the ack anyway — so a client that
//!   stops reading costs the others at most that, once: its connection is
//!   shut down and retired.
//!
//! # Backpressure and deadlines
//!
//! The pending map is **latest-wins per vehicle**: a client that uploads
//! faster than the daemon serves overwrites its own stale entry instead of
//! growing a queue — perception data is only useful fresh, so the natural
//! backpressure policy is to drop the superseded frame. Vehicles that miss
//! a deadline are simply absent from that frame (the serving core's
//! coasting covers them) and their upload rides the next one.
//!
//! What the daemon swallows it counts: [`ServerHandle::rejected_uploads`],
//! [`ServerHandle::dropped_frames`] and
//! [`ServerHandle::retired_connections`].
//!
//! Simulation time advances `frame_period` per served frame
//! (`now = frame * frame_period`), matching the in-process `System`'s
//! clock, so a daemon fed a scenario's uploads reproduces the in-process
//! pipeline's results.

use crate::transport::{ServingCore, TcpTransport};
use crate::wire::WireMessage;
use crate::{EdgeServer, SystemConfig, Upload};
use erpd_sim::IntersectionMap;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Once the *first* upload of a frame has arrived, the frame closes after
/// this fraction of the frame period even if some vehicles have not
/// submitted — a straggler's upload simply rides the next frame
/// (latest-wins keeps it pending). This bounds the punctual majority's
/// latency by the grace window instead of the slowest vehicle's
/// scheduling jitter.
const CLOSE_GRACE: f64 = 0.2;

/// How the daemon serves: strategy, network model (frame period and
/// downlink budget) and server parameters.
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    /// Strategy, network model and server parameters — the same
    /// configuration an in-process [`crate::System`] takes.
    pub system: SystemConfig,
}

impl DaemonConfig {
    /// The serving configuration for a system configuration.
    pub fn new(system: SystemConfig) -> Self {
        DaemonConfig { system }
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig::new(SystemConfig::default())
    }
}

/// One registered connection: the vehicle it speaks for and the write
/// half the serve thread broadcasts plans to.
#[derive(Debug)]
struct Conn {
    conn_id: u64,
    vehicle: u64,
    writer: Arc<Mutex<TcpStream>>,
}

/// State shared by the accept, reader, and serve threads.
#[derive(Debug, Default)]
struct Ingest {
    /// Latest-wins upload per vehicle: `vehicle → (client frame, upload)`.
    /// A `BTreeMap` so the serve thread processes uploads in vehicle order
    /// — deterministic regardless of socket arrival interleaving.
    pending: BTreeMap<u64, (u64, Upload)>,
    /// Connections that completed the `Hello` handshake.
    conns: Vec<Conn>,
}

impl Ingest {
    /// Files an upload under its vehicle. Latest wins: a superseded
    /// pending upload is dropped, not queued — that is the backpressure
    /// policy.
    fn submit(&mut self, frame: u64, upload: Upload) {
        self.pending.insert(upload.vehicle_id, (frame, upload));
    }
}

#[derive(Debug)]
struct Shared {
    ingest: Mutex<Ingest>,
    /// Signalled on every upload arrival and on shutdown.
    arrivals: Condvar,
    shutdown: AtomicBool,
    frames_served: AtomicU64,
    /// Uploads dropped for naming a vehicle other than the one their
    /// connection registered.
    rejected_uploads: AtomicU64,
    /// Frames whose uploads were taken but never answered: the serving
    /// core returned an error.
    dropped_frames: AtomicU64,
    /// Registered connections unregistered again, by their reader (`Bye`,
    /// EOF, protocol error) or by a failed plan write.
    retired_connections: AtomicU64,
    next_conn_id: AtomicU64,
    /// One handle per reader thread not yet joined: the accept thread
    /// joins the finished ones as it goes, shutdown joins the rest.
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// How long a plan write may make no progress before its connection
    /// counts as dead: two frame periods.
    write_timeout: Duration,
}

impl Shared {
    fn new(config: &DaemonConfig) -> Self {
        Shared {
            ingest: Mutex::new(Ingest::default()),
            arrivals: Condvar::new(),
            shutdown: AtomicBool::new(false),
            frames_served: AtomicU64::new(0),
            rejected_uploads: AtomicU64::new(0),
            dropped_frames: AtomicU64::new(0),
            retired_connections: AtomicU64::new(0),
            next_conn_id: AtomicU64::new(0),
            readers: Mutex::new(Vec::new()),
            // A client waits two periods for its ack (`capacity`'s
            // clients do exactly that); a plan later than that is lost on
            // it anyway.
            write_timeout: Duration::from_secs_f64(config.system.network.frame_period) * 2,
        }
    }

    /// Unregisters the connections `gone` picks and counts them. A
    /// connection is counted once however many sides notice it died: only
    /// the side that finds it still registered removes it.
    fn retire(&self, gone: impl Fn(&Conn) -> bool) {
        let mut ingest = self.ingest.lock().expect("daemon lock poisoned");
        let before = ingest.conns.len();
        ingest.conns.retain(|c| !gone(c));
        let retired = before - ingest.conns.len();
        self.retired_connections
            .fetch_add(retired as u64, Ordering::Relaxed);
    }
}

/// The streaming edge daemon. Construct with [`EdgeDaemon::spawn`]; the
/// returned [`ServerHandle`] owns the listening socket's lifetime.
#[derive(Debug)]
pub struct EdgeDaemon;

impl EdgeDaemon {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept and serve threads. The daemon serves the same
    /// stage graph `System::builder(config.system).build(world)` would run
    /// against `map`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when the strategy has no edge
    /// server (`Single` shares nothing, `V2v` fuses on board);
    /// otherwise propagates the bind failure.
    pub fn spawn<A: ToSocketAddrs>(
        config: DaemonConfig,
        map: IntersectionMap,
        addr: A,
    ) -> io::Result<ServerHandle> {
        if !config.system.strategy.is_edge_served() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{:?} has no edge server: serve Ours, Emp or Unlimited",
                    config.system.strategy
                ),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared::new(&config));
        let core = ServingCore::new(
            EdgeServer::new(config.system.server, map),
            config.system.strategy,
        );

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(listener, accept_shared));
        let serve_shared = Arc::clone(&shared);
        let serve = std::thread::spawn(move || serve_loop(config, core, serve_shared));

        Ok(ServerHandle {
            addr: local,
            shared,
            threads: vec![accept, serve],
        })
    }
}

/// Owns a running daemon: its address, counters, and shutdown. Dropping
/// the handle shuts the daemon down and joins every thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Frames the serve loop has closed and served so far (a frame counts
    /// from the moment its broadcast starts).
    pub fn frames_served(&self) -> u64 {
        self.shared.frames_served.load(Ordering::Relaxed)
    }

    /// Uploads dropped so far because they named a vehicle other than the
    /// one their connection registered with `Hello` (or arrived before any
    /// `Hello`): one connection cannot file data under another's id.
    pub fn rejected_uploads(&self) -> u64 {
        self.shared.rejected_uploads.load(Ordering::Relaxed)
    }

    /// Frames dropped so far: their uploads were taken off the pending
    /// map, the serving core returned an error (non-finite relevance from
    /// degenerate input), and no plan was broadcast for them.
    pub fn dropped_frames(&self) -> u64 {
        self.shared.dropped_frames.load(Ordering::Relaxed)
    }

    /// Registered connections retired so far — on `Bye`, EOF or a protocol
    /// error seen by their reader, or on a failed plan write — each counted
    /// once. A connection that never said `Hello` was never registered and
    /// is not counted.
    pub fn retired_connections(&self) -> u64 {
        self.shared.retired_connections.load(Ordering::Relaxed)
    }

    /// Vehicles currently registered (completed the `Hello` handshake).
    pub fn connected_vehicles(&self) -> usize {
        self.shared.ingest.lock().expect("daemon lock poisoned").conns.len()
    }

    /// Stops the daemon and joins every thread. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.arrivals.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let readers = std::mem::take(
            &mut *self.shared.readers.lock().expect("daemon lock poisoned"),
        );
        for t in readers {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts connections until shutdown, spawning a reader per connection
/// and reaping the readers that have finished.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        reap_finished(&mut shared.readers.lock().expect("daemon lock poisoned"));
        match listener.accept() {
            Ok((stream, _)) => {
                let reader_shared = Arc::clone(&shared);
                let handle = std::thread::spawn(move || reader_loop(stream, reader_shared));
                shared
                    .readers
                    .lock()
                    .expect("daemon lock poisoned")
                    .push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Joins the readers whose connections have ended. Without this a
/// long-lived daemon grows by one handle per connection ever made.
fn reap_finished(readers: &mut Vec<JoinHandle<()>>) {
    for finished in readers.extract_if(.., |r| r.is_finished()) {
        // A finished thread joins without blocking.
        let _ = finished.join();
    }
}

/// Reads wire frames off one connection until `Bye`, EOF, shutdown, or a
/// protocol error; registers the vehicle on `Hello` and retires the
/// connection on exit.
fn reader_loop(stream: TcpStream, shared: Arc<Shared>) {
    let Ok(writer) = plan_writer(&stream, shared.write_timeout) else {
        return;
    };
    let mut transport = TcpTransport::from_stream(stream);
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
    // The vehicle this connection speaks for, once it said `Hello`.
    let mut registered: Option<u64> = None;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match transport.recv_message(Duration::from_millis(50)) {
            Ok(Some(WireMessage::Hello { vehicle_id })) => {
                let mut ingest = shared.ingest.lock().expect("daemon lock poisoned");
                // One `Conn` per connection: a repeated `Hello` renames the
                // vehicle this connection speaks for. A second entry would
                // deliver every plan twice and leave the old id registered
                // but silent, so no frame could close all-in again.
                match ingest.conns.iter_mut().find(|c| c.conn_id == conn_id) {
                    Some(conn) => conn.vehicle = vehicle_id,
                    None => ingest.conns.push(Conn {
                        conn_id,
                        vehicle: vehicle_id,
                        writer: Arc::clone(&writer),
                    }),
                }
                registered = Some(vehicle_id);
            }
            Ok(Some(WireMessage::Upload { frame, upload })) => {
                if registered == Some(upload.vehicle_id) {
                    shared
                        .ingest
                        .lock()
                        .expect("daemon lock poisoned")
                        .submit(frame, upload);
                    shared.arrivals.notify_all();
                } else {
                    // Filing it would overwrite the named vehicle's own
                    // pending upload and ack a frame it never sent.
                    shared.rejected_uploads.fetch_add(1, Ordering::Relaxed);
                }
            }
            // A client has no business sending plans or handovers (those
            // flow edge-to-edge); ignore rather than kill the connection.
            Ok(Some(WireMessage::Plan { .. })) | Ok(Some(WireMessage::Handover { .. })) => {}
            Ok(Some(WireMessage::Bye)) | Ok(None) => break,
            Err(e)
                if e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => break,
        }
    }
    if registered.is_some() {
        shared.retire(|c| c.conn_id == conn_id);
    }
}

/// The write half of an accepted connection, for the serve thread's plan
/// broadcasts: a write that makes no progress for `timeout` fails.
fn plan_writer(stream: &TcpStream, timeout: Duration) -> io::Result<Arc<Mutex<TcpStream>>> {
    let writer = stream.try_clone()?;
    writer.set_write_timeout(Some(timeout))?;
    Ok(Arc::new(Mutex::new(writer)))
}

/// Sends `bytes` to every connection in `writers`, one after the other. A
/// connection whose write fails — an error, or the write timeout — is dead:
/// it is shut down, which ends its reader too, and retired once.
fn broadcast(shared: &Shared, writers: &[(u64, Arc<Mutex<TcpStream>>)], bytes: &[u8]) {
    let mut dead: Vec<u64> = Vec::new();
    for (conn_id, writer) in writers {
        let mut w = writer.lock().expect("daemon lock poisoned");
        if w.write_all(bytes).is_err() {
            // Part of a frame may be out: nothing after it could be
            // decoded, so the connection is closed rather than reused.
            let _ = w.shutdown(Shutdown::Both);
            dead.push(*conn_id);
        }
    }
    if !dead.is_empty() {
        shared.retire(|c| dead.contains(&c.conn_id));
    }
}

/// Closes frames at the deadline (or early once everyone submitted),
/// serves them through the core, and broadcasts the plan.
fn serve_loop(config: DaemonConfig, mut core: ServingCore, shared: Arc<Shared>) {
    let period = Duration::from_secs_f64(config.system.network.frame_period);
    let grace = period.mul_f64(CLOSE_GRACE);
    let budget = config.system.network.downlink_budget_bytes();
    let mut frame: u64 = 0;
    'frames: loop {
        let deadline = Instant::now() + period;
        // Set once the first upload of this frame arrives; the frame
        // closes `grace` later even if stragglers are still missing.
        let mut grace_deadline: Option<Instant> = None;
        let mut ingest = shared.ingest.lock().expect("daemon lock poisoned");
        // Wait for the frame to fill, the grace window to lapse, or the
        // deadline to pass.
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let everyone_in = !ingest.conns.is_empty()
                && ingest.conns.iter().all(|c| ingest.pending.contains_key(&c.vehicle));
            if everyone_in {
                break;
            }
            let now = Instant::now();
            if grace_deadline.is_none() && !ingest.pending.is_empty() {
                grace_deadline = Some(now + grace);
            }
            let close_at = grace_deadline.map_or(deadline, |g| g.min(deadline));
            if now >= close_at {
                break;
            }
            let (guard, _) = shared
                .arrivals
                .wait_timeout(ingest, close_at - now)
                .expect("daemon lock poisoned");
            ingest = guard;
        }
        let pending = std::mem::take(&mut ingest.pending);
        let writers: Vec<(u64, Arc<Mutex<TcpStream>>)> = ingest
            .conns
            .iter()
            .map(|c| (c.conn_id, Arc::clone(&c.writer)))
            .collect();
        drop(ingest);
        if pending.is_empty() {
            // Nothing arrived this period (e.g. no clients yet): don't
            // burn simulation time on empty frames.
            continue 'frames;
        }

        // BTreeMap order: uploads reach the core sorted by vehicle id, so
        // the served frame is independent of socket interleaving.
        let acks: Vec<(u64, u64)> = pending.iter().map(|(&v, &(cf, _))| (v, cf)).collect();
        let uploads: Vec<Upload> = pending.into_values().map(|(_, u)| u).collect();
        let now_sim = frame as f64 * config.system.network.frame_period;
        let plan = match core.serve(now_sim, &uploads, budget) {
            Ok((_, planned)) => planned.artifact,
            // A degenerate frame (non-finite relevance from corrupt input)
            // is dropped and counted; the daemon keeps serving.
            Err(_) => {
                shared.dropped_frames.fetch_add(1, Ordering::Relaxed);
                continue 'frames;
            }
        };

        // Encoded once: every connection is sent the same bytes.
        let bytes = WireMessage::Plan { frame, acks, plan }.encode();
        // Counted before the broadcast, so whoever holds a plan already
        // sees its frame in `frames_served`.
        shared.frames_served.fetch_add(1, Ordering::Relaxed);
        broadcast(&shared, &writers, &bytes);
        frame += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireMessage;
    use crate::Strategy;
    use erpd_geometry::{Pose2, Vec2};

    fn upload(vehicle: u64) -> Upload {
        Upload {
            vehicle_id: vehicle,
            pose: Pose2::new(Vec2::new(1.0, 2.0), 0.0),
            objects: Vec::new(),
            bytes: 64,
            processing_time: 0.0,
            clustered_points: 0,
        }
    }

    #[test]
    fn daemon_serves_uploads_and_acks_them() {
        let mut handle = EdgeDaemon::spawn(
            DaemonConfig::default(),
            IntersectionMap::default(),
            "127.0.0.1:0",
        )
        .unwrap();
        let mut client = TcpTransport::connect(handle.addr()).unwrap();
        client
            .send_message(&WireMessage::Hello { vehicle_id: 7 })
            .unwrap();
        client
            .send_message(&WireMessage::Upload { frame: 3, upload: upload(7) })
            .unwrap();
        let msg = client
            .recv_message(Duration::from_secs(5))
            .unwrap()
            .expect("plan broadcast");
        match msg {
            WireMessage::Plan { acks, .. } => assert_eq!(acks, vec![(7, 3)]),
            other => panic!("expected a plan, got {other:?}"),
        }
        assert_eq!(handle.frames_served(), 1);
        client.send_message(&WireMessage::Bye).unwrap();
        handle.shutdown();
    }

    #[test]
    fn strategies_without_an_edge_server_are_refused() {
        for strategy in [Strategy::Single, Strategy::V2v] {
            let config = DaemonConfig::new(SystemConfig::new(strategy));
            let err = EdgeDaemon::spawn(config, IntersectionMap::default(), "127.0.0.1:0")
                .expect_err("a daemon for a serverless strategy must not start");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{strategy:?}");
        }
    }

    #[test]
    fn repeated_hello_renames_the_connection() {
        let mut handle = EdgeDaemon::spawn(
            DaemonConfig::default(),
            IntersectionMap::default(),
            "127.0.0.1:0",
        )
        .unwrap();
        let mut client = TcpTransport::connect(handle.addr()).unwrap();
        for vehicle_id in [7, 8] {
            client
                .send_message(&WireMessage::Hello { vehicle_id })
                .unwrap();
        }
        client
            .send_message(&WireMessage::Upload {
                frame: 2,
                upload: upload(8),
            })
            .unwrap();
        // One connection is read in order, so by the time the plan acking
        // the upload arrives both `Hello`s have been processed.
        match client.recv_message(Duration::from_secs(5)).unwrap() {
            Some(WireMessage::Plan { acks, .. }) => assert_eq!(acks, vec![(8, 2)]),
            other => panic!("expected a plan, got {other:?}"),
        }
        assert_eq!(handle.connected_vehicles(), 1);
        client.send_message(&WireMessage::Bye).unwrap();
        handle.shutdown();
    }

    #[test]
    fn upload_under_another_vehicles_id_is_rejected() {
        let mut handle = EdgeDaemon::spawn(
            DaemonConfig::default(),
            IntersectionMap::default(),
            "127.0.0.1:0",
        )
        .unwrap();
        let mut client = TcpTransport::connect(handle.addr()).unwrap();
        client
            .send_message(&WireMessage::Hello { vehicle_id: 7 })
            .unwrap();
        for (frame, vehicle) in [(5, 8), (6, 7)] {
            client
                .send_message(&WireMessage::Upload {
                    frame,
                    upload: upload(vehicle),
                })
                .unwrap();
        }
        // One connection is read in order, so the plan acking (7, 6) is
        // served after the forged upload was seen; no plan may ack 8.
        loop {
            match client.recv_message(Duration::from_secs(5)).unwrap() {
                Some(WireMessage::Plan { acks, .. }) => {
                    assert!(acks.iter().all(|&(v, _)| v == 7), "acks = {acks:?}");
                    if acks.contains(&(7, 6)) {
                        break;
                    }
                }
                other => panic!("expected a plan, got {other:?}"),
            }
        }
        assert_eq!(handle.rejected_uploads(), 1);
        client.send_message(&WireMessage::Bye).unwrap();
        handle.shutdown();
    }

    /// Polls `done` until it holds; the test fails after ten seconds.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < give_up, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn reader_handles_are_reaped() {
        const CYCLES: u64 = 200;
        let mut handle = EdgeDaemon::spawn(
            DaemonConfig::default(),
            IntersectionMap::default(),
            "127.0.0.1:0",
        )
        .unwrap();
        for vehicle_id in 0..CYCLES {
            let mut client = TcpTransport::connect(handle.addr()).unwrap();
            client
                .send_message(&WireMessage::Hello { vehicle_id })
                .unwrap();
            client.send_message(&WireMessage::Bye).unwrap();
        }
        // Every connection was accepted, registered and retired …
        wait_until("all readers retired", || {
            handle.retired_connections() == CYCLES
        });
        assert_eq!(handle.connected_vehicles(), 0);
        // … and the handle list is back to the live connections (none),
        // give or take one the accept thread has yet to look at.
        let held = || handle.shared.readers.lock().unwrap().len();
        wait_until("finished readers joined", || held() <= 1);
        handle.shutdown();
    }

    #[test]
    fn hang_up_after_hello_is_counted_once() {
        let mut handle = EdgeDaemon::spawn(
            DaemonConfig::default(),
            IntersectionMap::default(),
            "127.0.0.1:0",
        )
        .unwrap();
        let mut client = TcpTransport::connect(handle.addr()).unwrap();
        client
            .send_message(&WireMessage::Hello { vehicle_id: 7 })
            .unwrap();
        wait_until("registered", || handle.connected_vehicles() == 1);
        assert_eq!(handle.retired_connections(), 0);
        drop(client); // no `Bye`: the reader sees EOF
        wait_until("retired", || handle.retired_connections() == 1);
        assert_eq!(handle.connected_vehicles(), 0);
        // Every thread joined: nothing is left that could count it again.
        handle.shutdown();
        assert_eq!(handle.retired_connections(), 1);
        assert_eq!(handle.dropped_frames(), 0);
    }

    /// More bytes than one loopback connection holds in flight: both socket
    /// buffers at the kernel's ceilings, and a mebibyte more.
    fn more_than_a_connection_buffers() -> usize {
        let ceiling = |path: &str| {
            std::fs::read_to_string(path)
                .ok()
                .and_then(|s| s.split_whitespace().last()?.parse::<usize>().ok())
                .unwrap_or(16 << 20)
        };
        ceiling("/proc/sys/net/ipv4/tcp_rmem") + ceiling("/proc/sys/net/ipv4/tcp_wmem") + (1 << 20)
    }

    #[test]
    fn a_peer_that_stops_reading_is_retired_and_the_others_still_get_the_plan() {
        use std::io::Read;
        let shared = Shared::new(&DaemonConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Two peers, each with its accepted side registered as a vehicle:
        // the first never reads, the second drains on its own thread.
        let stuck = TcpStream::connect(addr).unwrap();
        let (stuck_side, _) = listener.accept().unwrap();
        let mut reading = TcpStream::connect(addr).unwrap();
        let (reading_side, _) = listener.accept().unwrap();
        let writers: Vec<(u64, Arc<Mutex<TcpStream>>)> = [stuck_side, reading_side]
            .iter()
            .zip(0..)
            .map(|(side, conn_id)| (conn_id, plan_writer(side, shared.write_timeout).unwrap()))
            .collect();
        for (conn_id, writer) in &writers {
            shared.ingest.lock().unwrap().conns.push(Conn {
                conn_id: *conn_id,
                vehicle: 100 + conn_id,
                writer: Arc::clone(writer),
            });
        }
        let payload: Vec<u8> = (0..more_than_a_connection_buffers())
            .map(|i| (i % 251) as u8)
            .collect();
        let drain = std::thread::spawn(move || {
            let (mut received, mut in_order) = (0usize, true);
            let mut buf = vec![0u8; 1 << 16];
            loop {
                match reading.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        for (k, &byte) in buf[..n].iter().enumerate() {
                            in_order &= byte == ((received + k) % 251) as u8;
                        }
                        received += n;
                    }
                }
            }
            (received, in_order)
        });

        broadcast(&shared, &writers, &payload);

        assert_eq!(shared.retired_connections.load(Ordering::Relaxed), 1);
        let left: Vec<u64> = shared
            .ingest
            .lock()
            .unwrap()
            .conns
            .iter()
            .map(|c| c.conn_id)
            .collect();
        assert_eq!(left, vec![1], "only the reading peer stays registered");
        // Close the reading peer's stream so its drain sees the end.
        drop(writers);
        shared.ingest.lock().unwrap().conns.clear();
        let (received, in_order) = drain.join().unwrap();
        assert_eq!(
            received,
            payload.len(),
            "the reading peer got the whole plan"
        );
        assert!(in_order, "and byte for byte");
        drop(stuck);
    }

    #[test]
    fn latest_upload_wins_per_vehicle() {
        let mut ingest = Ingest::default();
        // Two uploads from one vehicle before the frame closes: the second
        // supersedes; another vehicle's entry is untouched.
        ingest.submit(0, upload(9));
        ingest.submit(4, upload(8));
        ingest.submit(1, upload(9));
        let acks: Vec<(u64, u64)> = ingest.pending.iter().map(|(&v, &(f, _))| (v, f)).collect();
        assert_eq!(acks, vec![(8, 4), (9, 1)]);
    }

    /// An upload from `vehicle` posed at `(x, y)`.
    fn upload_at(vehicle: u64, x: f64, y: f64) -> Upload {
        Upload {
            pose: Pose2::new(Vec2::new(x, y), 0.0),
            ..upload(vehicle)
        }
    }

    #[test]
    fn alternating_poses_at_the_wire_bound_serve_every_frame() {
        use crate::wire::MAX_POSE_COORD;
        let config = DaemonConfig::default().system;
        let mut core = ServingCore::new(
            EdgeServer::new(config.server, IntersectionMap::default()),
            config.strategy,
        );
        let budget = config.network.downlink_budget_bytes();
        for frame in 0..8 {
            let side = if frame % 2 == 0 { 1.0 } else { -1.0 };
            let b = side * MAX_POSE_COORD;
            let uploads = [upload(1), upload_at(2, b, -b)];
            let now = frame as f64 * config.network.frame_period;
            assert!(
                core.serve(now, &uploads, budget).is_ok(),
                "frame {frame} failed at pose ±{MAX_POSE_COORD}"
            );
        }
    }

    #[test]
    fn a_hostile_pose_retires_its_connection_and_the_honest_client_keeps_its_acks() {
        let mut handle = EdgeDaemon::spawn(
            DaemonConfig::default(),
            IntersectionMap::default(),
            "127.0.0.1:0",
        )
        .unwrap();
        let mut honest = TcpTransport::connect(handle.addr()).unwrap();
        let mut hostile = TcpTransport::connect(handle.addr()).unwrap();
        honest
            .send_message(&WireMessage::Hello { vehicle_id: 1 })
            .unwrap();
        hostile
            .send_message(&WireMessage::Hello { vehicle_id: 2 })
            .unwrap();
        wait_until("both registered", || handle.connected_vehicles() == 2);
        for round in 0..8u64 {
            // ±1e307 in turn: two such poses overflow the pose-history
            // velocity, which the serve thread must never see. The hostile
            // side may already be hung up on, so its sends can fail.
            let x = if round % 2 == 0 { 1e307 } else { -1e307 };
            let _ = hostile.send_message(&WireMessage::Upload {
                frame: round,
                upload: upload_at(2, x, 0.0),
            });
            honest
                .send_message(&WireMessage::Upload { frame: round, upload: upload(1) })
                .unwrap();
            loop {
                match honest.recv_message(Duration::from_secs(5)) {
                    Ok(Some(WireMessage::Plan { acks, .. })) if acks.contains(&(1, round)) => {
                        break
                    }
                    Ok(Some(WireMessage::Plan { .. })) => {}
                    other => panic!("the honest client missed its ack in round {round}: {other:?}"),
                }
            }
        }
        assert_eq!(handle.retired_connections(), 1);
        assert_eq!(handle.connected_vehicles(), 1);
        assert_eq!(handle.dropped_frames(), 0);
        honest.send_message(&WireMessage::Bye).unwrap();
        handle.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let mut handle = EdgeDaemon::spawn(
            DaemonConfig::default(),
            IntersectionMap::default(),
            "127.0.0.1:0",
        )
        .unwrap();
        assert_eq!(handle.connected_vehicles(), 0);
        handle.shutdown();
        handle.shutdown();
        drop(handle); // Drop after explicit shutdown must not hang.
    }
}
