//! The transport seam between the vehicle fleet and the edge serving
//! core.
//!
//! A [`Transport`] carries uploads from the vehicle side to the server
//! and the frame's dissemination plan back. The abstraction exists so the
//! exact serving code has interchangeable in-process carriers:
//!
//! * [`LoopbackTransport`] — in-process queues, values pass through
//!   untouched. The default inside [`crate::System`]; bit-identical to
//!   calling the serving core directly (pinned by the stage-graph
//!   fingerprint tests).
//! * [`WireTransport`] — in-process queues of **encoded wire frames**:
//!   every message round-trips the exact v1 codec the TCP path puts on a
//!   socket, so the whole test/bench suite can exercise the daemon's
//!   byte path without opening one.
//!
//! [`TcpTransport`] is not a [`Transport`]: it is the framed socket
//! endpoint — [`send_message`](TcpTransport::send_message) /
//! [`recv_message`](TcpTransport::recv_message) of whole [`WireMessage`]s —
//! that the [`crate::EdgeDaemon`]'s readers and its clients speak the same
//! frames over.
//!
//! [`ServingCore`] is the code every carrier feeds: the composed edge
//! stage graph plus the strategy's dissemination, one `match` on
//! [`Strategy`]. `System` routes through it in-process; the daemon serves
//! it over TCP.

use crate::pipeline::PlanRequest;
use crate::stages::StageTimer;
use crate::wire::{write_message, WireMessage};
use crate::{EdgeServer, ServerFrame, Staged, Strategy, Upload};
use erpd_core::{DisseminationPlan, Error};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Carries uploads from the vehicle side to the edge server and
/// dissemination plans back.
///
/// A transport is a *pair of directed channels*, not a server, and holds
/// both ends: [`crate::System`] sends on one side and receives on the
/// other, in the same process. The impls are [`LoopbackTransport`] and
/// [`WireTransport`].
pub trait Transport: fmt::Debug + Send {
    /// Diagnostic name ("loopback", "wire"). Defaults to
    /// `"custom"`, so third-party transports only implement the four
    /// channel methods and [`crate::System::transport_name`] needs no
    /// special cases.
    fn name(&self) -> &'static str {
        "custom"
    }

    /// Queues one upload on the vehicle→server direction. `frame` is the
    /// sender's frame counter, echoed back in plan acks.
    fn send_upload(&mut self, frame: u64, upload: Upload) -> Result<(), Error>;

    /// Drains every upload currently arrived on the server side, in
    /// arrival order.
    fn recv_uploads(&mut self) -> Result<Vec<Upload>, Error>;

    /// Queues the frame's plan on the server→vehicles direction.
    fn send_plan(&mut self, frame: u64, plan: DisseminationPlan) -> Result<(), Error>;

    /// Drains every plan currently arrived on the vehicle side, oldest
    /// first, tagged with the server frame it belongs to.
    fn recv_plans(&mut self) -> Result<Vec<(u64, DisseminationPlan)>, Error>;
}

/// In-process identity transport: both directions are plain queues and
/// every value passes through untouched — the server sees the exact
/// uploads the vehicles produced, bit for bit.
#[derive(Debug, Default)]
pub struct LoopbackTransport {
    uploads: VecDeque<Upload>,
    plans: VecDeque<(u64, DisseminationPlan)>,
}

impl LoopbackTransport {
    /// A fresh loopback with empty queues.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for LoopbackTransport {
    fn name(&self) -> &'static str {
        "loopback"
    }

    fn send_upload(&mut self, _frame: u64, upload: Upload) -> Result<(), Error> {
        self.uploads.push_back(upload);
        Ok(())
    }

    fn recv_uploads(&mut self) -> Result<Vec<Upload>, Error> {
        Ok(self.uploads.drain(..).collect())
    }

    fn send_plan(&mut self, frame: u64, plan: DisseminationPlan) -> Result<(), Error> {
        self.plans.push_back((frame, plan));
        Ok(())
    }

    fn recv_plans(&mut self) -> Result<Vec<(u64, DisseminationPlan)>, Error> {
        Ok(self.plans.drain(..).collect())
    }
}

/// In-process transport that round-trips every message through the v1
/// wire codec: `send_*` encodes a complete wire frame, `recv_*` decodes
/// it — the same bytes [`TcpTransport`] puts on a socket, without the
/// socket. Decoded uploads therefore carry the point-cloud codec's
/// quantisation, exactly like uploads served by the daemon.
#[derive(Debug, Default)]
pub struct WireTransport {
    uploads: VecDeque<Vec<u8>>,
    plans: VecDeque<Vec<u8>>,
}

impl WireTransport {
    /// A fresh wire transport with empty queues.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for WireTransport {
    fn name(&self) -> &'static str {
        "wire"
    }

    fn send_upload(&mut self, frame: u64, upload: Upload) -> Result<(), Error> {
        self.uploads
            .push_back(WireMessage::Upload { frame, upload }.encode());
        Ok(())
    }

    /// Decodes the queued frames in queue order; the first error in that
    /// order is returned, and the queue is drained either way. A queue of
    /// at least [`erpd_par::FAN_OUT_POINTS`] points' worth of bytes is
    /// decoded across workers (`erpd_par::par_map`), a smaller one on the
    /// calling thread, frame by frame.
    fn recv_uploads(&mut self) -> Result<Vec<Upload>, Error> {
        let queued: usize = self.uploads.iter().map(Vec::len).sum();
        if queued / POINT_CODE_BYTES < erpd_par::FAN_OUT_POINTS {
            return self
                .uploads
                .drain(..)
                .map(|bytes| decode_upload(&bytes))
                .collect();
        }
        let frames: Vec<Vec<u8>> = self.uploads.drain(..).collect();
        erpd_par::par_map(frames, |bytes| decode_upload(&bytes))
            .into_iter()
            .collect()
    }

    fn send_plan(&mut self, frame: u64, plan: DisseminationPlan) -> Result<(), Error> {
        self.plans.push_back(
            WireMessage::Plan {
                frame,
                acks: Vec::new(),
                plan,
            }
            .encode(),
        );
        Ok(())
    }

    fn recv_plans(&mut self) -> Result<Vec<(u64, DisseminationPlan)>, Error> {
        let mut out = Vec::with_capacity(self.plans.len());
        for bytes in self.plans.drain(..) {
            match WireMessage::decode(&bytes)?.0 {
                WireMessage::Plan { frame, plan, .. } => out.push((frame, plan)),
                _ => {
                    return Err(Error::Codec {
                        reason: "plan queue held a non-plan frame",
                    })
                }
            }
        }
        Ok(out)
    }
}

/// Bytes one point takes on the wire: the point-cloud codec's three `u16`
/// codes. Queued bytes over this estimate the points a queue holds.
const POINT_CODE_BYTES: usize = 6;

/// Decodes one queued frame of the upload direction.
fn decode_upload(bytes: &[u8]) -> Result<Upload, Error> {
    match WireMessage::decode(bytes)?.0 {
        WireMessage::Upload { upload, .. } => Ok(upload),
        _ => Err(Error::Codec {
            reason: "upload queue held a non-upload frame",
        }),
    }
}

/// One endpoint of a TCP link speaking the v1 wire protocol.
///
/// Reads are buffered: partial frames survive read timeouts without
/// losing sync, and [`recv_message`](Self::recv_message) only yields
/// complete, validated messages.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    buf: Vec<u8>,
    inbox: VecDeque<WireMessage>,
}

impl TcpTransport {
    /// Connects to a daemon (or any wire-protocol peer).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Ok(Self::from_stream(TcpStream::connect(addr)?))
    }

    /// Wraps an accepted connection.
    pub(crate) fn from_stream(stream: TcpStream) -> Self {
        TcpTransport {
            stream,
            buf: Vec::new(),
            inbox: VecDeque::new(),
        }
    }

    /// Decodes as many complete frames as the buffer holds into the inbox.
    fn drain_buffer(&mut self) -> io::Result<()> {
        loop {
            match WireMessage::decode_frame(&self.buf) {
                Ok(Some((msg, used))) => {
                    self.buf.drain(..used);
                    self.inbox.push_back(msg);
                }
                Ok(None) => return Ok(()),
                Err(e) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                }
            }
        }
    }

    /// Receives the next message, blocking up to `timeout`.
    ///
    /// Returns `Ok(None)` on a clean end-of-stream. A timeout surfaces as
    /// `Err` of kind `WouldBlock`/`TimedOut`; any partially read frame
    /// stays buffered, so the next call resumes where this one stopped.
    pub fn recv_message(&mut self, timeout: Duration) -> io::Result<Option<WireMessage>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(msg) = self.inbox.pop_front() {
                return Ok(Some(msg));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "recv_message timed out"));
            }
            self.stream.set_read_timeout(Some(remaining))?;
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "stream closed inside a wire frame",
                        ))
                    }
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    self.drain_buffer()?;
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "recv_message timed out"))
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one message.
    pub fn send_message(&mut self, msg: &WireMessage) -> io::Result<()> {
        write_message(&mut self.stream, msg)
    }
}

/// The serving half every transport feeds: the composed edge stage graph
/// plus the strategy's dissemination. [`crate::System`] drives one
/// in-process; [`crate::EdgeDaemon`] drives one per daemon over TCP — by
/// construction they run the same code on whatever uploads the transport
/// delivered.
#[derive(Debug)]
pub struct ServingCore {
    server: EdgeServer,
    strategy: Strategy,
    /// EMP's round-robin rotation: where the next frame's schedule
    /// starts. Stays 0 unless the core runs [`Strategy::Emp`].
    rr_offset: usize,
}

impl ServingCore {
    /// Assembles a core from a built server and the strategy whose
    /// dissemination it runs.
    pub fn new(server: EdgeServer, strategy: Strategy) -> Self {
        ServingCore {
            server,
            strategy,
            rr_offset: 0,
        }
    }

    /// Serves one frame: runs the five server stages over the delivered
    /// uploads, then the strategy's dissemination under `budget`.
    ///
    /// # Errors
    ///
    /// Propagates stage errors ([`Error::NonFiniteRelevance`] and friends).
    pub fn serve(
        &mut self,
        now: f64,
        uploads: &[Upload],
        budget: u64,
    ) -> Result<(ServerFrame, Staged<DisseminationPlan>), Error> {
        let sf = self.server.process(now, uploads)?;
        let planned = self.disseminate(&sf, budget);
        Ok((sf, planned))
    }

    /// The last module of Fig. 2, by strategy: the relevance-greedy
    /// knapsack (Algorithm 1) for `Ours`, EMP's relevance-blind round
    /// robin, or `Unlimited`'s broadcast.
    fn disseminate(&mut self, frame: &ServerFrame, budget: u64) -> Staged<DisseminationPlan> {
        let t = StageTimer::start();
        let inputs = PlanRequest { frame, budget }.inputs();
        let plan = match self.strategy {
            Strategy::Emp => {
                let (plan, next) = inputs.round_robin(budget, self.rr_offset);
                self.rr_offset = next;
                plan
            }
            Strategy::Unlimited => inputs.broadcast(),
            // `Single` and `V2v` have no edge server; a core built for
            // them serves the paper's plan.
            Strategy::Ours | Strategy::Single | Strategy::V2v => inputs.greedy(budget),
        };
        Staged {
            artifact: plan,
            sample: t.stop(inputs.candidate_pairs()),
        }
    }

    /// Exports this core's state about a departing vehicle into a
    /// [`erpd_core::VehicleHandover`]: tracks + pose history from the
    /// tracking stage, and EMP's rotation offset.
    pub fn export_handover(&mut self, vehicle_id: u64) -> erpd_core::VehicleHandover {
        let mut handover = erpd_core::VehicleHandover::new(vehicle_id);
        self.server.export_handover(&mut handover);
        handover.rr_offset = self.rr_offset as u64;
        handover
    }

    /// Imports a handover exported by another core: the tracking state,
    /// and the rotation offset, so an EMP edge does not immediately
    /// re-serve pairs the losing edge just served.
    pub fn import_handover(&mut self, handover: &erpd_core::VehicleHandover) {
        self.server.import_handover(handover);
        self.rr_offset = handover.rr_offset as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;
    use erpd_core::Assignment;
    use erpd_geometry::{Pose2, Vec2};
    use erpd_sim::IntersectionMap;
    use erpd_tracking::ObjectId;
    use std::collections::BTreeMap;

    fn upload(vehicle: u64) -> Upload {
        Upload {
            vehicle_id: vehicle,
            pose: Pose2::new(Vec2::new(1.0, 2.0), 0.1),
            objects: Vec::new(),
            bytes: 64,
            processing_time: 0.001,
            clustered_points: 0,
        }
    }

    fn plan() -> DisseminationPlan {
        DisseminationPlan {
            assignments: vec![Assignment {
                object: ObjectId(1),
                receiver: ObjectId(2),
                relevance: 0.5,
                size_bytes: 100,
            }],
            total_relevance: 0.5,
            total_bytes: 100,
        }
    }

    #[test]
    fn round_robin_core_owns_its_rotation() {
        let frame = ServerFrame {
            sizes: BTreeMap::from([(ObjectId(1), 400u64), (ObjectId(2), 400u64)]),
            receivers: vec![ObjectId(10), ObjectId(11)],
            ..Default::default()
        };
        let server = EdgeServer::new(ServerConfig::default(), IntersectionMap::default());
        let mut core = ServingCore::new(server, Strategy::Emp);
        let p1 = core.disseminate(&frame, 1000);
        let p2 = core.disseminate(&frame, 1000);
        assert_eq!(p1.artifact.assignments.len(), 2);
        assert_eq!(p2.artifact.assignments.len(), 2);
        // The rotation advanced: the two frames cover all four pairs.
        let mut all: Vec<_> = p1
            .artifact
            .assignments
            .iter()
            .chain(&p2.artifact.assignments)
            .map(|a| (a.receiver, a.object))
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 4);
        assert_eq!(p1.sample.items, 4);
    }

    #[test]
    fn loopback_is_identity_in_fifo_order() {
        let mut t = LoopbackTransport::new();
        let (a, b) = (upload(1), upload(2));
        t.send_upload(0, a.clone()).unwrap();
        t.send_upload(0, b.clone()).unwrap();
        assert_eq!(t.recv_uploads().unwrap(), vec![a, b]);
        assert!(t.recv_uploads().unwrap().is_empty());
        t.send_plan(4, plan()).unwrap();
        assert_eq!(t.recv_plans().unwrap(), vec![(4, plan())]);
    }

    #[test]
    fn wire_transport_round_trips_through_the_codec() {
        let mut t = WireTransport::new();
        t.send_upload(3, upload(9)).unwrap();
        let got = t.recv_uploads().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].vehicle_id, 9);
        assert_eq!(got[0].bytes, 64);
        t.send_plan(7, plan()).unwrap();
        // Plans are fixed-width: exact round trip, frame tag included.
        assert_eq!(t.recv_plans().unwrap(), vec![(7, plan())]);
    }

    #[test]
    fn tcp_transport_carries_frames_both_ways() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sent = WireMessage::Plan {
            frame: 2,
            acks: Vec::new(),
            plan: plan(),
        };
        let client_thread = std::thread::spawn(move || {
            let mut client = TcpTransport::connect(addr).unwrap();
            client
                .send_message(&WireMessage::Upload {
                    frame: 1,
                    upload: upload(5),
                })
                .unwrap();
            client
                .recv_message(Duration::from_secs(5))
                .unwrap()
                .expect("plan arrives")
        });
        let (server_stream, _) = listener.accept().unwrap();
        let mut server = TcpTransport::from_stream(server_stream);
        match server.recv_message(Duration::from_secs(5)).unwrap() {
            Some(WireMessage::Upload { frame: 1, upload }) => assert_eq!(upload.vehicle_id, 5),
            other => panic!("expected the upload, got {other:?}"),
        }
        server.send_message(&sent).unwrap();
        assert_eq!(client_thread.join().unwrap(), sent);
    }
}
