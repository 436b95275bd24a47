//! The versioned binary wire format of the streaming edge daemon.
//!
//! Everything that crosses a vehicle↔edge link is a [`WireMessage`]
//! wrapped in one length-prefixed frame:
//!
//! ```text
//! frame   := magic "ERPW" (4) | version u8 | kind u8 | payload_len u32 | payload
//! ```
//!
//! All integers are little-endian and every `f64` travels as its raw bits.
//! `payload_len` counts payload bytes only (the header is a fixed
//! [`FRAME_HEADER_BYTES`]) and is capped at `MAX_PAYLOAD_BYTES` (64 MiB) so a
//! corrupt length cannot ask the receiver to allocate unbounded memory.
//! This module is the one owner of every payload layout:
//!
//! | kind | message | payload |
//! |------|---------|---------|
//! | 1 | [`WireMessage::Hello`] | `vehicle_id u64` |
//! | 2 | [`WireMessage::Upload`] | `frame u64 \| vehicle_id u64 \| pose x,y,heading 3×f64 \| bytes u64 \| processing_time f64 \| clustered_points u64 \| n_objects u32` then per object `centroid x,y 2×f64 \| cloud_len u32 \| cloud` |
//! | 3 | [`WireMessage::Plan`] | `frame u64 \| n_acks u32` then per ack `vehicle u64 \| client_frame u64`, then `total_relevance f64 \| total_bytes u64 \| n_assignments u32` then per assignment `object u64 \| receiver u64 \| relevance f64 \| size_bytes u64` |
//! | 4 | [`WireMessage::Bye`] | empty |
//! | 5 | [`WireMessage::Handover`] | `vehicle_id u64 \| position x,y 2×f64 \| flags u8 \| rr_offset u64 \| n_pose u32 \| n_tracks u32` then per pose sample `t, x, y, heading 4×f64`, then per track `id u64 \| kind u8 \| misses u64 \| bytes u64 \| n_obs u32` then per observation `t, x, y 3×f64` |
//!
//! A handover's `flags` carries `in_outage` in bit 0 and no other bit; a
//! track `kind` is 0 for a vehicle and 1 for a pedestrian.
//!
//! Object point clouds ride as the quantised
//! [`erpd_pointcloud::compress`] format, so a decoded upload's coordinates
//! carry that codec's bounded quantisation error; every other field is
//! fixed-width and round-trips bit-exactly. Decoding never panics on
//! malformed input: one bounds-checked reader serves every payload, and
//! every failure is an [`Error::Codec`]. A declared count is checked
//! against the bytes left before anything is allocated for it, and a pose
//! coordinate beyond `MAX_POSE_COORD` (10⁶ m) counts as malformed.
//!
//! The same frames serve three transports: the in-process
//! [`crate::WireTransport`] (codec round trip without a socket), the TCP
//! daemon ([`crate::EdgeDaemon`]), and the channel-level truncation fault
//! ([`truncate_on_wire`]), which clips an encoded upload frame the way a
//! real link does and decodes the surviving prefix.

use crate::{Upload, UploadedObject};
use erpd_core::{Assignment, DisseminationPlan, Error, PoseSample, TrackSnapshot, VehicleHandover};
use erpd_geometry::{Pose2, Vec2};
use erpd_pointcloud::{compress, decompress, DecodeError};
use erpd_tracking::{ObjectId, ObjectKind};
use std::io::{self, Write};

/// Magic bytes opening every wire frame.
pub(crate) const WIRE_MAGIC: [u8; 4] = *b"ERPW";
/// Current (and only) wire-format version.
pub const WIRE_VERSION: u8 = 1;
/// Fixed frame-header size: magic + version + kind + payload length.
pub const FRAME_HEADER_BYTES: usize = 4 + 1 + 1 + 4;
/// Upper bound on a frame's payload; a declared length beyond this is
/// rejected as corrupt instead of being allocated.
pub(crate) const MAX_PAYLOAD_BYTES: usize = 64 << 20;
/// Upper bound on a decoded upload pose coordinate, metres: `|x|` and
/// `|y|` beyond it are rejected as corrupt. A scenario spans well under a
/// kilometre, so this only turns away poses no vehicle can hold — and
/// keeps the pose-history velocity finite (two poses at `±1e307` overflow
/// it to infinity, which the trajectory predictor cannot survive).
pub(crate) const MAX_POSE_COORD: f64 = 1e6;

/// Fixed-width prefix of an upload payload, before the object list.
const UPLOAD_FIXED_BYTES: usize = 8 + 8 + 24 + 8 + 8 + 8 + 4;
/// One plan ack: vehicle, client frame.
const PER_ACK: usize = 8 + 8;
/// One plan assignment: object, receiver, relevance, size.
const PER_ASSIGNMENT: usize = 8 + 8 + 8 + 8;
/// One handover pose sample: t, x, y, heading.
const PER_POSE: usize = 8 + 8 + 8 + 8;
/// One handover track before its history: id, kind, misses, bytes, n_obs.
const TRACK_HEADER: usize = 8 + 1 + 8 + 8 + 4;
/// One track observation: t, x, y.
const PER_OBS: usize = 8 + 8 + 8;

const KIND_HELLO: u8 = 1;
const KIND_UPLOAD: u8 = 2;
const KIND_PLAN: u8 = 3;
const KIND_BYE: u8 = 4;
const KIND_HANDOVER: u8 = 5;

/// One message of the vehicle↔edge wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Client introduction: opens a session for one vehicle and subscribes
    /// it to the daemon's plan broadcasts.
    Hello {
        /// The connecting vehicle.
        vehicle_id: u64,
    },
    /// One vehicle's perception upload for one of its local frames.
    Upload {
        /// The sender's own frame counter (echoed back in plan acks).
        frame: u64,
        /// The upload itself.
        upload: Upload,
    },
    /// The server's dissemination decision for one served frame, plus the
    /// `(vehicle, client_frame)` pairs whose uploads it consumed.
    Plan {
        /// The server's frame counter.
        frame: u64,
        /// Which uploads this frame consumed (the delivery receipt a
        /// client uses to match latency samples).
        acks: Vec<(u64, u64)>,
        /// The dissemination plan.
        plan: DisseminationPlan,
    },
    /// Clean session close.
    Bye,
    /// Edge-to-edge track transfer: everything the losing edge knows about
    /// a vehicle crossing a region boundary. Rides the same framed codec
    /// as vehicle traffic so a multi-edge deployment stays
    /// carrier-independent (loopback, in-process wire, or TCP).
    Handover {
        /// The transferred state.
        handover: VehicleHandover,
    },
}

fn codec(reason: &'static str) -> Error {
    Error::Codec { reason }
}

fn cloud_error(e: DecodeError) -> Error {
    codec(match e {
        DecodeError::TooShort => "object cloud shorter than its header",
        DecodeError::BadMagic => "object cloud has wrong magic bytes",
        DecodeError::LengthMismatch { .. } => "object cloud length mismatch",
        DecodeError::BadBounds => "object cloud has corrupt bounds",
    })
}

/// Little-endian reader over a payload slice; every read is bounds-checked
/// so corrupt frames surface as `Error::Codec`, never as a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize, reason: &'static str) -> Result<&'a [u8], Error> {
        let end = self.at.checked_add(n).ok_or(codec(reason))?;
        if end > self.bytes.len() {
            return Err(codec(reason));
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self, reason: &'static str) -> Result<u8, Error> {
        Ok(self.take(1, reason)?[0])
    }

    fn u32(&mut self, reason: &'static str) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.take(4, reason)?.try_into().expect("sized")))
    }

    fn u64(&mut self, reason: &'static str) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.take(8, reason)?.try_into().expect("sized")))
    }

    fn f64(&mut self, reason: &'static str) -> Result<f64, Error> {
        Ok(f64::from_bits(self.u64(reason)?))
    }

    /// Errors unless `count` items of `width` bytes could fit in the rest
    /// of the buffer: a corrupt count must not drive `Vec::with_capacity`
    /// through the roof before the reads run short.
    fn fits(&self, count: usize, width: usize, reason: &'static str) -> Result<(), Error> {
        match count.checked_mul(width) {
            Some(need) if need <= self.rest().len() => Ok(()),
            _ => Err(codec(reason)),
        }
    }

    fn rest(&self) -> &'a [u8] {
        &self.bytes[self.at..]
    }
}

/// Appends `words` as little-endian `u64`s (an `f64` as its raw bits).
fn put(out: &mut Vec<u8>, words: &[u64]) {
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Appends a list length as a little-endian `u32`.
fn put_len(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(&(len as u32).to_le_bytes());
}

fn encode_plan_payload(
    out: &mut Vec<u8>,
    frame: u64,
    acks: &[(u64, u64)],
    plan: &DisseminationPlan,
) {
    put(out, &[frame]);
    put_len(out, acks.len());
    for &(vehicle, client_frame) in acks {
        put(out, &[vehicle, client_frame]);
    }
    put(out, &[plan.total_relevance.to_bits(), plan.total_bytes]);
    put_len(out, plan.assignments.len());
    for a in &plan.assignments {
        put(out, &[a.object.0, a.receiver.0, a.relevance.to_bits(), a.size_bytes]);
    }
}

fn decode_plan_payload(payload: &[u8]) -> Result<WireMessage, Error> {
    let mut c = Cursor::new(payload);
    let short = "plan payload shorter than its declared length";
    let frame = c.u64(short)?;
    let n_acks = c.u32(short)? as usize;
    c.fits(n_acks, PER_ACK, short)?;
    let mut acks = Vec::with_capacity(n_acks);
    for _ in 0..n_acks {
        acks.push((c.u64(short)?, c.u64(short)?));
    }
    let total_relevance = c.f64(short)?;
    let total_bytes = c.u64(short)?;
    let n = c.u32(short)? as usize;
    c.fits(n, PER_ASSIGNMENT, short)?;
    let mut assignments = Vec::with_capacity(n);
    for _ in 0..n {
        assignments.push(Assignment {
            object: ObjectId(c.u64(short)?),
            receiver: ObjectId(c.u64(short)?),
            relevance: c.f64(short)?,
            size_bytes: c.u64(short)?,
        });
    }
    if !c.rest().is_empty() {
        return Err(codec("plan payload has trailing bytes"));
    }
    let plan = DisseminationPlan {
        assignments,
        total_relevance,
        total_bytes,
    };
    Ok(WireMessage::Plan { frame, acks, plan })
}

fn encode_handover_payload(out: &mut Vec<u8>, h: &VehicleHandover) {
    put(out, &[h.vehicle_id, h.position.x.to_bits(), h.position.y.to_bits()]);
    out.push(h.in_outage as u8);
    put(out, &[h.rr_offset]);
    put_len(out, h.pose_history.len());
    put_len(out, h.tracks.len());
    for p in &h.pose_history {
        let (x, y) = (p.position.x, p.position.y);
        put(out, &[p.t.to_bits(), x.to_bits(), y.to_bits(), p.heading.to_bits()]);
    }
    for t in &h.tracks {
        put(out, &[t.id]);
        out.push(match t.kind {
            ObjectKind::Vehicle => 0,
            ObjectKind::Pedestrian => 1,
        });
        put(out, &[t.misses, t.bytes]);
        put_len(out, t.history.len());
        for (obs_t, p) in &t.history {
            put(out, &[obs_t.to_bits(), p.x.to_bits(), p.y.to_bits()]);
        }
    }
}

fn decode_handover_payload(payload: &[u8]) -> Result<WireMessage, Error> {
    let mut c = Cursor::new(payload);
    let short = "handover payload shorter than its declared length";
    let vehicle_id = c.u64(short)?;
    let position = Vec2::new(c.f64(short)?, c.f64(short)?);
    let in_outage = match c.u8(short)? {
        0 => false,
        1 => true,
        _ => return Err(codec("handover message carries unknown flag bits")),
    };
    let rr_offset = c.u64(short)?;
    let n_pose = c.u32(short)? as usize;
    let n_tracks = c.u32(short)? as usize;
    c.fits(n_pose, PER_POSE, short)?;
    let mut pose_history = Vec::with_capacity(n_pose);
    for _ in 0..n_pose {
        pose_history.push(PoseSample {
            t: c.f64(short)?,
            position: Vec2::new(c.f64(short)?, c.f64(short)?),
            heading: c.f64(short)?,
        });
    }
    c.fits(n_tracks, TRACK_HEADER, short)?;
    let mut tracks = Vec::with_capacity(n_tracks);
    for _ in 0..n_tracks {
        let id = c.u64(short)?;
        let kind = match c.u8(short)? {
            0 => ObjectKind::Vehicle,
            1 => ObjectKind::Pedestrian,
            _ => return Err(codec("handover track has unknown object kind")),
        };
        let misses = c.u64(short)?;
        let bytes = c.u64(short)?;
        let n_obs = c.u32(short)? as usize;
        c.fits(n_obs, PER_OBS, short)?;
        let mut history = Vec::with_capacity(n_obs);
        for _ in 0..n_obs {
            history.push((c.f64(short)?, Vec2::new(c.f64(short)?, c.f64(short)?)));
        }
        tracks.push(TrackSnapshot {
            id,
            kind,
            misses,
            bytes,
            history,
        });
    }
    if !c.rest().is_empty() {
        return Err(codec("handover payload has trailing bytes"));
    }
    let handover = VehicleHandover {
        vehicle_id,
        position,
        in_outage,
        rr_offset,
        pose_history,
        tracks,
    };
    Ok(WireMessage::Handover { handover })
}

fn encode_upload_payload(out: &mut Vec<u8>, frame: u64, upload: &Upload) {
    let p = upload.pose.position;
    put(out, &[frame, upload.vehicle_id]);
    put(out, &[p.x.to_bits(), p.y.to_bits(), upload.pose.heading().to_bits()]);
    put(out, &[upload.bytes, upload.processing_time.to_bits()]);
    put(out, &[upload.clustered_points as u64]);
    put_len(out, upload.objects.len());
    for o in &upload.objects {
        put(out, &[o.centroid.x.to_bits(), o.centroid.y.to_bits()]);
        let cloud = compress(&o.points);
        put_len(out, cloud.len());
        out.extend_from_slice(&cloud);
    }
}

/// Decodes an upload payload. With `lossy` set, a payload whose object
/// list stops mid-object (a truncated frame) yields the complete leading
/// objects instead of an error — the decoder half of [`truncate_on_wire`].
fn decode_upload_payload(payload: &[u8], lossy: bool) -> Result<(u64, Upload), Error> {
    let mut c = Cursor::new(payload);
    let short = "upload payload shorter than its fixed fields";
    let frame = c.u64(short)?;
    let vehicle_id = c.u64(short)?;
    let px = c.f64(short)?;
    let py = c.f64(short)?;
    let heading = c.f64(short)?;
    if !(px.is_finite() && py.is_finite() && heading.is_finite()) {
        return Err(codec("upload pose is non-finite"));
    }
    if px.abs() > MAX_POSE_COORD || py.abs() > MAX_POSE_COORD {
        return Err(codec("upload pose is out of range"));
    }
    let bytes = c.u64(short)?;
    let processing_time = c.f64(short)?;
    let clustered_points = c.u64(short)? as usize;
    let n_objects = c.u32(short)? as usize;
    let mut objects = Vec::new();
    for _ in 0..n_objects {
        let obj_short = "upload object list shorter than declared";
        // Object header: centroid (16) + cloud length (4).
        if c.rest().len() < 20 {
            if lossy {
                break;
            }
            return Err(codec(obj_short));
        }
        let cx = c.f64(obj_short)?;
        let cy = c.f64(obj_short)?;
        if !(cx.is_finite() && cy.is_finite()) {
            return Err(codec("upload object centroid is non-finite"));
        }
        let cloud_len = c.u32(obj_short)? as usize;
        if cloud_len > c.rest().len() {
            if lossy {
                break;
            }
            return Err(codec(obj_short));
        }
        let cloud_bytes = c.take(cloud_len, obj_short)?;
        let points = decompress(cloud_bytes).map_err(cloud_error)?;
        objects.push(UploadedObject {
            centroid: Vec2::new(cx, cy),
            points,
        });
    }
    if !lossy && !c.rest().is_empty() {
        return Err(codec("upload payload has trailing bytes"));
    }
    Ok((
        frame,
        Upload {
            vehicle_id,
            pose: Pose2::new(Vec2::new(px, py), heading),
            objects,
            bytes,
            processing_time,
            clustered_points,
        },
    ))
}

impl WireMessage {
    fn kind(&self) -> u8 {
        match self {
            WireMessage::Hello { .. } => KIND_HELLO,
            WireMessage::Upload { .. } => KIND_UPLOAD,
            WireMessage::Plan { .. } => KIND_PLAN,
            WireMessage::Bye => KIND_BYE,
            WireMessage::Handover { .. } => KIND_HANDOVER,
        }
    }

    /// Encodes the message as one complete wire frame (header included).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            WireMessage::Hello { vehicle_id } => put(&mut payload, &[*vehicle_id]),
            WireMessage::Upload { frame, upload } => {
                encode_upload_payload(&mut payload, *frame, upload);
            }
            WireMessage::Plan { frame, acks, plan } => {
                encode_plan_payload(&mut payload, *frame, acks, plan);
            }
            WireMessage::Bye => {}
            WireMessage::Handover { handover } => {
                encode_handover_payload(&mut payload, handover);
            }
        }
        let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
        out.extend_from_slice(&WIRE_MAGIC);
        out.push(WIRE_VERSION);
        out.push(self.kind());
        put_len(&mut out, payload.len());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes one complete frame from the front of `bytes`, returning the
    /// message and the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] when the buffer does not hold a complete,
    /// well-formed frame (truncated header or payload, wrong magic or
    /// version, unknown kind, malformed payload). Never panics.
    pub fn decode(bytes: &[u8]) -> Result<(WireMessage, usize), Error> {
        match WireMessage::decode_frame(bytes)? {
            Some(ok) => Ok(ok),
            None => Err(codec("wire frame is incomplete")),
        }
    }

    /// Streaming variant of [`decode`](Self::decode): returns `Ok(None)`
    /// when the buffer holds only a prefix of a frame (more bytes may
    /// complete it), and `Err` only for definitively corrupt input.
    pub fn decode_frame(bytes: &[u8]) -> Result<Option<(WireMessage, usize)>, Error> {
        if bytes.len() < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        if bytes[..4] != WIRE_MAGIC {
            return Err(codec("wire frame has wrong magic bytes"));
        }
        if bytes[4] != WIRE_VERSION {
            return Err(codec("unsupported wire-format version"));
        }
        let kind = bytes[5];
        let len = u32::from_le_bytes(bytes[6..10].try_into().expect("sized")) as usize;
        if len > MAX_PAYLOAD_BYTES {
            return Err(codec("wire frame declares an oversized payload"));
        }
        let total = FRAME_HEADER_BYTES + len;
        if bytes.len() < total {
            return Ok(None);
        }
        let payload = &bytes[FRAME_HEADER_BYTES..total];
        let msg = match kind {
            KIND_HELLO => {
                if payload.len() != 8 {
                    return Err(codec("hello payload must be exactly 8 bytes"));
                }
                WireMessage::Hello {
                    vehicle_id: u64::from_le_bytes(payload.try_into().expect("sized")),
                }
            }
            KIND_UPLOAD => {
                let (frame, upload) = decode_upload_payload(payload, false)?;
                WireMessage::Upload { frame, upload }
            }
            KIND_PLAN => decode_plan_payload(payload)?,
            KIND_BYE => {
                if !payload.is_empty() {
                    return Err(codec("bye payload must be empty"));
                }
                WireMessage::Bye
            }
            KIND_HANDOVER => decode_handover_payload(payload)?,
            _ => return Err(codec("unknown wire message kind")),
        };
        Ok(Some((msg, total)))
    }
}

/// Writes one message as a single wire frame.
pub fn write_message<W: Write>(w: &mut W, msg: &WireMessage) -> io::Result<()> {
    w.write_all(&msg.encode())
}

/// Applies the channel's partial-upload truncation the way a real link
/// does: encodes the upload as its v1 wire frame, clips the frame to the
/// surviving `keep` fraction of its bytes, and runs the decoder's
/// corruption handling over the prefix — complete leading objects
/// survive, the clipped tail (and any object split by the cut) is lost.
///
/// Returns `None` when the cut lands inside the frame header or the
/// upload's fixed fields, i.e. when the surviving prefix is undecodable
/// and the server can make no use of the upload at all.
pub fn truncate_on_wire(upload: &Upload, keep: f64) -> Option<Upload> {
    let frame = WireMessage::Upload {
        frame: 0,
        upload: upload.clone(),
    }
    .encode();
    let kept = ((frame.len() as f64) * keep.clamp(0.0, 1.0)).floor() as usize;
    if kept < FRAME_HEADER_BYTES + UPLOAD_FIXED_BYTES {
        return None;
    }
    let payload = &frame[FRAME_HEADER_BYTES..kept];
    let (_, decoded) = decode_upload_payload(payload, true).ok()?;
    Some(decoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use erpd_geometry::Vec3;
    use erpd_pointcloud::{max_quantization_error, PointCloud};

    fn sample_upload(n_objects: usize) -> Upload {
        let objects = (0..n_objects)
            .map(|k| {
                let base = k as f64 * 10.0;
                let points: PointCloud = (0..20)
                    .map(|i| Vec3::new(base + i as f64 * 0.1, 2.0 - i as f64 * 0.05, 0.5))
                    .collect();
                UploadedObject {
                    centroid: Vec2::new(base + 1.0, 1.5),
                    points,
                }
            })
            .collect();
        Upload {
            vehicle_id: 42,
            pose: Pose2::new(Vec2::new(3.0, -7.5), 0.3),
            objects,
            bytes: 12_345,
            processing_time: 0.0125,
            clustered_points: 777,
        }
    }

    #[test]
    fn upload_round_trip_preserves_everything_but_quantised_points() {
        let u = sample_upload(3);
        let bytes = WireMessage::Upload { frame: 9, upload: u.clone() }.encode();
        let (msg, used) = WireMessage::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        let WireMessage::Upload { frame, upload } = msg else {
            panic!("wrong kind");
        };
        assert_eq!(frame, 9);
        assert_eq!(upload.vehicle_id, u.vehicle_id);
        assert_eq!(upload.pose, u.pose);
        assert_eq!(upload.bytes, u.bytes);
        assert_eq!(upload.processing_time, u.processing_time);
        assert_eq!(upload.clustered_points, u.clustered_points);
        assert_eq!(upload.objects.len(), u.objects.len());
        for (a, b) in upload.objects.iter().zip(&u.objects) {
            assert_eq!(a.centroid, b.centroid);
            assert_eq!(a.points.len(), b.points.len());
            let bound = max_quantization_error(&b.points) * 2.0 + 1e-9;
            for (p, q) in a.points.iter().zip(b.points.iter()) {
                assert!((p.x - q.x).abs() <= bound);
                assert!((p.y - q.y).abs() <= bound);
                assert!((p.z - q.z).abs() <= bound);
            }
        }
    }

    fn one_assignment_plan() -> WireMessage {
        WireMessage::Plan {
            frame: 3,
            acks: vec![(7, 12)],
            plan: DisseminationPlan {
                assignments: vec![Assignment {
                    object: ObjectId(5),
                    receiver: ObjectId(8),
                    relevance: 0.25,
                    size_bytes: 640,
                }],
                total_relevance: 0.25,
                total_bytes: 640,
            },
        }
    }

    /// One pose sample and one track of one observation.
    fn sample_handover() -> WireMessage {
        WireMessage::Handover {
            handover: VehicleHandover {
                vehicle_id: 3,
                position: Vec2::new(55.0, -3.5),
                in_outage: true,
                rr_offset: 11,
                pose_history: vec![PoseSample {
                    t: 1.5,
                    position: Vec2::new(54.0, -3.5),
                    heading: 0.0,
                }],
                tracks: vec![TrackSnapshot {
                    id: (2u64 << 32) + 4,
                    kind: ObjectKind::Pedestrian,
                    misses: 1,
                    bytes: 800,
                    history: vec![(1.5, Vec2::new(50.0, 2.0))],
                }],
            },
        }
    }

    #[test]
    fn hello_plan_bye_handover_round_trip_exactly() {
        let hello = WireMessage::Hello { vehicle_id: 7 };
        for msg in [hello, one_assignment_plan(), WireMessage::Bye, sample_handover()] {
            let bytes = msg.encode();
            let (decoded, used) = WireMessage::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, msg);
        }
    }

    /// `frame` with its payload replaced and its length fixed up, so the
    /// payload decoder — not the frame reader — sees the change.
    fn reframed(frame: &[u8], payload: &[u8]) -> Vec<u8> {
        let mut out = frame[..FRAME_HEADER_BYTES - 4].to_vec();
        put_len(&mut out, payload.len());
        out.extend_from_slice(payload);
        out
    }

    /// `frame` with `bytes` written over its payload at offset `at`.
    fn overwritten(frame: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
        let mut payload = frame[FRAME_HEADER_BYTES..].to_vec();
        payload[at..at + bytes.len()].copy_from_slice(bytes);
        reframed(frame, &payload)
    }

    fn assert_codec_error(bytes: &[u8], what: &str) {
        assert!(
            matches!(WireMessage::decode(bytes), Err(Error::Codec { .. })),
            "{what} must be rejected"
        );
    }

    /// Every strict prefix of `msg`'s payload, and the payload plus one
    /// trailing byte, framed as complete messages, are codec errors.
    fn assert_payload_is_exact(msg: &WireMessage) {
        let frame = msg.encode();
        let payload = &frame[FRAME_HEADER_BYTES..];
        for cut in 0..payload.len() {
            let prefix = reframed(&frame, &payload[..cut]);
            assert_codec_error(&prefix, &format!("a {cut}-byte payload prefix"));
        }
        let padded = reframed(&frame, &[payload, &[0]].concat());
        assert_codec_error(&padded, "a trailing payload byte");
    }

    #[test]
    fn plan_rejects_every_truncation_and_absurd_counts() {
        let msg = one_assignment_plan();
        assert_payload_is_exact(&msg);
        let frame = msg.encode();
        // Payload: frame (8), n_acks (4) at 8, one ack (16), then
        // total_relevance (8), total_bytes (8), n_assignments (4) at 44.
        let huge = u32::MAX.to_le_bytes();
        assert_codec_error(&overwritten(&frame, 8, &huge), "an absurd ack count");
        assert_codec_error(&overwritten(&frame, 44, &huge), "an absurd assignment count");
    }

    #[test]
    fn handover_rejects_every_truncation() {
        assert_payload_is_exact(&sample_handover());
    }

    #[test]
    fn handover_rejects_corrupt_counts_flags_and_kinds() {
        let frame = sample_handover().encode();
        // Payload: id, x, y (24), flags (1) at 24, rr_offset (8),
        // n_pose (4) at 33, n_tracks (4) at 37, one pose sample (32), then
        // the track: id (8), kind (1) at 81, misses and bytes (16),
        // n_obs (4) at 98.
        let huge = u32::MAX.to_le_bytes();
        assert_codec_error(&overwritten(&frame, 33, &huge), "an absurd pose count");
        assert_codec_error(&overwritten(&frame, 37, &huge), "an absurd track count");
        assert_codec_error(&overwritten(&frame, 98, &huge), "an absurd observation count");
        assert_codec_error(&overwritten(&frame, 24, &[2]), "an unknown flag bit");
        assert_codec_error(&overwritten(&frame, 81, &[7]), "an unknown track kind");
        // The offsets are right: the valid values there decode.
        assert!(WireMessage::decode(&overwritten(&frame, 24, &[0])).is_ok());
        assert!(WireMessage::decode(&overwritten(&frame, 81, &[0])).is_ok());
    }

    #[test]
    fn decode_frame_distinguishes_incomplete_from_corrupt() {
        let bytes = WireMessage::Upload { frame: 1, upload: sample_upload(1) }.encode();
        // Any prefix is "incomplete", not an error.
        assert!(WireMessage::decode_frame(&bytes[..3]).unwrap().is_none());
        assert!(WireMessage::decode_frame(&bytes[..bytes.len() - 1]).unwrap().is_none());
        // Wrong magic and wrong version are corrupt.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(WireMessage::decode_frame(&bad).is_err());
        let mut bad = bytes.clone();
        bad[4] = WIRE_VERSION + 1;
        assert!(WireMessage::decode_frame(&bad).is_err());
        // Unknown kind is corrupt.
        let mut bad = bytes;
        bad[5] = 99;
        assert!(WireMessage::decode_frame(&bad).is_err());
    }

    #[test]
    fn non_finite_pose_and_centroid_are_rejected_at_decode() {
        let bytes = WireMessage::Upload { frame: 1, upload: sample_upload(1) }.encode();
        let nan = f64::NAN.to_le_bytes();
        // Payload layout: frame u64, vehicle_id u64, then pose px at 16.
        let px_at = FRAME_HEADER_BYTES + 16;
        let mut bad = bytes.clone();
        bad[px_at..px_at + 8].copy_from_slice(&nan);
        assert!(matches!(
            WireMessage::decode_frame(&bad),
            Err(Error::Codec { .. })
        ));
        // First object's centroid x sits after the 8×u64/f64 fixed fields
        // and the u32 object count.
        let cx_at = FRAME_HEADER_BYTES + 8 * 8 + 4;
        let mut bad = bytes.clone();
        bad[cx_at..cx_at + 8].copy_from_slice(&nan);
        assert!(matches!(
            WireMessage::decode_frame(&bad),
            Err(Error::Codec { .. })
        ));
        // The same corrupt object is rejected on the lossy path too: lossy
        // tolerates truncation, never corruption.
        let payload = &bad[FRAME_HEADER_BYTES..];
        assert!(decode_upload_payload(payload, true).is_err());
        // Sanity: the untouched frame still decodes.
        assert!(WireMessage::decode_frame(&bytes).unwrap().is_some());
    }

    #[test]
    fn pose_beyond_the_coordinate_bound_is_rejected_at_decode() {
        let at = |x: f64, y: f64| {
            let mut u = sample_upload(1);
            u.pose = Pose2::new(Vec2::new(x, y), 0.3);
            WireMessage::decode(&WireMessage::Upload { frame: 1, upload: u }.encode())
        };
        for (x, y) in [(1e307, 0.0), (-1e307, 0.0), (0.0, 1e307), (0.0, -f64::MAX)] {
            assert!(matches!(at(x, y), Err(Error::Codec { .. })), "({x}, {y})");
        }
        // Exactly at the bound decodes, and the pose survives bit for bit.
        let b = MAX_POSE_COORD;
        for (x, y) in [(b, -b), (-b, b)] {
            let Ok((WireMessage::Upload { upload, .. }, _)) = at(x, y) else {
                panic!("a pose at the bound must decode");
            };
            assert_eq!(upload.pose.position, Vec2::new(x, y));
        }
    }

    #[test]
    fn oversized_declared_payload_is_rejected_not_allocated() {
        let mut bytes = WireMessage::Bye.encode();
        bytes[6..10].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            WireMessage::decode_frame(&bytes),
            Err(Error::Codec { .. })
        ));
    }

    #[test]
    fn stream_read_write_round_trip() {
        let mut buf = Vec::new();
        let msgs = [
            WireMessage::Hello { vehicle_id: 1 },
            WireMessage::Upload { frame: 2, upload: sample_upload(2) },
            WireMessage::Bye,
        ];
        for m in &msgs {
            write_message(&mut buf, m).unwrap();
        }
        let mut got = Vec::new();
        let mut at = 0;
        while let Some((m, used)) = WireMessage::decode_frame(&buf[at..]).unwrap() {
            got.push(m);
            at += used;
        }
        assert_eq!(at, buf.len());
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], msgs[0]);
        assert_eq!(got[2], msgs[2]);
    }

    #[test]
    fn truncate_on_wire_keeps_complete_leading_objects() {
        let u = sample_upload(4);
        let full = truncate_on_wire(&u, 1.0).expect("full frame survives");
        assert_eq!(full.objects.len(), 4);
        let half = truncate_on_wire(&u, 0.5).expect("header survives at 50%");
        assert!(
            half.objects.len() < 4,
            "half the frame cannot carry all four objects"
        );
        assert_eq!(half.vehicle_id, u.vehicle_id);
        assert_eq!(half.pose, u.pose);
        // An object split by the cut is dropped, never half-decoded.
        for (a, b) in half.objects.iter().zip(&u.objects) {
            assert_eq!(a.centroid, b.centroid);
            assert_eq!(a.points.len(), b.points.len());
        }
    }

    #[test]
    fn truncate_on_wire_rejects_cuts_inside_the_fixed_fields() {
        let u = sample_upload(0);
        // An empty upload's frame is nearly all fixed fields: clipping
        // half of it cuts into them.
        assert!(truncate_on_wire(&u, 0.5).is_none());
        assert!(truncate_on_wire(&u, 0.0).is_none());
        assert!(truncate_on_wire(&u, 1.0).is_some());
    }
}
