//! The versioned binary wire format of the streaming edge daemon.
//!
//! Everything that crosses a vehicle↔edge link is a [`WireMessage`]
//! wrapped in one length-prefixed frame:
//!
//! ```text
//! frame   := magic "ERPW" (4) | version u8 | kind u8 | payload_len u32 | payload
//! ```
//!
//! All integers are little-endian. `payload_len` counts payload bytes only
//! (the header is a fixed [`FRAME_HEADER_BYTES`]) and is capped at
//! [`MAX_PAYLOAD_BYTES`] so a corrupt length cannot ask the receiver to
//! allocate unbounded memory. Message kinds:
//!
//! | kind | message | payload |
//! |------|---------|---------|
//! | 1 | [`WireMessage::Hello`] | `vehicle_id u64` |
//! | 2 | [`WireMessage::Upload`] | `frame u64 \| vehicle_id u64 \| pose x,y,heading 3×f64 \| bytes u64 \| processing_time f64 \| clustered_points u64 \| n_objects u32` then per object `centroid x,y 2×f64 \| cloud_len u32 \| cloud` |
//! | 3 | [`WireMessage::Plan`] | `frame u64 \| n_acks u32 \| (vehicle u64, client_frame u64)*` then the plan encoding of [`DisseminationPlan::encode_into`] |
//! | 4 | [`WireMessage::Bye`] | empty |
//! | 5 | [`WireMessage::Handover`] | the handover encoding of [`VehicleHandover::encode_into`] |
//!
//! Object point clouds ride as the quantised
//! [`erpd_pointcloud::compress`] format, so a decoded upload's coordinates
//! carry that codec's bounded quantisation error; every other field is
//! fixed-width and round-trips bit-exactly. Decoding never panics on
//! malformed input: every failure is an [`Error::Codec`]. A pose
//! coordinate beyond [`MAX_POSE_COORD`] counts as malformed.
//!
//! The same frames serve three transports: the in-process
//! [`crate::WireTransport`] (codec round trip without a socket), the TCP
//! daemon ([`crate::EdgeDaemon`]), and the channel-level truncation fault
//! ([`truncate_on_wire`]), which clips an encoded upload frame the way a
//! real link does and decodes the surviving prefix.

use crate::{Upload, UploadedObject};
use erpd_core::{DisseminationPlan, Error, VehicleHandover};
use erpd_geometry::{Pose2, Vec2};
use erpd_pointcloud::{compress, decompress, DecodeError};
use std::io::{self, Write};

/// Magic bytes opening every wire frame.
pub const WIRE_MAGIC: [u8; 4] = *b"ERPW";
/// Current (and only) wire-format version.
pub const WIRE_VERSION: u8 = 1;
/// Fixed frame-header size: magic + version + kind + payload length.
pub const FRAME_HEADER_BYTES: usize = 4 + 1 + 1 + 4;
/// Upper bound on a frame's payload; a declared length beyond this is
/// rejected as corrupt instead of being allocated.
pub const MAX_PAYLOAD_BYTES: usize = 64 << 20;
/// Upper bound on a decoded upload pose coordinate, metres: `|x|` and
/// `|y|` beyond it are rejected as corrupt. A scenario spans well under a
/// kilometre, so this only turns away poses no vehicle can hold — and
/// keeps the pose-history velocity finite (two poses at `±1e307` overflow
/// it to infinity, which the trajectory predictor cannot survive).
pub const MAX_POSE_COORD: f64 = 1e6;

/// Fixed-width prefix of an upload payload, before the object list.
const UPLOAD_FIXED_BYTES: usize = 8 + 8 + 24 + 8 + 8 + 8 + 4;

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

    fn u32(&mut self, reason: &'static str) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.take(4, reason)?.try_into().expect("sized")))
    }

    fn u64(&mut self, reason: &'static str) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.take(8, reason)?.try_into().expect("sized")))
    }

    fn f64(&mut self, reason: &'static str) -> Result<f64, Error> {
        Ok(f64::from_bits(self.u64(reason)?))
    }

    fn rest(&self) -> &'a [u8] {
        &self.bytes[self.at..]
    }
}

fn encode_upload_payload(out: &mut Vec<u8>, frame: u64, upload: &Upload) {
    out.extend_from_slice(&frame.to_le_bytes());
    out.extend_from_slice(&upload.vehicle_id.to_le_bytes());
    out.extend_from_slice(&upload.pose.position.x.to_le_bytes());
    out.extend_from_slice(&upload.pose.position.y.to_le_bytes());
    out.extend_from_slice(&upload.pose.heading().to_le_bytes());
    out.extend_from_slice(&upload.bytes.to_le_bytes());
    out.extend_from_slice(&upload.processing_time.to_le_bytes());
    out.extend_from_slice(&(upload.clustered_points as u64).to_le_bytes());
    out.extend_from_slice(&(upload.objects.len() as u32).to_le_bytes());
    for o in &upload.objects {
        out.extend_from_slice(&o.centroid.x.to_le_bytes());
        out.extend_from_slice(&o.centroid.y.to_le_bytes());
        let cloud = compress(&o.points);
        out.extend_from_slice(&(cloud.len() as u32).to_le_bytes());
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
            WireMessage::Hello { vehicle_id } => {
                payload.extend_from_slice(&vehicle_id.to_le_bytes());
            }
            WireMessage::Upload { frame, upload } => {
                encode_upload_payload(&mut payload, *frame, upload);
            }
            WireMessage::Plan { frame, acks, plan } => {
                payload.extend_from_slice(&frame.to_le_bytes());
                payload.extend_from_slice(&(acks.len() as u32).to_le_bytes());
                for (vehicle, client_frame) in acks {
                    payload.extend_from_slice(&vehicle.to_le_bytes());
                    payload.extend_from_slice(&client_frame.to_le_bytes());
                }
                plan.encode_into(&mut payload);
            }
            WireMessage::Bye => {}
            WireMessage::Handover { handover } => {
                handover.encode_into(&mut payload);
            }
        }
        let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
        out.extend_from_slice(&WIRE_MAGIC);
        out.push(WIRE_VERSION);
        out.push(self.kind());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
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
            KIND_PLAN => {
                let mut c = Cursor::new(payload);
                let short = "plan payload shorter than its fixed fields";
                let frame = c.u64(short)?;
                let n_acks = c.u32(short)? as usize;
                let mut acks = Vec::with_capacity(n_acks.min(4096));
                for _ in 0..n_acks {
                    acks.push((c.u64(short)?, c.u64(short)?));
                }
                let (plan, used) = DisseminationPlan::decode_from(c.rest())?;
                if used != c.rest().len() {
                    return Err(codec("plan payload has trailing bytes"));
                }
                WireMessage::Plan { frame, acks, plan }
            }
            KIND_BYE => {
                if !payload.is_empty() {
                    return Err(codec("bye payload must be empty"));
                }
                WireMessage::Bye
            }
            KIND_HANDOVER => {
                let (handover, used) = VehicleHandover::decode_from(payload)?;
                if used != payload.len() {
                    return Err(codec("handover payload has trailing bytes"));
                }
                WireMessage::Handover { handover }
            }
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
    use erpd_core::Assignment;
    use erpd_geometry::Vec3;
    use erpd_pointcloud::{max_quantization_error, PointCloud};
    use erpd_tracking::ObjectId;

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

    #[test]
    fn hello_plan_bye_round_trip_exactly() {
        let plan = DisseminationPlan {
            assignments: vec![Assignment {
                object: ObjectId(5),
                receiver: ObjectId(8),
                relevance: 0.25,
                size_bytes: 640,
            }],
            total_relevance: 0.25,
            total_bytes: 640,
        };
        for msg in [
            WireMessage::Hello { vehicle_id: 7 },
            WireMessage::Plan {
                frame: 3,
                acks: vec![(7, 12), (9, 11)],
                plan,
            },
            WireMessage::Bye,
        ] {
            let bytes = msg.encode();
            let (decoded, used) = WireMessage::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn handover_round_trips_exactly() {
        use erpd_core::{PoseSample, TrackSnapshot};
        use erpd_tracking::ObjectKind;
        let msg = WireMessage::Handover {
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
        };
        let bytes = msg.encode();
        let (decoded, used) = WireMessage::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, msg);
        // Trailing payload bytes are corrupt, not silently ignored.
        let mut padded = bytes.clone();
        padded.push(0);
        let extra = (padded.len() - FRAME_HEADER_BYTES) as u32;
        padded[6..10].copy_from_slice(&extra.to_le_bytes());
        assert!(WireMessage::decode(&padded).is_err());
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
