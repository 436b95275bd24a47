//! Property suite for the v1 wire codec: random uploads survive the
//! round trip, and *no* malformed input — truncated, bit-flipped, or
//! version-skewed — ever panics the decoder. Malformed frames must come
//! back as `Err(Error::Codec { .. })` (or `Ok(None)` where the bytes are
//! merely an incomplete prefix a stream would finish later).

use erpd_core::{Assignment, DisseminationPlan, Error, PoseSample, TrackSnapshot, VehicleHandover};
use erpd_edge::capacity::build_corpus;
use erpd_edge::wire::{FRAME_HEADER_BYTES, WIRE_VERSION};
use erpd_edge::{
    truncate_on_wire, ClusterExtent, PipelineBuilder, ServerConfig, ServingCore, SystemConfig,
    Upload, UploadedObject, WireMessage,
};
use erpd_geometry::{Pose2, Vec2, Vec3};
use erpd_pointcloud::{max_quantization_error, PointCloud};
use erpd_rand::proptest::prelude::*;
use erpd_rand::rngs::StdRng;
use erpd_rand::{Rng, RngCore, SeedableRng};
use erpd_sim::{IntersectionMap, ScenarioConfig};
use erpd_tracking::{ObjectId, ObjectKind};

/// A random but bounded upload: up to 6 objects of up to 40 points inside
/// a ±200 m world — the envelope real extractions live in.
fn random_upload(seed: u64) -> Upload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coord = |span: f64| (rng.next_unit_f64() - 0.5) * 2.0 * span;
    let pose = Pose2::new(Vec2::new(coord(200.0), coord(200.0)), coord(3.0));
    let mut rng2 = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let n_objects = rng2.gen_range(0..6usize);
    let objects = (0..n_objects)
        .map(|_| {
            let c = Vec2::new(
                (rng2.next_unit_f64() - 0.5) * 400.0,
                (rng2.next_unit_f64() - 0.5) * 400.0,
            );
            let n_points = rng2.gen_range(1..40usize);
            let points = (0..n_points)
                .map(|_| {
                    Vec3::new(
                        c.x + (rng2.next_unit_f64() - 0.5) * 4.0,
                        c.y + (rng2.next_unit_f64() - 0.5) * 4.0,
                        rng2.next_unit_f64() * 3.0,
                    )
                })
                .collect();
            UploadedObject {
                centroid: c,
                points: PointCloud::from_points(points),
            }
        })
        .collect();
    Upload {
        vehicle_id: rng2.gen_range(0..10_000u64),
        pose,
        objects,
        bytes: rng2.gen_range(0..1_000_000u64),
        processing_time: rng2.next_unit_f64(),
        clustered_points: rng2.gen_range(0..100_000usize),
    }
}

fn random_plan(seed: u64) -> DisseminationPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(0..20usize);
    let assignments: Vec<Assignment> = (0..n)
        .map(|_| Assignment {
            object: ObjectId(rng.gen_range(0..1_000u64)),
            receiver: ObjectId(rng.gen_range(0..1_000u64)),
            relevance: rng.next_unit_f64(),
            size_bytes: rng.gen_range(0..100_000u64),
        })
        .collect();
    DisseminationPlan {
        total_relevance: assignments.iter().map(|a| a.relevance).sum(),
        total_bytes: assignments.iter().map(|a| a.size_bytes).sum(),
        assignments,
    }
}

/// A fixed handover: a pose history of two samples and two tracks.
fn two_track_handover() -> VehicleHandover {
    VehicleHandover {
        vehicle_id: 42,
        position: Vec2::new(61.5, -3.25),
        in_outage: true,
        rr_offset: 7,
        pose_history: vec![
            PoseSample {
                t: 0.1,
                position: Vec2::new(60.0, -3.5),
                heading: std::f64::consts::PI,
            },
            PoseSample {
                t: 0.2,
                position: Vec2::new(60.75, -3.375),
                heading: -1.0,
            },
        ],
        tracks: vec![
            TrackSnapshot {
                id: (3u64 << 32) + 9,
                kind: ObjectKind::Pedestrian,
                misses: 2,
                bytes: 600,
                history: vec![(0.1, Vec2::new(58.0, 1.0)), (0.2, Vec2::new(58.1, 1.1))],
            },
            TrackSnapshot {
                id: 0,
                kind: ObjectKind::Vehicle,
                misses: 0,
                bytes: 0,
                history: vec![(0.2, Vec2::new(-10.0, 0.0))],
            },
        ],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Encode→decode identity for uploads: every non-point field exact,
    /// points within the point-cloud codec's quantisation bound.
    #[test]
    fn upload_round_trips_within_quantisation(seed in 0u64..5_000, frame in 0u64..1_000_000) {
        let upload = random_upload(seed);
        let encoded = WireMessage::Upload { frame, upload: upload.clone() }.encode();
        let (decoded, used) = WireMessage::decode(&encoded).expect("own encoding decodes");
        prop_assert_eq!(used, encoded.len());
        let WireMessage::Upload { frame: f2, upload: got } = decoded else {
            return Err(TestCaseError::fail("decoded to a different kind".into()));
        };
        prop_assert_eq!(f2, frame);
        prop_assert_eq!(got.vehicle_id, upload.vehicle_id);
        prop_assert_eq!(got.pose, upload.pose);
        prop_assert_eq!(got.bytes, upload.bytes);
        prop_assert_eq!(got.processing_time.to_bits(), upload.processing_time.to_bits());
        prop_assert_eq!(got.clustered_points, upload.clustered_points);
        prop_assert_eq!(got.objects.len(), upload.objects.len());
        for (a, b) in got.objects.iter().zip(&upload.objects) {
            prop_assert_eq!(a.centroid.x.to_bits(), b.centroid.x.to_bits());
            prop_assert_eq!(a.points.len(), b.points.len());
            let tol = 2.0 * max_quantization_error(&b.points) + 1e-12;
            for (p, q) in a.points.iter().zip(b.points.iter()) {
                prop_assert!((p.x - q.x).abs() <= tol, "x off by {}", (p.x - q.x).abs());
                prop_assert!((p.y - q.y).abs() <= tol);
                prop_assert!((p.z - q.z).abs() <= tol);
            }
        }
    }

    /// Plans are fixed-width integers and raw f64 bits: exact identity.
    #[test]
    fn plan_round_trips_exactly(seed in 0u64..5_000, frame in 0u64..1_000_000) {
        let plan = random_plan(seed);
        let acks: Vec<(u64, u64)> =
            (0..(seed % 7)).map(|k| (seed ^ k, k)).collect();
        let msg = WireMessage::Plan { frame, acks, plan };
        let encoded = msg.encode();
        let (decoded, used) = WireMessage::decode(&encoded).expect("own encoding decodes");
        prop_assert_eq!(used, encoded.len());
        prop_assert_eq!(decoded, msg);
    }

    /// Every strict prefix of a valid frame is rejected as a codec error —
    /// and never panics. (`decode` demands a complete frame; the streaming
    /// `decode_frame` reports the same prefix as "incomplete" instead.)
    #[test]
    fn truncated_frames_error_and_never_panic(seed in 0u64..300) {
        let upload = random_upload(seed);
        let encoded = WireMessage::Upload { frame: seed, upload }.encode();
        // Every 7th prefix keeps the runtime sane on multi-KB frames while
        // still covering header, fixed-field, and point-data cuts.
        for cut in (0..encoded.len()).step_by(7) {
            let prefix = &encoded[..cut];
            match WireMessage::decode(prefix) {
                Err(Error::Codec { .. }) => {}
                Err(e) => return Err(TestCaseError::fail(format!("non-codec error {e:?}"))),
                Ok(_) => return Err(TestCaseError::fail(format!("prefix of {cut} decoded"))),
            }
            match WireMessage::decode_frame(prefix) {
                Ok(None) | Err(Error::Codec { .. }) => {}
                other => {
                    return Err(TestCaseError::fail(format!(
                        "decode_frame on prefix of {cut} gave {other:?}"
                    )))
                }
            }
        }
    }

    /// A single flipped bit anywhere in an upload, plan or handover frame
    /// never panics the decoder: it either still decodes (the flip hit
    /// payload data the format cannot distinguish from real values) or
    /// reports a codec error — and a flip inside the 6 leading
    /// magic/version/kind bytes is always caught.
    #[test]
    fn bit_flips_never_panic(seed in 0u64..200, flip in 0usize..20_000) {
        let acks = vec![(seed, 1), (seed + 1, 2)];
        for msg in [
            WireMessage::Upload { frame: seed, upload: random_upload(seed) },
            WireMessage::Plan { frame: seed, acks, plan: random_plan(seed) },
            WireMessage::Handover { handover: two_track_handover() },
        ] {
            let mut encoded = msg.encode();
            let bit = flip % (encoded.len() * 8);
            encoded[bit / 8] ^= 1 << (bit % 8);
            let headerish = bit / 8 < 6;
            match WireMessage::decode(&encoded) {
                Ok(_) => prop_assert!(
                    !headerish,
                    "a magic/version/kind flip at bit {bit} must not decode"
                ),
                Err(Error::Codec { .. }) => {}
                Err(e) => return Err(TestCaseError::fail(format!("non-codec error {e:?}"))),
            }
        }
    }

    /// Any version byte other than [`WIRE_VERSION`] is refused outright.
    #[test]
    fn wrong_version_is_refused(seed in 0u64..200, version in 0u64..256) {
        let version = version as u8;
        let upload = random_upload(seed);
        let mut encoded = WireMessage::Upload { frame: seed, upload }.encode();
        encoded[4] = version;
        let result = WireMessage::decode(&encoded);
        if version == WIRE_VERSION {
            prop_assert!(result.is_ok());
        } else {
            prop_assert!(
                matches!(result, Err(Error::Codec { .. })),
                "version {version} must be refused"
            );
        }
    }

    /// Wire-level truncation salvages a *prefix* of the object list (never
    /// reorders, never invents) and yields `None` — not a panic — when the
    /// cut clips the fixed fields.
    #[test]
    fn truncate_on_wire_salvages_a_prefix(seed in 0u64..400, keep_millis in 0u64..1_001) {
        let upload = random_upload(seed);
        let keep = keep_millis as f64 / 1_000.0;
        match truncate_on_wire(&upload, keep) {
            None => {
                // Only tiny keep fractions may destroy the fixed fields.
                let encoded_len =
                    WireMessage::Upload { frame: 0, upload: upload.clone() }.encode().len();
                let cut = (encoded_len as f64 * keep).floor() as usize;
                prop_assert!(
                    cut < encoded_len,
                    "a full-length cut must salvage the whole upload"
                );
            }
            Some(t) => {
                prop_assert_eq!(t.vehicle_id, upload.vehicle_id);
                prop_assert!(t.objects.len() <= upload.objects.len());
                for (a, b) in t.objects.iter().zip(&upload.objects) {
                    prop_assert_eq!(a.centroid.x.to_bits(), b.centroid.x.to_bits());
                    prop_assert_eq!(a.points.len(), b.points.len());
                }
                if (keep - 1.0).abs() < f64::EPSILON {
                    prop_assert_eq!(t.objects.len(), upload.objects.len());
                }
            }
        }
    }
}

/// FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// The v1 byte layout itself, pinned: one fixed message of every kind
/// hashes to a recorded constant. Round-trip tests cannot catch a layout
/// change made the same way on both sides; this one can. The upload
/// carries two objects so its cloud bytes (the `compress` format) are
/// pinned too, and the plan's relevances include `-0.0` and a subnormal
/// so the raw-bits encoding of `f64` is pinned as well.
#[test]
fn v1_bytes_are_pinned() {
    let two_objects = Upload {
        vehicle_id: 17,
        pose: Pose2::new(Vec2::new(-12.5, 40.25), 1.25),
        objects: (0..2)
            .map(|k| {
                let base = 8.0 * k as f64;
                UploadedObject {
                    centroid: Vec2::new(base + 0.5, -1.75),
                    points: (0..5)
                        .map(|i| Vec3::new(base + 0.25 * i as f64, -2.0 + 0.125 * i as f64, 0.5))
                        .collect(),
                }
            })
            .collect(),
        bytes: 4_321,
        processing_time: 0.0375,
        clustered_points: 314,
    };
    let assignment = |object, receiver, relevance, size_bytes| Assignment {
        object: ObjectId(object),
        receiver: ObjectId(receiver),
        relevance,
        size_bytes,
    };
    let plan = DisseminationPlan {
        assignments: vec![
            assignment(3, 9, 0.625, 4_096),
            assignment(u64::MAX, 0, -0.0, 1),
            assignment(7, 2, f64::MIN_POSITIVE / 4.0, 600),
        ],
        total_relevance: 0.625,
        total_bytes: 4_697,
    };
    let messages = [
        WireMessage::Hello { vehicle_id: 0x0102_0304_0506_0708 },
        WireMessage::Upload { frame: 5, upload: two_objects },
        WireMessage::Plan { frame: 11, acks: vec![(17, 5), (18, 4)], plan },
        WireMessage::Bye,
        WireMessage::Handover { handover: two_track_handover() },
    ];
    let got: Vec<(usize, u64)> = messages
        .iter()
        .map(|m| {
            let bytes = m.encode();
            (bytes.len(), fnv1a(&bytes))
        })
        .collect();
    // (frame length, FNV-1a of the frame) per message, in order.
    let pinned: [(usize, u64); 5] = [
        (18, 15_214_130_359_325_067_545),
        (298, 9_332_890_523_898_326_594),
        (170, 15_252_722_779_482_947_356),
        (10, 1_967_031_951_944_910_362),
        (245, 15_452_332_247_275_612_162),
    ];
    assert_eq!(got, pinned);
}

/// Deterministic spot check: a frame carrying a deliberately oversized
/// payload length is refused before any allocation is attempted.
#[test]
fn oversized_declared_payload_is_refused() {
    let upload = random_upload(1);
    let mut encoded = WireMessage::Upload { frame: 1, upload }.encode();
    let huge = (u32::MAX).to_le_bytes();
    encoded[FRAME_HEADER_BYTES - 4..FRAME_HEADER_BYTES].copy_from_slice(&huge);
    assert!(matches!(
        WireMessage::decode(&encoded),
        Err(Error::Codec { .. })
    ));
    assert!(matches!(
        WireMessage::decode_frame(&encoded),
        Err(Error::Codec { .. })
    ));
}

/// Every object cloud of a recorded scenario frame, through the wire: the
/// decoded cloud equals `from_points` of its own points, and what the edge
/// reads of it — `bounds()`, which the decoder carries, and the
/// association's `ClusterExtent` — equals a fresh fold of those points.
#[test]
fn decoded_corpus_clouds_report_the_bounds_of_a_fresh_fold() {
    let corpus = build_corpus(ScenarioConfig::default(), &SystemConfig::default(), 12);
    let uploads = corpus.frames.last().expect("the scenario uploads");
    let mut clouds = 0;
    for upload in uploads {
        let bytes = WireMessage::Upload {
            frame: 0,
            upload: upload.clone(),
        }
        .encode();
        let Ok((WireMessage::Upload { upload, .. }, _)) = WireMessage::decode(&bytes) else {
            panic!("an encoded upload decodes");
        };
        for o in &upload.objects {
            let fresh = PointCloud::from_points(o.points.iter().collect());
            assert_eq!(o.points, fresh);
            assert_eq!(o.points.bounds(), fresh.bounds());
            assert_eq!(ClusterExtent::of(&o.points), ClusterExtent::of(&fresh));
            clouds += 1;
        }
    }
    assert!(clouds > 0, "the frame holds no object cloud");
}

/// One frame of a small moving fleet: 3 vehicles driving east, 1.5 m per
/// frame, each reporting 3 objects of 12 points ahead of it.
fn fleet_frame(seed: u64, frame: u64) -> Vec<Upload> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(frame));
    (0..3u64)
        .map(|v| {
            let at = Vec2::new(-40.0 + 1.5 * frame as f64, -6.0 + 6.0 * v as f64);
            let objects = (0..3)
                .map(|k| {
                    let c = at
                        + Vec2::new(
                            8.0 + 6.0 * k as f64 + rng.next_unit_f64(),
                            rng.next_unit_f64() * 4.0 - 2.0,
                        );
                    let points: PointCloud = (0..12)
                        .map(|i| {
                            Vec3::new(c.x + 0.1 * (i % 4) as f64, c.y + 0.1 * (i / 4) as f64, 0.8)
                        })
                        .collect();
                    UploadedObject { centroid: c, points }
                })
                .collect();
            Upload {
                vehicle_id: v,
                pose: Pose2::new(at, 0.0),
                objects,
                bytes: 2_000,
                processing_time: 0.01,
                clustered_points: 36,
            }
        })
        .collect()
}

/// Whatever the decoder admits, the serving core survives: seeded 4-frame
/// runs of a moving 3-vehicle fleet, where from frame 1 on vehicle 2's
/// encoded upload has 1–3 payload bytes overwritten at random. Every frame
/// is decoded (`Ok` or `Error::Codec`, nothing else) and what decodes is
/// served; `serve` must not panic.
#[test]
fn mutated_uploads_never_panic_the_serving_core() {
    for seed in 0..3_000u64 {
        let (server, strategy) =
            PipelineBuilder::new(ServerConfig::default(), IntersectionMap::default()).build();
        let mut core = ServingCore::new(server, strategy);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d);
        for frame in 0..4u64 {
            let mut uploads = Vec::new();
            for upload in fleet_frame(seed, frame) {
                let victim = frame >= 1 && upload.vehicle_id == 2;
                let mut bytes = WireMessage::Upload { frame, upload }.encode();
                if victim {
                    for _ in 0..rng.gen_range(1..4usize) {
                        let at = rng.gen_range(FRAME_HEADER_BYTES..bytes.len());
                        bytes[at] = rng.gen_range(0..256u64) as u8;
                    }
                }
                match WireMessage::decode(&bytes) {
                    Ok((WireMessage::Upload { upload, .. }, _)) => uploads.push(upload),
                    Ok((other, _)) => panic!("seed {seed}: upload decoded as {other:?}"),
                    Err(Error::Codec { .. }) => {}
                    Err(e) => panic!("seed {seed}: non-codec error {e:?}"),
                }
            }
            let _ = core.serve(frame as f64 * 0.1, &uploads, 100_000);
        }
    }
}
