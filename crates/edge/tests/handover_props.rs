//! Property suite for cross-edge handover: a vehicle crossing a region
//! boundary must arrive on the gaining edge with its track identities and
//! motion history intact. The transfer always rides the v1 wire codec
//! (`WireMessage::Handover`), so both the codec identity and the
//! export → wire → import → re-export pipeline are exercised on random
//! handover states.

use erpd_core::{PoseSample, TrackSnapshot, VehicleHandover};
use erpd_edge::{PipelineBuilder, ServerConfig, ServingCore, WireMessage, POSE_HISTORY_LEN};
use erpd_geometry::Vec2;
use erpd_rand::proptest::prelude::*;
use erpd_rand::rngs::StdRng;
use erpd_rand::{Rng, RngCore, SeedableRng};
use erpd_sim::IntersectionMap;
use erpd_tracking::ObjectKind;

/// A random but bounded handover: a vehicle somewhere in a ±200 m world,
/// a pose history within the server's retention depth, and up to six
/// tracks whose last observation sits inside the 100 m export radius
/// around the vehicle — the envelope a real boundary crossing produces.
fn random_handover(seed: u64) -> VehicleHandover {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd6e8feb86659fd93);
    let coord = |rng: &mut StdRng, span: f64| (rng.next_unit_f64() - 0.5) * 2.0 * span;
    let center = Vec2::new(coord(&mut rng, 200.0), coord(&mut rng, 200.0));

    // Pose history no deeper than `POSE_HISTORY_LEN`, so the
    // importing edge keeps every sample instead of aging the oldest out.
    let n_pose = rng.gen_range(1..=POSE_HISTORY_LEN);
    let pose_history: Vec<PoseSample> = (0..n_pose)
        .map(|k| PoseSample {
            t: k as f64 * 0.1 + rng.next_unit_f64() * 0.05,
            position: center + Vec2::new(coord(&mut rng, 5.0), coord(&mut rng, 5.0)),
            heading: coord(&mut rng, 3.2),
        })
        .collect();
    let position = pose_history.last().expect("non-empty").position;

    let n_tracks = rng.gen_range(0..6usize);
    let tracks = (0..n_tracks as u64)
        .map(|k| {
            let anchor = position + Vec2::new(coord(&mut rng, 35.0), coord(&mut rng, 35.0));
            let n_obs = rng.gen_range(1..=8usize);
            let history: Vec<(f64, Vec2)> = (0..n_obs)
                .map(|j| {
                    (
                        j as f64 * 0.1,
                        anchor + Vec2::new(coord(&mut rng, 2.0), coord(&mut rng, 2.0)),
                    )
                })
                .collect();
            TrackSnapshot {
                // Distinct ids in a high namespace, as an edge with a
                // non-zero `track_id_base` would hand over.
                id: (7u64 << 32) + k,
                kind: if rng.next_unit_f64() < 0.5 {
                    ObjectKind::Vehicle
                } else {
                    ObjectKind::Pedestrian
                },
                misses: rng.gen_range(0..5u64),
                bytes: rng.gen_range(0..50_000u64),
                history,
            }
        })
        .collect();

    VehicleHandover {
        vehicle_id: rng.gen_range(0..10_000u64),
        position,
        in_outage: rng.next_unit_f64() < 0.3,
        rr_offset: rng.gen_range(0..1_000u64),
        pose_history,
        tracks,
    }
}

/// A fresh serving core on the default map — the gaining edge.
fn fresh_core() -> ServingCore {
    let (server, strategy) =
        PipelineBuilder::new(ServerConfig::default(), IntersectionMap::default()).build();
    ServingCore::new(server, strategy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The wire leg of a handover is lossless: encode → decode returns the
    /// exact message, every f64 bit-identical, and consumes the whole frame.
    #[test]
    fn handover_wire_round_trip_is_exact(seed in 0u64..5_000) {
        let handover = random_handover(seed);
        let encoded = WireMessage::Handover { handover: handover.clone() }.encode();
        let (decoded, used) = WireMessage::decode(&encoded).expect("own encoding decodes");
        prop_assert_eq!(used, encoded.len());
        prop_assert_eq!(decoded, WireMessage::Handover { handover });
    }

    /// The full boundary crossing — losing edge's message, wire round
    /// trip, import into a fresh gaining edge, re-export from there —
    /// preserves every track's identity and history length, and the
    /// vehicle's pose-history depth.
    #[test]
    fn crossing_preserves_track_ids_and_history_lengths(seed in 0u64..5_000) {
        let sent = random_handover(seed);
        let encoded = WireMessage::Handover { handover: sent.clone() }.encode();
        let (decoded, _) = WireMessage::decode(&encoded).expect("own encoding decodes");
        let WireMessage::Handover { handover: arrived } = decoded else {
            return Err(TestCaseError::fail("decoded to a different kind".into()));
        };

        let mut gaining = fresh_core();
        gaining.import_handover(&arrived);
        let kept = gaining.export_handover(sent.vehicle_id);

        prop_assert_eq!(kept.vehicle_id, sent.vehicle_id);
        prop_assert_eq!(kept.pose_history.len(), sent.pose_history.len());
        prop_assert_eq!(
            kept.position.x.to_bits(),
            sent.position.x.to_bits(),
            "last known position must survive the crossing"
        );
        prop_assert_eq!(kept.position.y.to_bits(), sent.position.y.to_bits());
        for (a, b) in kept.pose_history.iter().zip(&sent.pose_history) {
            prop_assert_eq!(a.t.to_bits(), b.t.to_bits());
            prop_assert_eq!(a.position, b.position);
        }

        // Every transferred track re-exports under the same id with the
        // same kind, miss count, byte size, and history depth.
        prop_assert_eq!(kept.tracks.len(), sent.tracks.len());
        for t in &sent.tracks {
            let Some(k) = kept.tracks.iter().find(|k| k.id == t.id) else {
                return Err(TestCaseError::fail(format!("track {} lost in crossing", t.id)));
            };
            prop_assert_eq!(k.kind, t.kind);
            prop_assert_eq!(k.misses, t.misses);
            prop_assert_eq!(k.bytes, t.bytes);
            prop_assert_eq!(k.history.len(), t.history.len());
            for ((ta, pa), (tb, pb)) in k.history.iter().zip(&t.history) {
                prop_assert_eq!(ta.to_bits(), tb.to_bits());
                prop_assert_eq!(pa, pb);
            }
        }
    }

    /// Importing the same handover twice is idempotent: adoption replaces
    /// the same-id track instead of duplicating it.
    #[test]
    fn double_import_does_not_duplicate_tracks(seed in 0u64..2_000) {
        let sent = random_handover(seed);
        let mut gaining = fresh_core();
        gaining.import_handover(&sent);
        gaining.import_handover(&sent);
        let kept = gaining.export_handover(sent.vehicle_id);
        prop_assert_eq!(kept.tracks.len(), sent.tracks.len());
        prop_assert_eq!(kept.pose_history.len(), sent.pose_history.len());
    }
}
