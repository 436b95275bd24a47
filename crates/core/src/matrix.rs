//! The relevance matrix `R_ij` and its construction from predicted
//! trajectories, visibility, and car-following links.

use crate::relevance::{relevance_above, PairScratch};
use crate::{follower_at_risk, follower_relevance, Error, RelevanceConfig};
use erpd_tracking::{FollowerLink, ObjectId, PredictedTrajectory};
use std::collections::BTreeMap;

/// Sparse relevance matrix: `(receiver j, perception object i) → R_ij`.
///
/// Only strictly positive entries are stored; [`RelevanceMatrix::get`]
/// returns 0 for absent pairs. Iteration order is deterministic
/// (receiver-major, then object).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RelevanceMatrix {
    entries: BTreeMap<(ObjectId, ObjectId), f64>,
}

impl RelevanceMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `R` for (receiver, object); non-positive values clear the entry.
    pub fn set(&mut self, receiver: ObjectId, object: ObjectId, relevance: f64) {
        if relevance > 0.0 {
            self.entries.insert((receiver, object), relevance);
        } else {
            self.entries.remove(&(receiver, object));
        }
    }

    /// Like [`RelevanceMatrix::set`] but rejects NaN and infinite values
    /// instead of silently storing (or dropping) them — the checked entry
    /// point the matrix builders use.
    pub fn try_set(
        &mut self,
        receiver: ObjectId,
        object: ObjectId,
        relevance: f64,
    ) -> Result<(), Error> {
        if !relevance.is_finite() {
            return Err(Error::NonFiniteRelevance {
                receiver,
                object,
                value: relevance,
            });
        }
        self.set(receiver, object, relevance);
        Ok(())
    }

    /// The relevance of `object`'s perception data to `receiver` (0 when
    /// unknown or irrelevant).
    pub fn get(&self, receiver: ObjectId, object: ObjectId) -> f64 {
        self.entries.get(&(receiver, object)).copied().unwrap_or(0.0)
    }

    /// Iterates `(receiver, object, relevance)` over positive entries.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, ObjectId, f64)> + '_ {
        self.entries.iter().map(|(&(r, o), &v)| (r, o, v))
    }

    /// Number of positive entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no pair is relevant.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All positive entries for one receiver, as `(object, relevance)`.
    pub fn row(&self, receiver: ObjectId) -> Vec<(ObjectId, f64)> {
        self.entries
            .range((receiver, ObjectId(0))..=(receiver, ObjectId(u64::MAX)))
            .map(|(&(_, o), &v)| (o, v))
            .collect()
    }
}

/// A tracked object with one or more predicted trajectory hypotheses.
///
/// For vehicles whose manoeuvre is ambiguous (an inner lane allows straight
/// *or* left), the edge predicts every map-compatible route and the
/// relevance of a pair is the maximum over hypothesis combinations — the
/// safety-conservative reading of the paper's single-trajectory formula.
#[derive(Debug, Clone)]
pub struct ObjectHypotheses {
    /// The object's identity.
    pub object: ObjectId,
    /// Trajectories describing where the object's *body* will actually be
    /// (used when the object is the perception data being evaluated).
    pub trajectories: Vec<PredictedTrajectory>,
    /// Additional trajectories used only when the object acts as the
    /// *receiver* — e.g. the imminent-proceed hypotheses of a vehicle
    /// waiting to cross: crossing traffic stays relevant to it even though
    /// its body is momentarily stationary. Empty for most objects.
    pub receiver_extra: Vec<PredictedTrajectory>,
    /// Seconds since this object's perception data was last observed.
    /// `0.0` for freshly observed objects; positive for coasted tracks
    /// whose source vehicle missed its upload. Feeds the staleness
    /// discount of [`RelevanceConfig::staleness_discount`].
    pub age: f64,
}

impl ObjectHypotheses {
    /// Wraps a single trajectory.
    pub fn single(trajectory: PredictedTrajectory) -> Self {
        ObjectHypotheses {
            object: trajectory.object,
            trajectories: vec![trajectory],
            receiver_extra: Vec::new(),
            age: 0.0,
        }
    }

    /// Wraps a set of body trajectories.
    pub fn new(object: ObjectId, trajectories: Vec<PredictedTrajectory>) -> Self {
        ObjectHypotheses {
            object,
            trajectories,
            receiver_extra: Vec::new(),
            age: 0.0,
        }
    }
}

/// Builds the relevance matrix of paper §III-A, hypothesis-aware: the
/// relevance of a pair is the max over all trajectory-hypothesis
/// combinations (the paper's single-trajectory formula is the
/// [`ObjectHypotheses::single`] case), with the staleness discount of
/// [`RelevanceConfig::staleness_discount`] applied to objects with a
/// positive observation age.
///
/// `objects` are both the candidate perception objects and the receivers'
/// own motion, one entry per identity; `receivers` are the connected
/// vehicles that can receive disseminated data. `visible(receiver, object)`
/// must return true when the receiver's own LiDAR already perceives the
/// object — such pairs get relevance 0 ("it is unnecessary to disseminate
/// the perception data related to those objects"); it is a pure function of
/// the pair and is asked only about pairs that would otherwise be relevant.
/// `followers` are the car-following links from
/// Rule 1, ordered leader-first within each lane (as produced by
/// `erpd_tracking::apply_rules`): a follower that violates a car-following
/// criterion inherits `α^depth · R_leader`.
///
/// Receiver rows are independent, so they are assembled on `erpd-par`'s
/// fork-join threads — `visible` therefore has to be `Fn + Sync` rather
/// than `FnMut`. Row contents and iteration order
/// are identical to the sequential path at any thread count.
///
/// # Errors
///
/// [`Error::NonFiniteRelevance`] if any pairwise relevance evaluates to
/// NaN or infinity (degenerate trajectory inputs).
pub fn build_relevance_matrix_multi(
    objects: &[ObjectHypotheses],
    receivers: &[ObjectId],
    followers: &[FollowerLink],
    alpha: f64,
    config: RelevanceConfig,
    visible: impl Fn(ObjectId, ObjectId) -> bool + Sync,
) -> Result<RelevanceMatrix, Error> {
    let receiver_set: std::collections::BTreeSet<ObjectId> = receivers.iter().copied().collect();
    let recvs: Vec<&ObjectHypotheses> = objects
        .iter()
        .filter(|recv| receiver_set.contains(&recv.object))
        .collect();
    let visible = &visible;
    let mut scratch: Vec<PairScratch> = Vec::new();
    let rows: Vec<(ObjectId, Vec<(ObjectId, f64)>)> =
        erpd_par::par_map_reuse(recvs, &mut scratch, |scratch, recv| {
            let row = objects
                .iter()
                .filter(|obj| obj.object != recv.object)
                .filter_map(|obj| {
                    let mut r = 0.0f64;
                    // Object side: body trajectories only. Receiver side: body
                    // trajectories plus the receiver-only extras. Only a score
                    // above the best so far can change `r`.
                    for to in &obj.trajectories {
                        for tr in recv.trajectories.iter().chain(&recv.receiver_extra) {
                            r = r.max(relevance_above(to, tr, config, r, scratch).relevance);
                        }
                    }
                    // Stale (coasted) perception data is worth less: the
                    // discount is exactly 1.0 for fresh objects, keeping the
                    // zero-fault pipeline bit-identical.
                    let r = r * config.staleness_discount(obj.age);
                    // A zero never enters the matrix, seen or unseen, so only
                    // the few pairs that scored (or went non-finite, which
                    // `try_set` must still reject) ask whether the receiver
                    // already sees the object.
                    let scored = r > 0.0 || r.is_nan();
                    (scored && !visible(recv.object, obj.object)).then_some((obj.object, r))
                })
                .collect();
            (recv.object, row)
        });

    let mut m = RelevanceMatrix::new();
    for (receiver, row) in rows {
        for (object, r) in row {
            m.try_set(receiver, object, r)?;
        }
    }
    // Follower propagation: links arrive leader-first per lane, so the
    // immediate leader's row (possibly itself propagated) is already final.
    for link in followers {
        if !receiver_set.contains(&link.follower) || !follower_at_risk(link) {
            continue;
        }
        for (object, leader_r) in m.row(link.leader) {
            if object == link.follower || visible(link.follower, object) {
                continue;
            }
            let r = follower_relevance(leader_r, alpha, 1);
            if r > m.get(link.follower, object) {
                m.try_set(link.follower, object, r)?;
            }
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_ALPHA;
    use erpd_geometry::Vec2;
    use erpd_tracking::{predict_ctrv, ObjectKind};
    use std::f64::consts::FRAC_PI_2;

    fn vehicle(id: u64, start: Vec2, speed: f64, heading: f64) -> PredictedTrajectory {
        predict_ctrv(
            ObjectId(id),
            ObjectKind::Vehicle,
            start,
            speed,
            heading,
            0.0,
            4.5,
        )
    }

    fn crossing_pair() -> Vec<PredictedTrajectory> {
        vec![
            vehicle(1, Vec2::new(-20.0, 0.0), 10.0, 0.0),
            vehicle(2, Vec2::new(0.0, -20.0), 10.0, FRAC_PI_2),
        ]
    }

    /// The paper's single-trajectory matrix: one hypothesis per object.
    fn build(
        trajectories: &[PredictedTrajectory],
        receivers: &[ObjectId],
        followers: &[FollowerLink],
        visible: impl Fn(ObjectId, ObjectId) -> bool + Sync,
    ) -> RelevanceMatrix {
        let objects: Vec<ObjectHypotheses> = trajectories
            .iter()
            .cloned()
            .map(ObjectHypotheses::single)
            .collect();
        build_relevance_matrix_multi(
            &objects,
            receivers,
            followers,
            DEFAULT_ALPHA,
            RelevanceConfig::default(),
            visible,
        )
        .unwrap()
    }

    #[test]
    fn matrix_basic_ops() {
        let mut m = RelevanceMatrix::new();
        assert!(m.is_empty());
        m.set(ObjectId(1), ObjectId(2), 0.7);
        m.set(ObjectId(1), ObjectId(3), 0.0); // cleared
        assert_eq!(m.get(ObjectId(1), ObjectId(2)), 0.7);
        assert_eq!(m.get(ObjectId(1), ObjectId(3)), 0.0);
        assert_eq!(m.len(), 1);
        assert_eq!(m.row(ObjectId(1)), vec![(ObjectId(2), 0.7)]);
        m.set(ObjectId(1), ObjectId(2), -1.0);
        assert!(m.is_empty());
    }

    #[test]
    fn build_symmetric_conflict() {
        let trajs = crossing_pair();
        let receivers = [ObjectId(1), ObjectId(2)];
        let m = build(&trajs, &receivers, &[], |_, _| false);
        assert!(m.get(ObjectId(1), ObjectId(2)) > 0.5);
        assert!(m.get(ObjectId(2), ObjectId(1)) > 0.5);
        // Never self-relevant.
        assert_eq!(m.get(ObjectId(1), ObjectId(1)), 0.0);
    }

    #[test]
    fn visible_objects_are_zero() {
        let trajs = crossing_pair();
        let receivers = [ObjectId(1), ObjectId(2)];
        // Vehicle 1 already sees vehicle 2 (but not vice versa).
        let m = build(&trajs, &receivers, &[], |r, o| {
            r == ObjectId(1) && o == ObjectId(2)
        });
        assert_eq!(m.get(ObjectId(1), ObjectId(2)), 0.0);
        assert!(m.get(ObjectId(2), ObjectId(1)) > 0.5);
    }

    #[test]
    fn non_receivers_get_no_rows() {
        let trajs = crossing_pair();
        let receivers = [ObjectId(2)];
        let m = build(&trajs, &receivers, &[], |_, _| false);
        assert!(m.row(ObjectId(1)).is_empty());
        assert!(!m.row(ObjectId(2)).is_empty());
    }

    #[test]
    fn at_risk_follower_inherits_scaled_relevance() {
        let trajs = crossing_pair();
        let receivers = [ObjectId(1), ObjectId(2), ObjectId(3)];
        // Vehicle 3 tailgates leader 1 (5 m gap at 10 m/s: violates both
        // criteria).
        let links = [FollowerLink {
            follower: ObjectId(3),
            leader: ObjectId(1),
            gap: 5.0,
            follower_speed: 10.0,
        }];
        let m = build(&trajs, &receivers, &links, |_, _| false);
        let leader_r = m.get(ObjectId(1), ObjectId(2));
        let follower_r = m.get(ObjectId(3), ObjectId(2));
        assert!(leader_r > 0.0);
        assert!((follower_r - DEFAULT_ALPHA * leader_r).abs() < 1e-12);
    }

    #[test]
    fn safe_follower_inherits_nothing() {
        let trajs = crossing_pair();
        let receivers = [ObjectId(1), ObjectId(2), ObjectId(3)];
        // 40 m gap at 10 m/s satisfies Pipes and Gipps.
        let links = [FollowerLink {
            follower: ObjectId(3),
            leader: ObjectId(1),
            gap: 40.0,
            follower_speed: 10.0,
        }];
        let m = build(&trajs, &receivers, &links, |_, _| false);
        assert_eq!(m.get(ObjectId(3), ObjectId(2)), 0.0);
    }

    #[test]
    fn chained_followers_decay_geometrically() {
        let trajs = crossing_pair();
        let receivers = [ObjectId(1), ObjectId(2), ObjectId(3), ObjectId(4)];
        let links = [
            FollowerLink {
                follower: ObjectId(3),
                leader: ObjectId(1),
                gap: 5.0,
                follower_speed: 10.0,
            },
            FollowerLink {
                follower: ObjectId(4),
                leader: ObjectId(3),
                gap: 5.0,
                follower_speed: 10.0,
            },
        ];
        let m = build(&trajs, &receivers, &links, |_, _| false);
        let r1 = m.get(ObjectId(1), ObjectId(2));
        let r3 = m.get(ObjectId(3), ObjectId(2));
        let r4 = m.get(ObjectId(4), ObjectId(2));
        assert!((r3 - DEFAULT_ALPHA * r1).abs() < 1e-12);
        assert!((r4 - DEFAULT_ALPHA * r3).abs() < 1e-12);
    }

    #[test]
    fn follower_who_sees_object_gets_nothing() {
        let trajs = crossing_pair();
        let receivers = [ObjectId(1), ObjectId(2), ObjectId(3)];
        let links = [FollowerLink {
            follower: ObjectId(3),
            leader: ObjectId(1),
            gap: 5.0,
            follower_speed: 10.0,
        }];
        let m = build(&trajs, &receivers, &links, |r, o| {
            r == ObjectId(3) && o == ObjectId(2)
        });
        assert_eq!(m.get(ObjectId(3), ObjectId(2)), 0.0);
    }

    #[test]
    fn multi_hypothesis_takes_the_max() {
        use erpd_geometry::Polyline2;
        // Receiver 2 goes north through the intersection.
        let recv = vehicle(2, Vec2::new(0.0, -20.0), 10.0, FRAC_PI_2);
        // Object 1 approaches eastbound with two hypotheses: straight
        // (crosses 2's path — conflict) and right turn (never crosses).
        let straight = vehicle(1, Vec2::new(-20.0, 0.0), 10.0, 0.0);
        let right_turn = PredictedTrajectory::from_path(
            ObjectId(1),
            ObjectKind::Vehicle,
            Polyline2::new(vec![
                Vec2::new(-20.0, 0.0),
                Vec2::new(-10.0, 0.0),
                Vec2::new(-8.0, -2.0),
                Vec2::new(-8.0, -40.0),
            ])
            .unwrap(),
            10.0,
            4.5,
        );
        let objects = vec![
            ObjectHypotheses::new(ObjectId(1), vec![right_turn.clone(), straight.clone()]),
            ObjectHypotheses::single(recv.clone()),
        ];
        let m = build_relevance_matrix_multi(
            &objects,
            &[ObjectId(1), ObjectId(2)],
            &[],
            DEFAULT_ALPHA,
            RelevanceConfig::default(),
            |_, _| false,
        )
        .unwrap();
        let multi = m.get(ObjectId(2), ObjectId(1));
        // Equals the single-hypothesis relevance of the conflicting path.
        let single = build(&[straight, recv.clone()], &[ObjectId(2)], &[], |_, _| false)
            .get(ObjectId(2), ObjectId(1));
        assert!(multi > 0.0);
        assert!((multi - single).abs() < 1e-12);
        // With only the right-turn hypothesis the pair is irrelevant.
        let objects_rt = vec![
            ObjectHypotheses::new(ObjectId(1), vec![right_turn]),
            ObjectHypotheses::single(recv),
        ];
        let m_rt = build_relevance_matrix_multi(
            &objects_rt,
            &[ObjectId(1), ObjectId(2)],
            &[],
            DEFAULT_ALPHA,
            RelevanceConfig::default(),
            |_, _| false,
        )
        .unwrap();
        assert_eq!(m_rt.get(ObjectId(2), ObjectId(1)), 0.0);
    }

    #[test]
    fn try_set_rejects_non_finite_values() {
        let mut m = RelevanceMatrix::new();
        m.try_set(ObjectId(1), ObjectId(2), 0.4).unwrap();
        assert_eq!(m.get(ObjectId(1), ObjectId(2)), 0.4);
        let err = m.try_set(ObjectId(1), ObjectId(3), f64::NAN).unwrap_err();
        assert!(matches!(err, Error::NonFiniteRelevance { .. }));
        assert!(m
            .try_set(ObjectId(1), ObjectId(3), f64::INFINITY)
            .is_err());
        // The matrix is untouched by rejected writes.
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn stale_objects_are_discounted() {
        let trajs = crossing_pair();
        let receivers = [ObjectId(1), ObjectId(2)];
        let cfg = RelevanceConfig::default().with_staleness_decay(0.5);
        let age = 1.2;
        let fresh = vec![
            ObjectHypotheses::single(trajs[0].clone()),
            ObjectHypotheses::single(trajs[1].clone()),
        ];
        let stale = vec![
            ObjectHypotheses {
                age,
                ..ObjectHypotheses::single(trajs[0].clone())
            },
            ObjectHypotheses::single(trajs[1].clone()),
        ];
        let m_fresh =
            build_relevance_matrix_multi(&fresh, &receivers, &[], DEFAULT_ALPHA, cfg, |_, _| false)
                .unwrap();
        let m_stale =
            build_relevance_matrix_multi(&stale, &receivers, &[], DEFAULT_ALPHA, cfg, |_, _| false)
                .unwrap();
        let r_fresh = m_fresh.get(ObjectId(2), ObjectId(1));
        let r_stale = m_stale.get(ObjectId(2), ObjectId(1));
        assert!(r_fresh > 0.0);
        assert!(
            (r_stale - r_fresh * (-0.5f64 * age).exp()).abs() < 1e-12,
            "stale {r_stale} vs fresh {r_fresh}"
        );
        // Object 2 is fresh in both matrices: its rows agree exactly.
        assert_eq!(
            m_fresh.get(ObjectId(1), ObjectId(2)),
            m_stale.get(ObjectId(1), ObjectId(2))
        );
        // With decay disabled, age has no effect at all.
        let m_off = build_relevance_matrix_multi(
            &stale,
            &receivers,
            &[],
            DEFAULT_ALPHA,
            RelevanceConfig::default(),
            |_, _| false,
        )
        .unwrap();
        assert_eq!(m_off.get(ObjectId(2), ObjectId(1)), r_fresh);
    }

    #[test]
    fn iteration_is_deterministic_and_sorted() {
        let mut m = RelevanceMatrix::new();
        m.set(ObjectId(2), ObjectId(1), 0.2);
        m.set(ObjectId(1), ObjectId(9), 0.9);
        m.set(ObjectId(1), ObjectId(3), 0.3);
        let triples: Vec<_> = m.iter().collect();
        assert_eq!(
            triples,
            vec![
                (ObjectId(1), ObjectId(3), 0.3),
                (ObjectId(1), ObjectId(9), 0.9),
                (ObjectId(2), ObjectId(1), 0.2),
            ]
        );
    }
}
