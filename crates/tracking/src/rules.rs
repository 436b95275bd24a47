//! The three tracking-reduction rules of paper §II-D.
//!
//! Predicting every object is infeasible in real time, so the edge server
//! predicts only:
//!
//! * **Rule 1** — the *leading* vehicle of each lane approaching the
//!   intersection (followers are covered by car-following models),
//! * **Rule 2** — every vehicle inside the intersection boundary (the "red
//!   boundary" along the crosswalks), and
//! * **Rule 3** — one *representative* per pedestrian crowd.
//!
//! This module is deliberately decoupled from the simulator's map: callers
//! describe each object's lane position and boundary membership, which the
//! edge crate derives from its HD map.

use crate::{cluster_crowds, Crowd, ObjectId, ObjectState, Pedestrian};
use std::collections::BTreeMap;

/// Where a vehicle sits along an approach lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LanePosition {
    /// Lane identifier (from the HD map).
    pub lane_id: u32,
    /// Remaining distance to the intersection entry (stop line), metres.
    /// Smaller = closer = further ahead in the queue.
    pub distance_to_stop: f64,
}

/// Everything the rules need to know about one object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleInput {
    /// Kinematic state.
    pub state: ObjectState,
    /// Lane position for vehicles on an approach lane (`None` for
    /// pedestrians and vehicles not mapped to a lane).
    pub lane: Option<LanePosition>,
    /// True when the object is inside the intersection boundary (Rule 2).
    pub in_intersection: bool,
}

/// A follower bound to its immediate leader in the same lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FollowerLink {
    /// The follower's identity.
    pub follower: ObjectId,
    /// The vehicle immediately ahead in the same lane.
    pub leader: ObjectId,
    /// Bumper-to-bumper gap to the immediate leader, metres.
    pub gap: f64,
    /// Follower speed, m/s.
    pub follower_speed: f64,
}

/// Output of applying the three rules to one frame.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrackingSelection {
    /// Vehicles whose trajectories must be predicted (Rule 1 leaders plus
    /// Rule 2 in-boundary vehicles), deduplicated, in id order.
    pub predicted_vehicles: Vec<ObjectId>,
    /// Car-following links for the filtered-out vehicles.
    pub followers: Vec<FollowerLink>,
    /// Pedestrian crowds; only each crowd's representative is predicted.
    pub crowds: Vec<Crowd>,
    /// Pedestrians in input order (for mapping crowd member indices back to
    /// ids).
    pub pedestrians: Vec<Pedestrian>,
}

impl TrackingSelection {
    /// Total number of trajectories that will be predicted.
    pub fn predicted_count(&self) -> usize {
        self.predicted_vehicles.len() + self.crowds.len()
    }
}

/// Applies Rules 1–3 to one frame of tracked objects.
///
/// # Examples
///
/// ```
/// use erpd_tracking::{apply_rules, LanePosition, ObjectId, ObjectKind, ObjectState,
///                     RuleInput};
/// use erpd_geometry::Vec2;
///
/// // Two vehicles queued in lane 0: only the front one is predicted.
/// let mk = |id: u64, dist: f64| RuleInput {
///     state: ObjectState::new(ObjectId(id), ObjectKind::Vehicle,
///                             Vec2::new(-dist, 0.0), Vec2::new(8.0, 0.0)),
///     lane: Some(LanePosition { lane_id: 0, distance_to_stop: dist }),
///     in_intersection: false,
/// };
/// let sel = apply_rules(&[mk(1, 10.0), mk(2, 25.0)]);
/// assert_eq!(sel.predicted_vehicles, vec![ObjectId(1)]);
/// assert_eq!(sel.followers.len(), 1);
/// ```
pub fn apply_rules(objects: &[RuleInput]) -> TrackingSelection {
    use crate::ObjectKind;

    let mut predicted: Vec<ObjectId> = Vec::new();
    let mut followers: Vec<FollowerLink> = Vec::new();
    let mut pedestrians: Vec<Pedestrian> = Vec::new();

    // Rule 2: vehicles inside the boundary are always predicted.
    for o in objects {
        if o.state.kind == ObjectKind::Vehicle && o.in_intersection {
            predicted.push(o.state.id);
        }
    }

    // Rule 1: per lane, sort by distance to the stop line; the first is the
    // leader; the rest chain as followers.
    let mut lanes: BTreeMap<u32, Vec<&RuleInput>> = BTreeMap::new();
    for o in objects {
        if o.state.kind != ObjectKind::Vehicle || o.in_intersection {
            continue;
        }
        if let Some(lane) = o.lane {
            lanes.entry(lane.lane_id).or_default().push(o);
        }
    }
    for queue in lanes.values_mut() {
        queue.sort_by(|a, b| {
            let da = a.lane.expect("lane members have lanes").distance_to_stop;
            let db = b.lane.expect("lane members have lanes").distance_to_stop;
            da.partial_cmp(&db).expect("finite distances")
        });
        predicted.push(queue[0].state.id);
        for pair in queue.windows(2) {
            let (ahead, behind) = (pair[0], pair[1]);
            let gap = behind.lane.expect("lane member").distance_to_stop
                - ahead.lane.expect("lane member").distance_to_stop
                - (ahead.state.length + behind.state.length) / 2.0;
            followers.push(FollowerLink {
                follower: behind.state.id,
                leader: ahead.state.id,
                gap: gap.max(0.0),
                follower_speed: behind.state.speed(),
            });
        }
    }

    // Rule 3: crowd-cluster the pedestrians.
    for o in objects {
        if o.state.kind == ObjectKind::Pedestrian {
            pedestrians.push(Pedestrian {
                id: o.state.id,
                position: o.state.position,
                orientation: o.state.heading,
                speed: o.state.speed(),
            });
        }
    }
    let crowds = cluster_crowds(&pedestrians);

    predicted.sort();
    predicted.dedup();
    TrackingSelection {
        predicted_vehicles: predicted,
        followers,
        crowds,
        pedestrians,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObjectKind;
    use erpd_geometry::Vec2;

    fn vehicle(id: u64, lane: Option<(u32, f64)>, in_intersection: bool, speed: f64) -> RuleInput {
        RuleInput {
            state: ObjectState::new(
                ObjectId(id),
                ObjectKind::Vehicle,
                Vec2::new(id as f64 * 10.0, 0.0),
                Vec2::new(speed, 0.0),
            ),
            lane: lane.map(|(lane_id, d)| LanePosition {
                lane_id,
                distance_to_stop: d,
            }),
            in_intersection,
        }
    }

    fn walker(id: u64, x: f64, y: f64, o: f64) -> RuleInput {
        let mut state = ObjectState::new(
            ObjectId(id),
            ObjectKind::Pedestrian,
            Vec2::new(x, y),
            Vec2::from_angle(o) * 1.3,
        );
        state.heading = o;
        RuleInput {
            state,
            lane: None,
            in_intersection: false,
        }
    }

    #[test]
    fn rule1_single_leader_per_lane() {
        let inputs = vec![
            vehicle(1, Some((0, 12.0)), false, 8.0),
            vehicle(2, Some((0, 30.0)), false, 8.0),
            vehicle(3, Some((0, 50.0)), false, 8.0),
            vehicle(4, Some((1, 20.0)), false, 8.0),
        ];
        let sel = apply_rules(&inputs);
        assert_eq!(sel.predicted_vehicles, vec![ObjectId(1), ObjectId(4)]);
        assert_eq!(sel.followers.len(), 2);
        // Follower chain: 2 follows 1, 3 follows 2.
        assert_eq!(sel.followers[0].follower, ObjectId(2));
        assert_eq!(sel.followers[0].leader, ObjectId(1));
        assert_eq!(sel.followers[1].follower, ObjectId(3));
        assert_eq!(sel.followers[1].leader, ObjectId(2));
    }

    #[test]
    fn rule1_gap_subtracts_vehicle_halves() {
        let inputs = vec![
            vehicle(1, Some((0, 10.0)), false, 8.0),
            vehicle(2, Some((0, 20.0)), false, 8.0),
        ];
        let sel = apply_rules(&inputs);
        // 10 m centre gap minus 4.5 m (two half-lengths) = 5.5 m.
        assert!((sel.followers[0].gap - 5.5).abs() < 1e-9);
    }

    #[test]
    fn rule2_in_boundary_vehicles_predicted() {
        let inputs = vec![
            vehicle(1, None, true, 5.0),
            vehicle(2, Some((0, 15.0)), false, 8.0),
            vehicle(3, None, false, 8.0), // unmapped, outside boundary: ignored
        ];
        let sel = apply_rules(&inputs);
        assert_eq!(sel.predicted_vehicles, vec![ObjectId(1), ObjectId(2)]);
    }

    #[test]
    fn rule2_takes_priority_over_lane_queueing() {
        // A vehicle inside the boundary that also has a lane mapping is
        // predicted and not treated as a lane member.
        let inputs = vec![
            vehicle(1, Some((0, 0.5)), true, 5.0),
            vehicle(2, Some((0, 12.0)), false, 8.0),
        ];
        let sel = apply_rules(&inputs);
        // Both predicted: 1 via Rule 2, 2 becomes the lane leader.
        assert_eq!(sel.predicted_vehicles, vec![ObjectId(1), ObjectId(2)]);
        assert!(sel.followers.is_empty());
    }

    #[test]
    fn rule3_crowd_representatives() {
        let mut inputs = vec![vehicle(1, Some((0, 10.0)), false, 8.0)];
        // Crowd of 4 heading east, crowd of 3 heading west, far apart.
        for i in 0..4 {
            inputs.push(walker(10 + i, i as f64 * 0.4, 0.0, 0.0));
        }
        for i in 0..3 {
            inputs.push(walker(20 + i, 40.0 + i as f64 * 0.4, 0.0, std::f64::consts::PI));
        }
        let sel = apply_rules(&inputs);
        assert_eq!(sel.crowds.len(), 2);
        // 1 vehicle + 2 representatives.
        assert_eq!(sel.predicted_count(), 3);
    }

    #[test]
    fn paper_scale_reduction() {
        // Paper §II-D: 30 vehicles and 20 pedestrians reduce to 7 vehicles
        // and 4 pedestrian representatives. Reproduce the shape: 4 lanes
        // with queues, 3 vehicles in the box, 4 tight crowds.
        let mut inputs = Vec::new();
        let mut id = 0u64;
        for lane in 0..4u32 {
            for k in 0..5 {
                id += 1;
                inputs.push(vehicle(id, Some((lane, 10.0 + 8.0 * k as f64)), false, 8.0));
            }
        }
        for _ in 0..3 {
            id += 1;
            inputs.push(vehicle(id, None, true, 5.0));
        }
        for crowd in 0..4 {
            for k in 0..5 {
                id += 1;
                inputs.push(walker(
                    id,
                    crowd as f64 * 30.0 + k as f64 * 0.4,
                    0.0,
                    crowd as f64 * 0.7,
                ));
            }
        }
        let sel = apply_rules(&inputs);
        // 4 leaders + 3 in-box = 7 vehicles; 4 crowds.
        assert_eq!(sel.predicted_vehicles.len(), 7);
        assert_eq!(sel.crowds.len(), 4);
        assert_eq!(sel.followers.len(), 16);
        // 23 objects tracked instead of 20 + 23 = 43... the paper's point:
        assert!(sel.predicted_count() < inputs.len() / 2);
    }

    #[test]
    fn empty_input() {
        let sel = apply_rules(&[]);
        assert!(sel.predicted_vehicles.is_empty());
        assert!(sel.followers.is_empty());
        assert!(sel.crowds.is_empty());
        assert_eq!(sel.predicted_count(), 0);
    }

    #[test]
    fn negative_gap_clamped_to_zero() {
        let inputs = vec![
            vehicle(1, Some((0, 10.0)), false, 8.0),
            vehicle(2, Some((0, 13.0)), false, 8.0), // 3 m centre gap < 4.5 m lengths
        ];
        let sel = apply_rules(&inputs);
        assert_eq!(sel.followers[0].gap, 0.0);
    }
}
