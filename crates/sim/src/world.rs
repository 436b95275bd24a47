//! The simulation world: agents, dynamics, collisions, and LiDAR scans.

use crate::{
    scan, IntersectionMap, LidarFrame, LidarTarget, PedestrianAgent, Route, Vehicle, VehicleParams,
};
use erpd_geometry::{angle::angle_dist, Obb2, Polyline2, Pose2, Vec2};

/// Simulation (and LiDAR frame) period, seconds: the paper's sensors run at
/// 10 Hz, and the edge closes one frame per period.
pub const FRAME_PERIOD: f64 = 0.1;

/// Human reaction time between a *disseminated* alert and braking, seconds
/// (paper §IV-C1: 1 s — the driver is primed by the HUD warning).
const REACTION_TIME: f64 = 1.0;

/// Reaction time to a hazard the driver merely *sees* (unexpected event, no
/// warning), seconds: substantially longer than the primed reaction.
const SELF_SENSING_REACTION: f64 = 2.0;

/// How long one alert keeps the driver wary without a refresh, seconds.
/// Long enough to bridge flickering visibility/relevance, short enough that
/// traffic recovers once a conflict clears.
const ALERT_HOLD: f64 = 1.5;

/// A static building.
#[derive(Debug, Clone, PartialEq)]
pub struct Building {
    /// World-unique id.
    pub id: u64,
    /// Planar footprint.
    pub footprint: Obb2,
    /// Height, metres.
    pub height: f64,
}

/// What kind of entity an id refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityKind {
    /// A vehicle agent.
    Vehicle,
    /// A pedestrian agent.
    Pedestrian,
    /// A static building.
    Building,
}

/// Ground-truth snapshot of one entity (used by the evaluation harness and
/// by the edge pipeline's oracle-free bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntityInfo {
    /// World-unique id.
    pub id: u64,
    /// Entity kind.
    pub kind: EntityKind,
    /// Planar position.
    pub position: Vec2,
    /// Planar velocity.
    pub velocity: Vec2,
    /// Heading, radians.
    pub heading: f64,
    /// Footprint length.
    pub length: f64,
    /// Footprint width.
    pub width: f64,
    /// True for connected vehicles.
    pub connected: bool,
}

/// The simulation world.
#[derive(Debug, Clone)]
pub struct World {
    /// The HD map.
    pub map: IntersectionMap,
    vehicles: Vec<Vehicle>,
    pedestrians: Vec<PedestrianAgent>,
    buildings: Vec<Building>,
    time: f64,
    collisions: Vec<(u64, u64)>,
    next_id: u64,
}

impl World {
    /// Creates an empty world.
    pub fn new(map: IntersectionMap) -> Self {
        World {
            map,
            vehicles: Vec::new(),
            pedestrians: Vec::new(),
            buildings: Vec::new(),
            time: 0.0,
            collisions: Vec::new(),
            next_id: 1,
        }
    }

    /// Current simulation time, seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// All vehicles.
    pub fn vehicles(&self) -> &[Vehicle] {
        &self.vehicles
    }

    /// All pedestrians.
    pub fn pedestrians(&self) -> &[PedestrianAgent] {
        &self.pedestrians
    }

    /// All buildings.
    pub fn buildings(&self) -> &[Building] {
        &self.buildings
    }

    /// Collisions recorded so far, as id pairs (each pair reported once).
    pub fn collisions(&self) -> &[(u64, u64)] {
        &self.collisions
    }

    /// Looks up a vehicle by id.
    pub fn vehicle(&self, id: u64) -> Option<&Vehicle> {
        self.vehicles.iter().find(|v| v.id == id)
    }

    /// Mutable vehicle lookup.
    pub(crate) fn vehicle_mut(&mut self, id: u64) -> Option<&mut Vehicle> {
        self.vehicles.iter_mut().find(|v| v.id == id)
    }

    /// Looks up a pedestrian by id.
    pub fn pedestrian(&self, id: u64) -> Option<&PedestrianAgent> {
        self.pedestrians.iter().find(|p| p.id == id)
    }

    /// Spawns a vehicle on a route; returns its id.
    pub(crate) fn spawn_vehicle(
        &mut self,
        route: Route,
        start_s: f64,
        target_speed: f64,
        params: VehicleParams,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.vehicles.push(Vehicle::new(id, route, start_s, target_speed, params));
        id
    }

    /// Spawns a pedestrian on a path; returns its id.
    pub(crate) fn spawn_pedestrian(&mut self, path: Polyline2, start_s: f64, speed: f64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pedestrians.push(PedestrianAgent::new(id, path, start_s, speed));
        id
    }

    /// Adds a building; returns its id.
    pub(crate) fn add_building(&mut self, footprint: Obb2, height: f64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.buildings.push(Building { id, footprint, height });
        id
    }

    /// The closest same-corridor leader of a vehicle: `(bumper gap, speed)`.
    fn leader_of(&self, v: &Vehicle) -> Option<(f64, f64)> {
        let mut best: Option<(f64, f64)> = None;
        for o in &self.vehicles {
            if o.id == v.id {
                continue;
            }
            let (s_o, lat) = v.route.path.project(o.position());
            if lat > 4.0 || s_o <= v.s + 0.1 || s_o - v.s > 60.0 {
                continue;
            }
            // Only same-direction traffic counts as a *leader*; crossing or
            // oncoming traffic must not trigger car following (the paper's
            // conflicts are resolved by dissemination, not by the
            // controller seeing through occlusions). The exception is a
            // slow or stopped vehicle physically blocking the corridor just
            // ahead — any driver sees and yields to that, whatever way it
            // points.
            let path_heading = v.route.path.heading_at(s_o);
            let aligned = lat <= 2.0
                && angle_dist(o.pose().heading(), path_heading) <= std::f64::consts::FRAC_PI_4;
            let blocking_obstacle = !aligned && o.speed < 2.0 && s_o - v.s < 20.0 && {
                // Footprint-accurate clearance: a rotated vehicle whose nose
                // pokes into the corridor blocks it even when its centre is
                // in another lane; a queue in the adjacent lane does not.
                let corridor_point = v.route.path.point_at(s_o);
                o.footprint().distance_to_point(corridor_point) < v.params.width / 2.0 + 0.4
            };
            if !aligned && !blocking_obstacle {
                continue;
            }
            let gap = (s_o - v.s) - (v.params.length + o.params.length) / 2.0;
            let gap = gap.max(0.0);
            if best.is_none_or(|(g, _)| gap < g) {
                best = Some((gap, o.speed));
            }
        }
        best
    }

    /// On-board ADAS: every vehicle (connected or not) reacts to a hazard
    /// its *own* sensors can see on a conflicting course. This is the
    /// counterpart of the paper's visibility rule — the server assigns
    /// `R = 0` to self-perceived objects precisely because the vehicle
    /// already knows about them. The scripted conflicts stay inevitable
    /// because their sight lines are occluded until braking can no longer
    /// help.
    fn self_sensing_alerts(&mut self) {
        let horizon = 2.5;
        let steps = 10;
        let occluders = self.occluders();
        let mut to_alert: Vec<u64> = Vec::new();
        for v in &self.vehicles {
            if v.parked || v.collided || !v.attentive {
                continue;
            }
            // Candidate conflicts by cheap kinematic projection along the
            // vehicle's own route vs. constant-velocity others.
            let mut candidates: Vec<(Vec2, f64)> = Vec::new(); // (position, height)
            let mut check = |pos: Vec2, vel: Vec2, height: f64, self_id: u64| {
                if self_id == v.id {
                    return;
                }
                for k in 1..=steps {
                    let t = horizon * k as f64 / steps as f64;
                    let p_v = v.route.path.point_at(v.s + v.speed * t);
                    let p_o = pos + vel * t;
                    if p_v.distance(p_o) < 3.0 {
                        candidates.push((pos, height));
                        return;
                    }
                }
            };
            for o in &self.vehicles {
                if !o.parked && !o.collided {
                    check(o.position(), o.velocity(), o.params.height, o.id);
                }
            }
            for p in &self.pedestrians {
                if !p.collided {
                    check(p.position(), p.velocity(), p.height, p.id);
                }
            }
            if candidates.is_empty() {
                continue;
            }
            // Only visible hazards alert the driver.
            let sensor = v.position();
            'cands: for (pos, _) in candidates {
                let ray = erpd_geometry::Segment2::new(sensor, pos);
                for (owner, obb, height) in &occluders {
                    if *owner == v.id {
                        continue;
                    }
                    if pos.distance(obb.pose.position) < 0.5 {
                        continue; // the candidate itself
                    }
                    if *height + 0.3 >= v.params.sensor_height && obb.intersects_segment(&ray) {
                        continue 'cands; // occluded
                    }
                }
                to_alert.push(v.id);
                break;
            }
        }
        let now = self.time;
        for id in to_alert {
            if let Some(v) = self.vehicle_mut(id) {
                v.alert(now, SELF_SENSING_REACTION, ALERT_HOLD);
            }
        }
    }

    /// Advances the world one step: vehicle and pedestrian dynamics, then
    /// collision detection.
    pub fn step(&mut self) {
        let dt = FRAME_PERIOD;
        let now = self.time;
        self.self_sensing_alerts();

        let leaders: Vec<Option<(f64, f64)>> = self
            .vehicles
            .iter()
            .map(|v| {
                let mut leader = self.leader_of(v);
                // Red signal: queue behind a virtual stopped leader at the
                // stop line.
                if v.hold_at_stop_line && v.s < v.route.stop_line_s {
                    let gap = (v.route.stop_line_s - v.s - v.params.length / 2.0).max(0.0);
                    leader = Some(match leader {
                        Some((g, sp)) if g < gap => (g, sp),
                        _ => (gap, 0.0),
                    });
                }
                leader
            })
            .collect();
        for (v, leader) in self.vehicles.iter_mut().zip(leaders) {
            v.step(now, dt, leader);
        }
        for p in &mut self.pedestrians {
            p.step(dt);
        }
        self.detect_collisions();
        self.time += dt;
    }

    fn detect_collisions(&mut self) {
        let n = self.vehicles.len();
        let mut new_pairs = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (&self.vehicles[i], &self.vehicles[j]);
                if a.parked && b.parked {
                    continue;
                }
                if a.speed == 0.0 && b.speed == 0.0 && (a.collided || b.collided) {
                    continue;
                }
                if a.footprint().intersects(&b.footprint()) {
                    new_pairs.push((a.id, b.id));
                }
            }
            for p in &self.pedestrians {
                let v = &self.vehicles[i];
                if v.speed > 0.0 && v.footprint().intersects(&p.footprint()) {
                    new_pairs.push((v.id, p.id));
                }
            }
        }
        for (a, b) in new_pairs {
            if !self.collisions.contains(&(a, b)) {
                self.collisions.push((a, b));
            }
            if let Some(v) = self.vehicle_mut(a) {
                v.collided = true;
                v.speed = 0.0;
            }
            if let Some(v) = self.vehicle_mut(b) {
                v.collided = true;
                v.speed = 0.0;
            } else if let Some(p) = self.pedestrians.iter_mut().find(|p| p.id == b) {
                p.collided = true;
            }
        }
    }

    /// Delivers a dissemination alert to a connected vehicle.
    pub fn alert(&mut self, vehicle_id: u64) {
        let now = self.time;
        if let Some(v) = self.vehicle_mut(vehicle_id) {
            if v.connected {
                v.alert(now, REACTION_TIME, ALERT_HOLD);
            }
        }
    }

    /// All LiDAR targets in the world (everything that returns points).
    pub(crate) fn lidar_targets(&self) -> Vec<LidarTarget> {
        let mut out = Vec::new();
        for v in &self.vehicles {
            out.push(LidarTarget {
                id: v.id,
                footprint: v.footprint(),
                height: v.params.height,
            });
        }
        for p in &self.pedestrians {
            out.push(LidarTarget {
                id: p.id,
                footprint: p.footprint(),
                height: p.height,
            });
        }
        for b in &self.buildings {
            out.push(LidarTarget {
                id: b.id,
                footprint: b.footprint,
                height: b.height,
            });
        }
        out
    }

    /// All occluders `(owner id, footprint, height)`.
    pub(crate) fn occluders(&self) -> Vec<(u64, Obb2, f64)> {
        let mut out = Vec::new();
        for v in &self.vehicles {
            out.push((v.id, v.footprint(), v.params.height));
        }
        for b in &self.buildings {
            out.push((b.id, b.footprint, b.height));
        }
        out
    }

    /// Scans from one connected vehicle.
    pub fn scan_vehicle(&self, vehicle_id: u64) -> Option<LidarFrame> {
        let v = self.vehicle(vehicle_id)?;
        let pose = Pose2::new(v.position(), v.pose().heading());
        Some(scan(
            v.id,
            pose,
            v.params.sensor_height,
            &self.lidar_targets(),
            &self.occluders(),
        ))
    }

    /// Scans from every connected vehicle.
    pub fn scan_connected(&self) -> Vec<LidarFrame> {
        self.vehicles
            .iter()
            .filter(|v| v.connected && !v.collided)
            .map(|v| {
                scan(
                    v.id,
                    Pose2::new(v.position(), v.pose().heading()),
                    v.params.sensor_height,
                    &self.lidar_targets(),
                    &self.occluders(),
                )
            })
            .collect()
    }

    /// Ground-truth snapshots of every entity.
    pub fn entities(&self) -> Vec<EntityInfo> {
        let mut out = Vec::new();
        for v in &self.vehicles {
            out.push(EntityInfo {
                id: v.id,
                kind: EntityKind::Vehicle,
                position: v.position(),
                velocity: v.velocity(),
                heading: v.pose().heading(),
                length: v.params.length,
                width: v.params.width,
                connected: v.connected,
            });
        }
        for p in &self.pedestrians {
            out.push(EntityInfo {
                id: p.id,
                kind: EntityKind::Pedestrian,
                position: p.position(),
                velocity: p.velocity(),
                heading: p.pose().heading(),
                length: p.size,
                width: p.size,
                connected: false,
            });
        }
        for b in &self.buildings {
            out.push(EntityInfo {
                id: b.id,
                kind: EntityKind::Building,
                position: b.footprint.pose.position,
                velocity: Vec2::ZERO,
                heading: 0.0,
                length: b.footprint.length,
                width: b.footprint.width,
                connected: false,
            });
        }
        out
    }

    /// Distance between the footprints of two entities, if both exist.
    pub fn distance_between(&self, a: u64, b: u64) -> Option<f64> {
        let fa = self.footprint_of(a)?;
        let fb = self.footprint_of(b)?;
        Some(fa.distance(&fb))
    }

    fn footprint_of(&self, id: u64) -> Option<Obb2> {
        if let Some(v) = self.vehicle(id) {
            return Some(v.footprint());
        }
        if let Some(p) = self.pedestrian(id) {
            return Some(p.footprint());
        }
        self.buildings.iter().find(|b| b.id == id).map(|b| b.footprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Approach, RouteSpec, Turn};

    fn world() -> World {
        World::new(IntersectionMap::default())
    }

    fn route(map: &IntersectionMap, approach: Approach, lane: usize, turn: Turn) -> Route {
        map.route(RouteSpec { approach, lane, turn })
    }

    #[test]
    fn spawning_assigns_unique_ids() {
        let mut w = world();
        let m = w.map.clone();
        let a = w.spawn_vehicle(route(&m, Approach::East, 0, Turn::Straight), 0.0, 10.0, VehicleParams::car());
        let b = w.spawn_vehicle(route(&m, Approach::West, 0, Turn::Straight), 0.0, 10.0, VehicleParams::car());
        let p = w.spawn_pedestrian(m.crosswalk_path(Approach::East, true), 0.0, 1.3);
        let c = w.add_building(m.corner_buildings()[0], 10.0);
        let ids = [a, b, p, c];
        let mut dedup = ids.to_vec();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
        assert!(w.vehicle(a).is_some());
        assert!(w.pedestrian(p).is_some());
    }

    #[test]
    fn vehicles_advance_on_step() {
        let mut w = world();
        let m = w.map.clone();
        let id = w.spawn_vehicle(route(&m, Approach::East, 0, Turn::Straight), 0.0, 10.0, VehicleParams::car());
        for _ in 0..10 {
            w.step();
        }
        assert!((w.time() - 1.0).abs() < 1e-9);
        assert!((w.vehicle(id).unwrap().s - 10.0).abs() < 0.1);
    }

    #[test]
    fn queued_vehicles_do_not_rear_end() {
        let mut w = world();
        let m = w.map.clone();
        // Parked leader 30 m before the stop line; follower approaches fast.
        let leader = w.spawn_vehicle(route(&m, Approach::East, 0, Turn::Straight), 90.0, 0.0, VehicleParams::car());
        w.vehicle_mut(leader).unwrap().parked = true;
        let follower =
            w.spawn_vehicle(route(&m, Approach::East, 0, Turn::Straight), 30.0, 12.0, VehicleParams::car());
        for _ in 0..150 {
            w.step();
        }
        assert!(w.collisions().is_empty(), "collisions: {:?}", w.collisions());
        let f = w.vehicle(follower).unwrap();
        assert!(f.speed < 0.5, "follower should have stopped, v = {}", f.speed);
        assert!(f.s < 90.0 - 4.5);
    }

    #[test]
    fn crossing_traffic_is_not_a_leader() {
        let mut w = world();
        let m = w.map.clone();
        // Eastbound through vs northbound through: conflicting, but neither
        // must yield via car following (paper: accidents are inevitable
        // without data sharing).
        let a = w.spawn_vehicle(route(&m, Approach::East, 0, Turn::Straight), 70.0, 10.0, VehicleParams::car());
        let b = w.spawn_vehicle(route(&m, Approach::North, 0, Turn::Straight), 70.0, 10.0, VehicleParams::car());
        for _ in 0..100 {
            w.step();
            if !w.collisions().is_empty() {
                break;
            }
        }
        assert!(!w.collisions().is_empty(), "crossing vehicles must collide");
        let pair = w.collisions()[0];
        assert!((pair == (a, b)) || (pair == (b, a)));
        // Collided vehicles are stopped.
        assert_eq!(w.vehicle(a).unwrap().speed, 0.0);
    }

    #[test]
    fn alert_prevents_crossing_collision() {
        let mut w = world();
        let m = w.map.clone();
        let a = w.spawn_vehicle(route(&m, Approach::East, 0, Turn::Straight), 70.0, 10.0, VehicleParams::car());
        let _b = w.spawn_vehicle(route(&m, Approach::North, 0, Turn::Straight), 70.0, 10.0, VehicleParams::car());
        w.vehicle_mut(a).unwrap().connected = true;
        // Alert vehicle a every frame from the start.
        for _ in 0..120 {
            w.alert(a);
            w.step();
        }
        assert!(w.collisions().is_empty(), "alerted vehicle must brake in time");
    }

    #[test]
    fn unconnected_vehicles_ignore_alerts() {
        let mut w = world();
        let m = w.map.clone();
        let a = w.spawn_vehicle(route(&m, Approach::East, 0, Turn::Straight), 70.0, 10.0, VehicleParams::car());
        let _b = w.spawn_vehicle(route(&m, Approach::North, 0, Turn::Straight), 70.0, 10.0, VehicleParams::car());
        // a is NOT connected: alerts are dropped.
        for _ in 0..100 {
            w.alert(a);
            w.step();
            if !w.collisions().is_empty() {
                break;
            }
        }
        assert!(!w.collisions().is_empty());
    }

    #[test]
    fn vehicle_hits_pedestrian_occluded_by_parked_truck() {
        // A parked truck in the adjacent lane hides the crossing pedestrian
        // until ~1.9 s before impact — less than the reaction plus braking
        // time at 14 m/s, so the collision is unavoidable for the onboard
        // sensors (the Fig. 1 situation at world level).
        let mut w = world();
        let m = w.map.clone();
        let speed = 14.0;
        let v = w.spawn_vehicle(route(&m, Approach::East, 0, Turn::Straight), 80.0, speed, VehicleParams::car());
        let truck = w.spawn_vehicle(route(&m, Approach::East, 1, Turn::Straight), 114.0, 0.0, VehicleParams::truck());
        w.vehicle_mut(truck).unwrap().parked = true;
        // Pedestrian crossing the west-arm crosswalk from the truck's side,
        // timed to be in the car's lane when it arrives (x = -8.5 is route
        // arc length 118.5; 38.5 m at 14 m/s ≈ 2.75 s, plus a little late
        // braking).
        let path = m.crosswalk_path(Approach::East, true);
        let ped = w.spawn_pedestrian(path, 7.25 - 1.3 * 2.9, 1.3);
        let mut hit = false;
        for _ in 0..120 {
            w.step();
            if w.collisions().iter().any(|&(x, y)| x == v && y == ped) {
                hit = true;
                break;
            }
        }
        assert!(hit, "car must hit the occluded crossing pedestrian");
        assert!(w.pedestrian(ped).unwrap().collided);
    }

    #[test]
    fn slow_vehicle_self_stops_for_visible_pedestrian() {
        // At 5 m/s the onboard (2 s-reaction) self-sensing sees the
        // conflict in time: the driver brakes without any dissemination
        // (the sim-level counterpart of the paper's visibility rule).
        let mut w = world();
        let m = w.map.clone();
        let speed = 5.0;
        let v = w.spawn_vehicle(route(&m, Approach::East, 0, Turn::Straight), 80.0, speed, VehicleParams::car());
        let path = m.crosswalk_path(Approach::East, true);
        let t_arrive = (118.5 - 80.0) / speed;
        let ped = w.spawn_pedestrian(path, 7.25 - 1.3 * t_arrive, 1.3);
        for _ in 0..140 {
            w.step();
        }
        assert!(
            w.collisions().is_empty(),
            "visible pedestrian must trigger the self-sensing brake: {:?}",
            w.collisions()
        );
        assert!(!w.pedestrian(ped).unwrap().collided);
        let _ = v;
    }

    #[test]
    fn scan_sees_other_vehicles() {
        let mut w = world();
        let m = w.map.clone();
        let a = w.spawn_vehicle(route(&m, Approach::East, 0, Turn::Straight), 90.0, 10.0, VehicleParams::car());
        let b = w.spawn_vehicle(route(&m, Approach::East, 0, Turn::Straight), 70.0, 10.0, VehicleParams::car());
        w.vehicle_mut(a).unwrap().connected = true;
        let frame = w.scan_vehicle(a).unwrap();
        assert!(frame.visible_ids.contains(&b));
        assert_eq!(w.scan_connected().len(), 1);
    }

    #[test]
    fn entities_snapshot_covers_everything() {
        let mut w = world();
        let m = w.map.clone();
        w.spawn_vehicle(route(&m, Approach::East, 0, Turn::Straight), 0.0, 10.0, VehicleParams::car());
        w.spawn_pedestrian(m.crosswalk_path(Approach::East, true), 0.0, 1.3);
        for bld in m.corner_buildings() {
            w.add_building(bld, 12.0);
        }
        let ents = w.entities();
        assert_eq!(ents.len(), 6);
        assert_eq!(ents.iter().filter(|e| e.kind == EntityKind::Vehicle).count(), 1);
        assert_eq!(ents.iter().filter(|e| e.kind == EntityKind::Building).count(), 4);
    }

    #[test]
    fn distance_between_entities() {
        let mut w = world();
        let m = w.map.clone();
        let a = w.spawn_vehicle(route(&m, Approach::East, 0, Turn::Straight), 0.0, 10.0, VehicleParams::car());
        let b = w.spawn_vehicle(route(&m, Approach::East, 0, Turn::Straight), 20.0, 10.0, VehicleParams::car());
        let d = w.distance_between(a, b).unwrap();
        assert!((d - 15.5).abs() < 0.1, "d = {d}"); // 20 m centres - 4.5 m lengths
        assert!(w.distance_between(a, 999).is_none());
    }
}
