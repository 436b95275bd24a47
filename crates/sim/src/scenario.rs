//! The evaluation scenarios of the paper (§IV): *unprotected left turn*,
//! *red-light violation*, and the Fig. 1 / Fig. 8(a) occluded-pedestrian
//! demo.
//!
//! Each scenario scripts a conflict that is **inevitable without data
//! sharing**: the two protagonists approach a common conflict point at the
//! configured speed with their mutual sight line blocked by trucks,
//! queues, and corner buildings. Around them, a busy urban intersection is
//! populated with queued and flowing background vehicles (40 by default)
//! and pedestrians on a crosswalk.

use crate::{
    Approach, IntersectionMap, RouteSpec, Turn, VehicleParams, World,
};
use erpd_geometry::Vec2;
use erpd_rand::rngs::StdRng;
use erpd_rand::{Rng, SeedableRng};

/// Which conflict is scripted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// The ego turns left across occluded oncoming traffic (paper Fig. 9a).
    UnprotectedLeftTurn,
    /// A hazard vehicle runs a red light across the ego's path (Fig. 9b).
    RedLightViolation,
    /// The Fig. 1 demo: a pedestrian crosses behind a stalled truck in
    /// front of the through-driving ego.
    OccludedPedestrian,
}

/// Scenario parameters (the paper's sweep axes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Which conflict to script.
    pub kind: ScenarioKind,
    /// Total vehicles at the intersection (paper: 40).
    pub n_vehicles: usize,
    /// Fraction of vehicles that are connected (paper: 0.2–0.5).
    pub connected_fraction: f64,
    /// Cruise speed of flowing traffic, km/h (paper: 20–40).
    pub speed_kmh: f64,
    /// Pedestrians on the safe-arm crosswalk.
    pub n_pedestrians: usize,
    /// RNG seed (one paper "run" = one seed).
    pub seed: u64,
    /// Seconds before the protagonists would meet at the conflict point.
    pub time_to_conflict: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            kind: ScenarioKind::UnprotectedLeftTurn,
            n_vehicles: 40,
            connected_fraction: 0.3,
            speed_kmh: 30.0,
            n_pedestrians: 12,
            seed: 0,
            time_to_conflict: 4.5,
        }
    }
}

impl ScenarioConfig {
    /// Returns the configuration with the scripted conflict replaced.
    pub fn with_kind(mut self, kind: ScenarioKind) -> Self {
        self.kind = kind;
        self
    }

    /// Returns the configuration with the vehicle count replaced.
    pub fn with_n_vehicles(mut self, n_vehicles: usize) -> Self {
        self.n_vehicles = n_vehicles;
        self
    }

    /// Returns the configuration with the connected fraction replaced.
    pub fn with_connected_fraction(mut self, connected_fraction: f64) -> Self {
        self.connected_fraction = connected_fraction;
        self
    }

    /// Returns the configuration with the cruise speed replaced.
    pub fn with_speed_kmh(mut self, speed_kmh: f64) -> Self {
        self.speed_kmh = speed_kmh;
        self
    }

    /// Returns the configuration with the pedestrian count replaced.
    pub fn with_n_pedestrians(mut self, n_pedestrians: usize) -> Self {
        self.n_pedestrians = n_pedestrians;
        self
    }

    /// Returns the configuration with the RNG seed replaced.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the configuration with the time to conflict replaced.
    pub fn with_time_to_conflict(mut self, time_to_conflict: f64) -> Self {
        self.time_to_conflict = time_to_conflict;
        self
    }
}

/// A built scenario: the world plus the ids the evaluation tracks.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The simulation world, ready to step.
    pub world: World,
    /// The protagonist that must receive disseminated data (always
    /// connected).
    pub ego: u64,
    /// The occluded hazard (a vehicle, or the pedestrian in the demo).
    pub hazard: u64,
    /// A vehicle for which the hazard is *irrelevant* (demo only).
    pub bystander: Option<u64>,
    /// The configuration used.
    pub config: ScenarioConfig,
    /// Where the protagonists' paths cross.
    pub conflict_point: Vec2,
}

impl Scenario {
    /// Builds a scenario from its configuration.
    pub fn build(config: ScenarioConfig) -> Scenario {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E3779B9).wrapping_add(1));
        let map = IntersectionMap::default();
        let mut world = World::new(map.clone());
        for b in map.corner_buildings() {
            world.add_building(b, 12.0);
        }
        let speed = config.speed_kmh / 3.6;

        match config.kind {
            ScenarioKind::UnprotectedLeftTurn => {
                Self::build_left_turn(config, &map, &mut world, &mut rng, speed)
            }
            ScenarioKind::RedLightViolation => {
                Self::build_red_light(config, &map, &mut world, &mut rng, speed)
            }
            ScenarioKind::OccludedPedestrian => Self::build_demo(config, &map, &mut world),
        }
    }

    fn build_left_turn(
        config: ScenarioConfig,
        map: &IntersectionMap,
        world: &mut World,
        rng: &mut StdRng,
        speed: f64,
    ) -> Scenario {
        let ego_route = map.route(RouteSpec {
            approach: Approach::East,
            lane: 0,
            turn: Turn::Left,
        });
        let hazard_route = map.route(RouteSpec {
            approach: Approach::West,
            lane: 1,
            turn: Turn::Straight,
        });
        let crossing = ego_route
            .path
            .first_crossing(&hazard_route.path)
            .expect("left turn conflicts with oncoming straight");
        let conflict_point = crossing.point;

        let ego_start = (crossing.s_self - speed * config.time_to_conflict).max(0.0);
        let hazard_start = (crossing.s_other - speed * config.time_to_conflict).max(0.0);
        let ego = world.spawn_vehicle(ego_route, ego_start, speed, VehicleParams::car());
        let hazard = world.spawn_vehicle(hazard_route, hazard_start, speed, VehicleParams::car());
        world.vehicle_mut(ego).unwrap().connected = true;
        // The oncoming driver is distracted: they will not yield to the
        // turning ego on their own (the scripted conflict premise).
        world.vehicle_mut(hazard).unwrap().attentive = false;

        // The opposing left-turning truck that blocks the ego's view
        // (parked at the westbound inner-lane stop line).
        let truck_route = map.route(RouteSpec {
            approach: Approach::West,
            lane: 0,
            turn: Turn::Straight,
        });
        let truck_start = truck_route.stop_line_s - 6.0;
        let truck = world.spawn_vehicle(truck_route, truck_start, 0.0, VehicleParams::truck());
        world.vehicle_mut(truck).unwrap().parked = true;

        // Background traffic. Flowing lanes follow the protagonists; all
        // other lanes queue at a red signal.
        let flowing = [
            (Approach::East, 0, Turn::Left, ego_start),
            (Approach::West, 1, Turn::Straight, hazard_start),
        ];
        let queued_behind_truck = (Approach::West, 0, truck_start);
        let budget = config.n_vehicles.saturating_sub(3);
        Self::fill_background(
            map,
            world,
            rng,
            speed,
            budget,
            &flowing,
            Some(queued_behind_truck),
        );
        Self::spawn_pedestrians(config, map, world, rng, Approach::South);
        Self::assign_connectivity(config, world, rng, ego, hazard);

        Scenario {
            world: std::mem::replace(world, World::new(map.clone())),
            ego,
            hazard,
            bystander: None,
            config,
            conflict_point,
        }
    }

    fn build_red_light(
        config: ScenarioConfig,
        map: &IntersectionMap,
        world: &mut World,
        rng: &mut StdRng,
        speed: f64,
    ) -> Scenario {
        let ego_route = map.route(RouteSpec {
            approach: Approach::North,
            lane: 0,
            turn: Turn::Straight,
        });
        let hazard_route = map.route(RouteSpec {
            approach: Approach::East,
            lane: 1,
            turn: Turn::Straight,
        });
        let crossing = ego_route
            .path
            .first_crossing(&hazard_route.path)
            .expect("perpendicular straights conflict");
        let conflict_point = crossing.point;

        let ego_start = (crossing.s_self - speed * config.time_to_conflict).max(0.0);
        let hazard_start = (crossing.s_other - speed * config.time_to_conflict).max(0.0);
        let ego = world.spawn_vehicle(ego_route, ego_start, speed, VehicleParams::car());
        let hazard = world.spawn_vehicle(hazard_route, hazard_start, speed, VehicleParams::car());
        world.vehicle_mut(ego).unwrap().connected = true;
        // A red-light runner does not brake for what they see.
        world.vehicle_mut(hazard).unwrap().attentive = false;

        // Trucks waiting at the eastbound and westbound inner-lane stop
        // lines (the paper's orange trucks).
        for approach in [Approach::East, Approach::West] {
            let r = map.route(RouteSpec {
                approach,
                lane: 0,
                turn: Turn::Straight,
            });
            let start = r.stop_line_s - 5.0;
            let t = world.spawn_vehicle(r, start, 0.0, VehicleParams::truck());
            world.vehicle_mut(t).unwrap().parked = true;
        }

        let flowing = [
            (Approach::North, 0, Turn::Straight, ego_start),
            (Approach::East, 1, Turn::Straight, hazard_start),
        ];
        let budget = config.n_vehicles.saturating_sub(4);
        Self::fill_background(map, world, rng, speed, budget, &flowing, None);
        // The hazard's own followers stop at the light (only the hazard
        // runs it).
        let hazard_lane = map.lane_id(Approach::East, 1);
        let follower_ids: Vec<u64> = world
            .vehicles()
            .iter()
            .filter(|v| {
                v.id != hazard
                    && v.route.spec.approach == Approach::East
                    && v.route.spec.lane == 1
            })
            .map(|v| v.id)
            .collect();
        let _ = hazard_lane;
        for id in follower_ids {
            world.vehicle_mut(id).unwrap().hold_at_stop_line = true;
        }
        Self::spawn_pedestrians(config, map, world, rng, Approach::West);
        Self::assign_connectivity(config, world, rng, ego, hazard);

        Scenario {
            world: std::mem::replace(world, World::new(map.clone())),
            ego,
            hazard,
            bystander: None,
            config,
            conflict_point,
        }
    }

    /// The Fig. 1 / Fig. 8(a) demo: ego `B` drives straight, pedestrian `p`
    /// crosses the far-side crosswalk behind the stalled truck `D`; the
    /// oncoming connected vehicle `E` can see `p`; vehicle `A` turns left
    /// and never conflicts with `p`.
    fn build_demo(config: ScenarioConfig, map: &IntersectionMap, world: &mut World) -> Scenario {
        let speed = config.speed_kmh / 3.6;
        // Ego B: eastbound through, connected.
        let b_route = map.route(RouteSpec {
            approach: Approach::East,
            lane: 0,
            turn: Turn::Straight,
        });
        // Pedestrian p: crossing the east arm (the far side for B) from the
        // south — the side the stalled truck hides.
        let p_path = map.crosswalk_path(Approach::West, false);
        // Time B and p to meet: B crosses the east-arm crosswalk at
        // s ≈ stop_line + box + half crosswalk.
        let b_conflict_s = b_route.stop_line_s + 2.0 * map.half_size() + 1.5;
        let b_start = (b_conflict_s - speed * config.time_to_conflict).max(0.0);
        let ego = world.spawn_vehicle(b_route, b_start, speed, VehicleParams::car());
        world.vehicle_mut(ego).unwrap().connected = true;
        // p walks from the south side; the crosswalk path starts at
        // y = -(half+2) heading north; B drives at y = -1.75, reached after
        // ~(half + 2 - 1.75) m of walking.
        // The pedestrian walks briskly so that its emergence from behind
        // the truck leaves less warning than the ego's braking needs —
        // without dissemination the collision is unavoidable, exactly as in
        // the paper's demo.
        let p_conflict_s = map.half_size() + 2.0 - 1.75;
        let ped_speed = (p_conflict_s / config.time_to_conflict).clamp(1.2, 2.5);
        let p_start = (p_conflict_s - ped_speed * config.time_to_conflict).max(0.0);
        let hazard = world.spawn_pedestrian(p_path, p_start, ped_speed);

        // Truck D: stalled in the eastbound outer lane inside the box,
        // blocking B's view of p.
        let d_route = map.route(RouteSpec {
            approach: Approach::East,
            lane: 1,
            turn: Turn::Straight,
        });
        for offset in [1.0, 9.0] {
            let d = world.spawn_vehicle(
                d_route.clone(),
                d_route.stop_line_s + offset,
                0.0,
                VehicleParams::truck(),
            );
            world.vehicle_mut(d).unwrap().parked = true;
        }

        // Vehicle A: eastbound inner lane ahead of B, turning left — p is
        // irrelevant to it.
        let a_route = map.route(RouteSpec {
            approach: Approach::East,
            lane: 0,
            turn: Turn::Left,
        });
        let a = world.spawn_vehicle(a_route, b_start + 25.0, speed, VehicleParams::car());
        world.vehicle_mut(a).unwrap().connected = true;

        // Vehicle E: oncoming westbound, connected, sees p.
        let e_route = map.route(RouteSpec {
            approach: Approach::West,
            lane: 0,
            turn: Turn::Straight,
        });
        let e = world.spawn_vehicle(e_route.clone(), e_route.stop_line_s - 25.0, speed * 0.6, VehicleParams::car());
        world.vehicle_mut(e).unwrap().connected = true;

        let conflict_point = Vec2::new(map.half_size() + 1.5, -1.75);
        Scenario {
            world: std::mem::replace(world, World::new(map.clone())),
            ego,
            hazard,
            bystander: Some(a),
            config,
            conflict_point,
        }
    }

    /// Fills the remaining vehicle budget with queues and platoons.
    fn fill_background(
        map: &IntersectionMap,
        world: &mut World,
        rng: &mut StdRng,
        speed: f64,
        budget: usize,
        flowing: &[(Approach, usize, Turn, f64)],
        queued_behind: Option<(Approach, usize, f64)>,
    ) -> Vec<u64> {
        let mut spawned = Vec::new();
        let mut remaining = budget;
        // Queue cursors per lane: next spawn arc length.
        // mode: 0 = flowing, 1 = held at the red signal, 2 = stopped queue
        let mut cursors: Vec<(Approach, usize, Turn, f64, u8)> = Vec::new();
        for &(approach, lane, turn, start) in flowing {
            cursors.push((approach, lane, turn, start, 0));
        }
        if let Some((approach, lane, start)) = queued_behind {
            // A lane blocked by a parked truck: its queue starts stopped.
            cursors.push((approach, lane, Turn::Straight, start, 2));
        }
        for approach in Approach::ALL {
            for lane in 0..map.lanes_per_dir() {
                let covered = cursors.iter().any(|&(a, l, _, _, _)| a == approach && l == lane);
                if !covered {
                    let r = map.route(RouteSpec {
                        approach,
                        lane,
                        turn: Turn::Straight,
                    });
                    // Held queues start near the stop line.
                    cursors.push((approach, lane, Turn::Straight, r.stop_line_s - 8.0, 1));
                }
            }
        }
        // Round-robin spawn behind each cursor until the budget is spent.
        let mut i = 0;
        let mut stall = 0;
        while remaining > 0 && stall < cursors.len() {
            let (approach, lane, turn, next_s, mode) = cursors[i % cursors.len()];
            i += 1;
            // Spacing: flowing platoons keep a speed-dependent headway (no
            // closing speed, so braking distance is not needed); stopped
            // queues pack tightly.
            let gap = if mode == 0 {
                13.0 + speed * 0.5 + rng.gen_range(0.0..6.0)
            } else {
                7.0 + rng.gen_range(0.0..3.0)
            };
            let s = next_s - gap;
            if s < 5.0 {
                stall += 1;
                continue;
            }
            stall = 0;
            let idx = (i - 1) % cursors.len();
            cursors[idx].3 = s;
            let route = map.route(RouteSpec { approach, lane, turn });
            let id = world.spawn_vehicle(route, s, speed, VehicleParams::car());
            let v = world.vehicle_mut(id).unwrap();
            if mode == 1 {
                v.hold_at_stop_line = true;
            }
            if mode != 0 {
                v.speed = 0.0;
            }
            spawned.push(id);
            remaining -= 1;
        }
        spawned
    }

    fn spawn_pedestrians(
        config: ScenarioConfig,
        map: &IntersectionMap,
        world: &mut World,
        rng: &mut StdRng,
        arm: Approach,
    ) {
        for k in 0..config.n_pedestrians {
            let forward = k % 2 == 0;
            let path = map.sidewalk_path(arm, forward);
            let start = rng.gen_range(0.0..path.length() * 0.6);
            let speed = rng.gen_range(1.1..1.5);
            world.spawn_pedestrian(path, start, speed);
        }
    }

    /// Randomly marks background vehicles connected until the configured
    /// fraction of all vehicles is reached. The ego is always connected;
    /// the hazard never is.
    fn assign_connectivity(
        config: ScenarioConfig,
        world: &mut World,
        rng: &mut StdRng,
        ego: u64,
        hazard: u64,
    ) {
        let total = world.vehicles().len();
        let quota = ((total as f64 * config.connected_fraction).round() as usize).max(1);
        let mut connected = 1; // the ego
        let mut candidates: Vec<u64> = world
            .vehicles()
            .iter()
            .filter(|v| v.id != ego && v.id != hazard && !v.parked)
            .map(|v| v.id)
            .collect();
        // Fisher-Yates shuffle with the scenario RNG.
        for i in (1..candidates.len()).rev() {
            let j = rng.gen_range(0..=i);
            candidates.swap(i, j);
        }
        for id in candidates {
            if connected >= quota {
                break;
            }
            world.vehicle_mut(id).unwrap().connected = true;
            connected += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(kind: ScenarioKind) -> ScenarioConfig {
        ScenarioConfig {
            kind,
            seed: 7,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn left_turn_spawns_the_cast() {
        let s = Scenario::build(cfg(ScenarioKind::UnprotectedLeftTurn));
        assert_eq!(s.world.vehicles().len(), 40);
        assert_eq!(s.world.pedestrians().len(), 12);
        assert_eq!(s.world.buildings().len(), 4);
        assert!(s.world.vehicle(s.ego).unwrap().connected);
        assert!(!s.world.vehicle(s.hazard).unwrap().connected);
        // Roughly the configured fraction is connected.
        let n_conn = s.world.vehicles().iter().filter(|v| v.connected).count();
        assert!((n_conn as f64 - 12.0).abs() <= 2.0, "connected = {n_conn}");
    }

    #[test]
    fn left_turn_collides_without_intervention() {
        let mut s = Scenario::build(cfg(ScenarioKind::UnprotectedLeftTurn));
        let mut collided = false;
        for _ in 0..200 {
            s.world.step();
            if s.world
                .collisions()
                .iter()
                .any(|&(a, b)| (a == s.ego || b == s.ego) && (a == s.hazard || b == s.hazard))
            {
                collided = true;
                break;
            }
        }
        assert!(collided, "the scripted conflict must be inevitable");
    }

    #[test]
    fn left_turn_hazard_occluded_from_ego_at_start() {
        let s = Scenario::build(cfg(ScenarioKind::UnprotectedLeftTurn));
        let frame = s.world.scan_vehicle(s.ego).unwrap();
        assert!(
            !frame.visible_ids.contains(&s.hazard),
            "hazard must be hidden from the ego at spawn"
        );
    }

    #[test]
    fn left_turn_some_connected_vehicle_sees_hazard() {
        let mut s = Scenario::build(cfg(ScenarioKind::UnprotectedLeftTurn));
        // Within the first couple of seconds, at least one connected
        // vehicle must be able to observe the hazard so the server can
        // learn about it.
        let mut seen = false;
        for _ in 0..30 {
            for frame in s.world.scan_connected() {
                if frame.visible_ids.contains(&s.hazard) {
                    seen = true;
                }
            }
            if seen {
                break;
            }
            s.world.step();
        }
        assert!(seen, "no connected vehicle ever saw the hazard");
    }

    #[test]
    fn red_light_collides_without_intervention() {
        let mut s = Scenario::build(cfg(ScenarioKind::RedLightViolation));
        let mut collided = false;
        for _ in 0..200 {
            s.world.step();
            if s.world
                .collisions()
                .iter()
                .any(|&(a, b)| (a == s.ego || b == s.ego) && (a == s.hazard || b == s.hazard))
            {
                collided = true;
                break;
            }
        }
        assert!(collided, "red-light conflict must be inevitable");
    }

    #[test]
    fn red_light_hazard_occluded_from_ego_at_start() {
        let s = Scenario::build(cfg(ScenarioKind::RedLightViolation));
        let frame = s.world.scan_vehicle(s.ego).unwrap();
        assert!(!frame.visible_ids.contains(&s.hazard));
    }

    #[test]
    fn alerted_ego_avoids_left_turn_collision() {
        let mut s = Scenario::build(cfg(ScenarioKind::UnprotectedLeftTurn));
        for _ in 0..250 {
            s.world.alert(s.ego); // oracle dissemination every frame
            s.world.step();
        }
        let pair_collided = s
            .world
            .collisions()
            .iter()
            .any(|&(a, b)| (a == s.ego || b == s.ego) && (a == s.hazard || b == s.hazard));
        assert!(!pair_collided, "alerted ego must avoid the hazard");
    }

    #[test]
    fn demo_casts_fig1_roles() {
        let s = Scenario::build(cfg(ScenarioKind::OccludedPedestrian));
        // p exists and is hidden from B but visible to some connected car.
        assert!(s.world.pedestrian(s.hazard).is_some());
        let ego_frame = s.world.scan_vehicle(s.ego).unwrap();
        assert!(
            !ego_frame.visible_ids.contains(&s.hazard),
            "pedestrian must be hidden from B"
        );
        let seen_by_other = s
            .world
            .scan_connected()
            .iter()
            .filter(|f| f.vehicle_id != s.ego)
            .any(|f| f.visible_ids.contains(&s.hazard));
        assert!(seen_by_other, "E must see the pedestrian");
        assert!(s.bystander.is_some());
    }

    #[test]
    fn demo_collides_without_intervention() {
        let mut s = Scenario::build(cfg(ScenarioKind::OccludedPedestrian));
        let mut hit = false;
        for _ in 0..200 {
            s.world.step();
            if s.world
                .collisions()
                .iter()
                .any(|&(a, b)| a == s.ego && b == s.hazard)
            {
                hit = true;
                break;
            }
        }
        assert!(hit, "B must hit p without dissemination");
    }

    #[test]
    fn seeds_change_background_but_not_protagonists() {
        let a = Scenario::build(ScenarioConfig {
            seed: 1,
            ..cfg(ScenarioKind::UnprotectedLeftTurn)
        });
        let b = Scenario::build(ScenarioConfig {
            seed: 2,
            ..cfg(ScenarioKind::UnprotectedLeftTurn)
        });
        assert_eq!(a.ego, b.ego);
        assert_eq!(a.hazard, b.hazard);
        assert_eq!(a.conflict_point, b.conflict_point);
        // Connectivity assignment differs.
        let conn = |s: &Scenario| -> Vec<u64> {
            s.world
                .vehicles()
                .iter()
                .filter(|v| v.connected)
                .map(|v| v.id)
                .collect()
        };
        assert_ne!(conn(&a), conn(&b));
    }

    #[test]
    fn same_seed_is_reproducible() {
        let a = Scenario::build(cfg(ScenarioKind::RedLightViolation));
        let b = Scenario::build(cfg(ScenarioKind::RedLightViolation));
        assert_eq!(a.world.vehicles().len(), b.world.vehicles().len());
        for (va, vb) in a.world.vehicles().iter().zip(b.world.vehicles()) {
            assert_eq!(va.id, vb.id);
            assert_eq!(va.s, vb.s);
            assert_eq!(va.connected, vb.connected);
        }
    }

    #[test]
    fn speed_scales_spawn_distance() {
        let slow = Scenario::build(ScenarioConfig {
            speed_kmh: 20.0,
            ..cfg(ScenarioKind::UnprotectedLeftTurn)
        });
        let fast = Scenario::build(ScenarioConfig {
            speed_kmh: 40.0,
            ..cfg(ScenarioKind::UnprotectedLeftTurn)
        });
        let d = |s: &Scenario| s.world.vehicle(s.ego).unwrap().position().distance(s.conflict_point);
        assert!(d(&fast) > d(&slow) * 1.5);
    }
}
