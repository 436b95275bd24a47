//! Vehicle agents: route following, car following, and the driver-reaction
//! model of the paper's safety evaluation.
//!
//! The paper uses CARLA's default controller plus "a simple logic to
//! simulate human drivers' reactions to possible collisions: vehicles
//! decelerate one second after receiving the disseminated perception data"
//! (§IV-C1). [`Vehicle::alert`] implements exactly that: the first alert
//! arms a brake that engages after the reaction time and stays engaged
//! while alerts keep arriving.

use crate::Route;
use erpd_geometry::{Obb2, Pose2, Vec2};

/// Physical and behavioural parameters of a vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleParams {
    /// Footprint length, metres.
    pub length: f64,
    /// Footprint width, metres.
    pub width: f64,
    /// Body height (for LiDAR point synthesis), metres.
    pub height: f64,
    /// Maximum acceleration, m/s².
    pub accel: f64,
    /// Braking deceleration used on alerts and for car following, m/s².
    pub brake_decel: f64,
    /// LiDAR mounting height above ground, metres.
    pub sensor_height: f64,
    /// Minimum standstill gap to a leader, metres.
    pub min_gap: f64,
    /// Desired time headway for car following, seconds.
    pub headway: f64,
}

impl VehicleParams {
    /// A typical passenger car.
    pub fn car() -> Self {
        VehicleParams {
            length: 4.5,
            width: 1.8,
            height: 1.5,
            accel: 2.5,
            brake_decel: 6.0,
            sensor_height: 1.8,
            min_gap: 2.0,
            headway: 1.2,
        }
    }

    /// A box truck — longer, taller, the paper's occluder.
    pub fn truck() -> Self {
        VehicleParams {
            length: 8.0,
            width: 2.5,
            height: 3.5,
            accel: 1.5,
            brake_decel: 5.0,
            sensor_height: 3.0,
            min_gap: 3.0,
            headway: 1.8,
        }
    }
}

/// A vehicle in the simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Vehicle {
    /// Unique id within the world.
    pub id: u64,
    /// The route the vehicle follows.
    pub route: Route,
    /// Arc length along the route, metres.
    pub s: f64,
    /// Current speed, m/s.
    pub speed: f64,
    /// Cruise speed when unobstructed, m/s.
    pub target_speed: f64,
    /// Physical parameters.
    pub params: VehicleParams,
    /// True when this vehicle uploads LiDAR data and can receive
    /// disseminations.
    pub connected: bool,
    /// True for permanently stationary vehicles (parked occluders).
    pub parked: bool,
    /// True while the vehicle must queue at its stop line (red signal).
    pub hold_at_stop_line: bool,
    /// False for a distracted/reckless driver who never reacts to hazards
    /// their own eyes could see (disseminated alerts still work — the HUD
    /// warning is what snaps them out of it). The scripted scenario
    /// hazards drive like this.
    pub attentive: bool,
    /// Set once the vehicle has been in a collision (it then stops).
    pub collided: bool,
    /// When the armed brake engages (first alert time + reaction time).
    reaction_at: Option<f64>,
    /// Alerts remain in force until this time.
    alert_until: f64,
}

impl Vehicle {
    /// Creates a vehicle at the start of its route (or `start_s` metres in).
    pub fn new(id: u64, route: Route, start_s: f64, target_speed: f64, params: VehicleParams) -> Self {
        Vehicle {
            id,
            route,
            s: start_s,
            speed: target_speed,
            target_speed,
            params,
            connected: false,
            parked: false,
            hold_at_stop_line: false,
            attentive: true,
            collided: false,
            reaction_at: None,
            alert_until: f64::NEG_INFINITY,
        }
    }

    /// Current pose (position on the route centreline, heading along it).
    pub fn pose(&self) -> Pose2 {
        Pose2::new(
            self.route.path.point_at(self.s),
            self.route.path.heading_at(self.s),
        )
    }

    /// Planar position.
    pub fn position(&self) -> Vec2 {
        self.route.path.point_at(self.s)
    }

    /// Velocity vector.
    pub fn velocity(&self) -> Vec2 {
        Vec2::from_angle(self.route.path.heading_at(self.s)) * self.speed
    }

    /// Oriented footprint for collision/occlusion tests.
    pub fn footprint(&self) -> Obb2 {
        Obb2::new(self.pose(), self.params.length, self.params.width)
    }

    /// True when the route is fully driven.
    pub fn finished(&self) -> bool {
        self.s >= self.route.path.length() - 1e-6
    }

    /// Delivers an alert (disseminated data or the onboard ADAS) at time
    /// `now`: the driver starts braking `reaction_time` seconds after the
    /// first alert of a burst and keeps braking while alerts keep arriving
    /// within `hold` seconds. A hazard that stays visible keeps refreshing
    /// the window through [`crate::World`]'s self-sensing, so the brake
    /// holds exactly as long as a conflict actually persists.
    pub fn alert(&mut self, now: f64, reaction_time: f64, hold: f64) {
        let fresh = now + reaction_time;
        self.reaction_at = Some(match self.reaction_at {
            // Still within (or just past) the previous window: keep the
            // earlier engagement; a faster-reaction source (the HUD alert
            // vs. unaided sight) may pull it in but never push it out.
            Some(t) if now <= self.alert_until + 0.5 => t.min(fresh),
            _ => fresh,
        });
        self.alert_until = self.alert_until.max(now + hold);
    }

    /// True when the alert brake is currently engaged.
    pub(crate) fn braking_on_alert(&self, now: f64) -> bool {
        self.reaction_at.is_some_and(|t| now >= t) && now <= self.alert_until
    }

    /// Advances the vehicle by `dt`. `leader` is the bumper gap and speed of
    /// the closest vehicle ahead in the same lane corridor, if any.
    pub fn step(&mut self, now: f64, dt: f64, leader: Option<(f64, f64)>) {
        if self.parked || self.collided {
            self.speed = 0.0;
            return;
        }
        // The alert window has lapsed with no refresh: the conflict is
        // over, disarm.
        if now > self.alert_until + 0.5 {
            self.reaction_at = None;
        }

        // An alert received but not yet acted on: the driver lifts off the
        // throttle immediately and brakes once the reaction time elapses.
        let alert_pending =
            self.reaction_at.is_some_and(|t| now < t) && now <= self.alert_until;
        let accel = if self.braking_on_alert(now) {
            -self.params.brake_decel
        } else {
            // Free-road acceleration toward the target speed...
            let cap = if alert_pending { 0.0 } else { self.params.accel };
            let mut a = (self.target_speed - self.speed).clamp(-self.params.brake_decel, cap);
            // ...capped by car following: keep a safe speed for the gap.
            if let Some((gap, leader_speed)) = leader {
                let eff_gap = (gap - self.params.min_gap).max(0.0);
                // Safe speed: can shed (v - v_leader) within the gap at
                // brake_decel, plus maintain the time headway.
                let v_headway = eff_gap / self.params.headway;
                let v_brake = (leader_speed * leader_speed
                    + 2.0 * self.params.brake_decel * eff_gap)
                    .max(0.0)
                    .sqrt();
                let v_safe = v_headway.max(leader_speed.min(v_brake)).min(v_brake);
                let a_follow = (v_safe - self.speed) / dt.max(1e-6);
                a = a.min(a_follow.clamp(-self.params.brake_decel, cap));
            }
            a
        };
        self.speed = (self.speed + accel * dt).max(0.0);
        self.s = (self.s + self.speed * dt).min(self.route.path.length());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Approach, IntersectionMap, RouteSpec, Turn};

    fn straight_route() -> Route {
        IntersectionMap::default().route(RouteSpec {
            approach: Approach::East,
            lane: 0,
            turn: Turn::Straight,
        })
    }

    fn car(speed: f64) -> Vehicle {
        Vehicle::new(1, straight_route(), 0.0, speed, VehicleParams::car())
    }

    #[test]
    fn cruises_at_target_speed() {
        let mut v = car(10.0);
        for i in 0..50 {
            v.step(i as f64 * 0.1, 0.1, None);
        }
        assert!((v.speed - 10.0).abs() < 1e-9);
        assert!((v.s - 50.0).abs() < 0.5);
    }

    #[test]
    fn accelerates_from_standstill() {
        let mut v = car(10.0);
        v.speed = 0.0;
        for i in 0..100 {
            v.step(i as f64 * 0.1, 0.1, None);
        }
        assert!((v.speed - 10.0).abs() < 0.1);
    }

    #[test]
    fn alert_brakes_after_reaction_time() {
        let mut v = car(10.0);
        v.alert(0.0, 1.0, 0.5);
        // During the reaction second the vehicle keeps cruising...
        for i in 0..10 {
            let now = i as f64 * 0.1;
            if i > 0 {
                v.alert(now, 1.0, 0.5); // alerts keep arriving each frame
            }
            v.step(now, 0.1, None);
        }
        assert!((v.speed - 10.0).abs() < 1e-6, "speed = {}", v.speed);
        // ...then brakes hard.
        for i in 10..40 {
            let now = i as f64 * 0.1;
            v.alert(now, 1.0, 0.5);
            v.step(now, 0.1, None);
        }
        assert!(v.speed < 0.1, "speed after braking = {}", v.speed);
    }

    #[test]
    fn short_blip_before_reaction_never_brakes() {
        // An alert burst that lapses before the reaction time elapses is a
        // false alarm: the driver never brakes (a persisting hazard keeps
        // the window open via re-alerts instead).
        let mut v = car(10.0);
        for i in 0..3 {
            let now = i as f64 * 0.1;
            v.alert(now, 1.0, 0.35);
            v.step(now, 0.1, None);
        }
        for i in 3..40 {
            v.step(i as f64 * 0.1, 0.1, None);
        }
        assert!((v.speed - 10.0).abs() < 1e-6, "v = {}", v.speed);
    }

    #[test]
    fn sustained_alerts_brake_to_stop() {
        let mut v = car(10.0);
        for i in 0..40 {
            let now = i as f64 * 0.1;
            v.alert(now, 1.0, 0.35);
            v.step(now, 0.1, None);
        }
        assert!(v.speed < 0.1, "sustained conflict must stop the car, v = {}", v.speed);
    }

    #[test]
    fn resumes_after_stop_and_quiet_period() {
        let mut v = car(10.0);
        for i in 0..30 {
            let now = i as f64 * 0.1;
            v.alert(now, 0.5, 0.3);
            v.step(now, 0.1, None);
        }
        // Keep stepping with no further alerts: stop, wait out the quiet
        // period, then accelerate again.
        for i in 30..120 {
            v.step(i as f64 * 0.1, 0.1, None);
        }
        assert!(v.speed > 8.0, "vehicle should eventually resume, v = {}", v.speed);
    }

    #[test]
    fn follows_leader_without_rear_ending() {
        // Leader fixed at s=40 standing still; follower approaches.
        let mut v = car(13.0);
        for i in 0..200 {
            let now = i as f64 * 0.1;
            let gap = 40.0 - v.s - v.params.length; // bumper gap to stopped leader
            v.step(now, 0.1, Some((gap.max(0.0), 0.0)));
        }
        // Stopped before the leader.
        assert!(v.speed < 0.2, "speed = {}", v.speed);
        assert!(v.s < 40.0 - v.params.length, "s = {}", v.s);
        assert!(v.s > 25.0, "should get reasonably close, s = {}", v.s);
    }

    #[test]
    fn parked_vehicle_never_moves() {
        let mut v = car(10.0);
        v.parked = true;
        v.step(0.0, 0.1, None);
        assert_eq!(v.speed, 0.0);
        assert_eq!(v.s, 0.0);
    }

    #[test]
    fn collided_vehicle_stops() {
        let mut v = car(10.0);
        v.collided = true;
        v.step(0.0, 0.1, None);
        assert_eq!(v.speed, 0.0);
    }

    #[test]
    fn finished_at_route_end() {
        let mut v = car(15.0);
        assert!(!v.finished());
        v.s = v.route.path.length();
        assert!(v.finished());
    }

    #[test]
    fn pose_follows_route_heading() {
        let v = car(10.0);
        let pose = v.pose();
        assert!(pose.heading().abs() < 1e-9); // eastbound
        assert!((v.velocity() - Vec2::new(10.0, 0.0)).norm() < 1e-9);
        assert!(v.footprint().contains(pose.position));
    }

    #[test]
    fn truck_params_are_bigger() {
        let t = VehicleParams::truck();
        let c = VehicleParams::car();
        assert!(t.length > c.length);
        assert!(t.height > c.height);
    }
}
