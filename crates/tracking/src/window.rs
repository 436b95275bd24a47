//! When two predicted bodies can be near each other at the same instant.
//!
//! A predicted trajectory is piecewise linear in time: the body moves along
//! its path at constant speed, so it reaches vertex `i` at `arc_length_i /
//! speed`, and it stays at the last vertex once the path runs out (a
//! stationary body stays put). Merged over both bodies' vertex times, two
//! such motions are linear relative to each other on every piece, where
//! the squared distance between the bodies is a quadratic in time.
//! [`PredictedTrajectory::proximity_windows`] solves it piece by piece.

use crate::{PredictedTrajectory, HORIZON};
use erpd_geometry::Vec2;

/// A stretch of time during which two bodies are within some reach of each
/// other, with both bodies' linear motion over it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProximityWindow {
    /// When the window opens, seconds.
    pub start: f64,
    /// When the window closes, seconds (not before `start`).
    pub end: f64,
    /// The first body's position at `start`.
    pub a: Vec2,
    /// The first body's velocity over the window, m/s.
    pub a_velocity: Vec2,
    /// The second body's position at `start`.
    pub b: Vec2,
    /// The second body's velocity over the window, m/s.
    pub b_velocity: Vec2,
}

impl ProximityWindow {
    /// Whether both bodies are within `radius` of `point` at one common
    /// instant of the window: the instants at which each of them is are
    /// two intervals, and they must meet.
    pub fn both_within(&self, point: Vec2, radius: f64) -> bool {
        let span = self.end - self.start;
        match (
            within(self.a - point, self.a_velocity, radius, span),
            within(self.b - point, self.b_velocity, radius, span),
        ) {
            (Some((a0, a1)), Some((b0, b1))) => a0.max(b0) <= a1.min(b1),
            _ => false,
        }
    }
}

/// The offsets `s ∈ [0, span]` at which `|d + v·s| ≤ r`, if any.
///
/// The closest approach over the span is tested first, without dividing or
/// branching: one of the two ends, or the foot of the perpendicular when
/// it falls inside the span (miss `|d × v| / |v|`). Only a pass is solved,
/// about the closest approach `s* = −d·v / |v|²` — the miss vector there
/// is computed directly, not as a difference of large squares, so the
/// bounds carry rounding of the order of the inputs' own. Anything not
/// finite along the way (a velocity too small to divide by) widens the
/// answer to the whole span rather than losing it.
fn within(d: Vec2, v: Vec2, r: f64, span: f64) -> Option<(f64, f64)> {
    let (rr, vv, dv) = (r * r, v.norm_squared(), d.dot(v));
    let miss = d.cross(v);
    let near = (d.norm_squared() <= rr)
        | ((d + v * span).norm_squared() <= rr)
        | ((dv < 0.0) & (-dv < vv * span) & (miss * miss <= rr * vv));
    if !near {
        return None;
    }
    if vv == 0.0 {
        return Some((0.0, span));
    }
    let closest = -dv / vv;
    let slack = rr - (d + v * closest).norm_squared();
    if slack < 0.0 {
        return None;
    }
    let half = (slack / vv).sqrt();
    let (lo, hi) = ((closest - half).max(0.0), (closest + half).min(span));
    (lo <= hi).then_some((lo, hi))
}

/// A picosecond. Starting a piece that early moves the body by its speed
/// times the tick — a nanometre at 1 km/s.
const TICK: f64 = 1e-12;

/// One body's motion, one linear piece at a time.
struct Motion<'a> {
    points: &'a [Vec2],
    arc_lengths: &'a [f64],
    velocities: &'a [Vec2],
    /// Seconds per metre of path: `1 / speed`.
    pace: f64,
    /// The vertex the piece in force starts from, plus one.
    next: usize,
    /// The piece in force: the body is at `origin` at time `from` and moves
    /// at `velocity` until time `until`.
    from: f64,
    until: f64,
    origin: Vec2,
    velocity: Vec2,
}

impl<'a> Motion<'a> {
    fn new(trajectory: &'a PredictedTrajectory) -> Self {
        let mut motion = Motion {
            points: &[],
            arc_lengths: &[],
            velocities: &[],
            pace: 0.0,
            next: 0,
            from: 0.0,
            until: f64::INFINITY,
            origin: trajectory.position_at(0.0),
            velocity: Vec2::ZERO,
        };
        if let Some(path) = trajectory.path() {
            motion.points = path.points();
            motion.arc_lengths = path.arc_lengths();
            motion.velocities = trajectory.velocities();
            motion.pace = 1.0 / trajectory.speed();
            motion.until = 0.0;
            motion.advance(0.0);
        }
        motion
    }

    /// Moves on to the piece in force just after `t`. A vertex less than
    /// [`TICK`] ahead counts as reached: two bodies predicted on one time
    /// step reach their vertices at the same instant up to rounding, and
    /// without the tick every such instant would cut a sliver piece.
    fn advance(&mut self, t: f64) {
        while self.until <= t + TICK {
            let i = self.next;
            self.next += 1;
            self.origin = self.points[i];
            self.from = self.arc_lengths[i] * self.pace;
            match self.velocities.get(i) {
                Some(&velocity) => {
                    self.until = self.arc_lengths[i + 1] * self.pace;
                    self.velocity = velocity;
                }
                None => {
                    // The path ran out: the body stays at its last vertex.
                    self.until = f64::INFINITY;
                    self.velocity = Vec2::ZERO;
                }
            }
        }
    }

    fn at(&self, t: f64) -> Vec2 {
        self.origin + self.velocity * (t - self.from)
    }
}

impl PredictedTrajectory {
    /// Fills `out` with the windows of `[0, T]` — `T` the prediction
    /// [`HORIZON`] — during which this body and `other`'s are within
    /// `reach` of each other, in time order, one per linear piece of their
    /// joint motion (a window spanning a vertex comes in two abutting
    /// parts). Allocates nothing once `out` has grown.
    ///
    /// The walk is exact to about a nanometre — rounding a few kilometres
    /// out, and vertices a picosecond apart taken as one at a kilometre per
    /// second: a caller who needs "no window" to prove that the bodies
    /// never come within `r` adds a margin far above that to `r`
    /// (`erpd-core` adds [`erpd_geometry::REJECT_MARGIN`]).
    pub fn proximity_windows(
        &self,
        other: &PredictedTrajectory,
        reach: f64,
        out: &mut Vec<ProximityWindow>,
    ) {
        out.clear();
        let (mut a, mut b) = (Motion::new(self), Motion::new(other));
        let mut t = 0.0;
        while t < HORIZON {
            let end = a.until.min(b.until).min(HORIZON);
            let (pa, pb) = (a.at(t), b.at(t));
            if let Some((lo, hi)) = within(pa - pb, a.velocity - b.velocity, reach, end - t) {
                let start = t + lo;
                out.push(ProximityWindow {
                    start,
                    end: t + hi,
                    a: a.at(start),
                    a_velocity: a.velocity,
                    b: b.at(start),
                    b_velocity: b.velocity,
                });
            }
            t = end;
            a.advance(t);
            b.advance(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{predict_ctrv, ObjectId, ObjectKind};
    use erpd_geometry::Polyline2;
    use erpd_rand::rngs::StdRng;
    use erpd_rand::{RngCore, SeedableRng};
    use std::f64::consts::{FRAC_PI_2, PI};

    fn ctrv(at: Vec2, speed: f64, heading: f64, turn_rate: f64) -> PredictedTrajectory {
        predict_ctrv(
            ObjectId(1),
            ObjectKind::Vehicle,
            at,
            speed,
            heading,
            turn_rate,
            4.5,
        )
    }

    fn windows(
        a: &PredictedTrajectory,
        b: &PredictedTrajectory,
        reach: f64,
    ) -> Vec<ProximityWindow> {
        let mut out = vec![ProximityWindow {
            start: -1.0,
            end: -1.0,
            a: Vec2::ZERO,
            a_velocity: Vec2::ZERO,
            b: Vec2::ZERO,
            b_velocity: Vec2::ZERO,
        }];
        a.proximity_windows(b, reach, &mut out);
        out
    }

    #[test]
    fn head_on_bodies_meet_in_one_window() {
        // 100 m apart, closing at 20 m/s: within 10 m from 4.5 s to 5.5 s,
        // cut at the 5 s horizon.
        let a = ctrv(Vec2::ZERO, 10.0, 0.0, 0.0);
        let b = ctrv(Vec2::new(100.0, 0.0), 10.0, PI, 0.0);
        let w = windows(&a, &b, 10.0);
        assert!(!w.is_empty());
        assert!((w[0].start - 4.5).abs() < 1e-9, "{w:?}");
        assert!((w.last().unwrap().end - 5.0).abs() < 1e-12);
        assert!((w[0].a - Vec2::new(45.0, 0.0)).norm() < 1e-9);
        assert!((w[0].b - Vec2::new(55.0, 0.0)).norm() < 1e-9);
        // Abutting parts, one per 0.25 s piece.
        for pair in w.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        // Twice as far apart, they never get that close inside 5 s.
        let far = ctrv(Vec2::new(200.0, 0.0), 10.0, PI, 0.0);
        assert!(windows(&a, &far, 10.0).is_empty());
    }

    #[test]
    fn stationary_bodies_and_paths_that_run_out() {
        let parked = PredictedTrajectory::stationary(
            ObjectId(2),
            ObjectKind::Pedestrian,
            Vec2::new(30.0, 3.0),
            0.6,
        );
        // A 20 m route at 10 m/s ends at (20, 0) after 2 s and stays there.
        let route = Polyline2::new(vec![Vec2::ZERO, Vec2::new(20.0, 0.0)]).unwrap();
        let short =
            PredictedTrajectory::from_path(ObjectId(3), ObjectKind::Vehicle, route, 10.0, 4.5);
        assert!(
            windows(&short, &parked, 10.0).is_empty(),
            "stops 10.4 m short"
        );
        let w = windows(&short, &parked, 11.0);
        assert!(!w.is_empty());
        assert_eq!(w.last().unwrap().end, HORIZON, "parked side by side");
        assert_eq!(w.last().unwrap().a_velocity, Vec2::ZERO);
        // Two parked bodies: the whole horizon or nothing.
        let other = PredictedTrajectory::stationary(
            ObjectId(4),
            ObjectKind::Pedestrian,
            Vec2::new(30.0, 0.0),
            0.6,
        );
        let w = windows(&parked, &other, 3.0);
        assert_eq!((w.len(), w[0].start, w[0].end), (1, 0.0, HORIZON));
        assert!(windows(&parked, &other, 2.9).is_empty());
    }

    #[test]
    fn both_within_needs_one_common_instant() {
        // Perpendicular crossing at the origin: a passes at t = 2 s, b at
        // t = 2 s (same instant) or t = 3 s (a second later).
        let a = ctrv(Vec2::new(-20.0, 0.0), 10.0, 0.0, 0.0);
        let sync = ctrv(Vec2::new(0.0, -20.0), 10.0, FRAC_PI_2, 0.0);
        let late = ctrv(Vec2::new(0.0, -30.0), 10.0, FRAC_PI_2, 0.0);
        let any = |w: &[ProximityWindow], r: f64| w.iter().any(|w| w.both_within(Vec2::ZERO, r));
        assert!(any(&windows(&a, &sync, 20.0), 4.5));
        // Each of a and `late` is within 4.5 m of the origin for 0.9 s,
        // but those 0.9 s are a second apart.
        let w = windows(&a, &late, 20.0);
        assert!(!w.is_empty());
        assert!(!any(&w, 4.5));
        assert!(any(&w, 5.5), "at 5.5 m the two 1.1 s stays overlap");
    }

    #[test]
    fn windows_hold_exactly_the_close_instants() {
        // Orbiting scribbles against each other: sampled every millisecond,
        // an instant clearly inside the reach lies in a window and one
        // clearly outside lies in none.
        let mut rng = StdRng::seed_from_u64(7);
        let mut unit = || rng.next_unit_f64();
        let (mut inside, mut outside) = (0, 0);
        for _ in 0..200 {
            let body = |unit: &mut dyn FnMut() -> f64| {
                let at = Vec2::new(80.0 * unit() - 40.0, 80.0 * unit() - 40.0);
                ctrv(
                    at,
                    5.0 + 300.0 * unit(),
                    PI * (2.0 * unit() - 1.0),
                    16.0 * unit() - 8.0,
                )
            };
            let (a, b) = (body(&mut unit), body(&mut unit));
            let reach = 9.0;
            let w = windows(&a, &b, reach);
            for k in 0..=5000 {
                let t = k as f64 * 1e-3;
                let d = a.position_at(t).distance(b.position_at(t));
                let covered = w.iter().any(|w| w.start <= t && t <= w.end);
                if d < reach - 1e-6 {
                    assert!(covered, "t = {t}: {d} m apart but in no window");
                    inside += 1;
                } else if d > reach + 1e-6 {
                    assert!(!covered, "t = {t}: {d} m apart but in a window");
                    outside += 1;
                }
            }
            for w in &w {
                let t = (w.start + w.end) / 2.0;
                let along = |p: Vec2, v: Vec2| p + v * (t - w.start);
                assert!((along(w.a, w.a_velocity) - a.position_at(t)).norm() < 1e-9);
                assert!((along(w.b, w.b_velocity) - b.position_at(t)).norm() < 1e-9);
            }
        }
        assert!(inside > 5_000 && outside > 100_000, "{inside} / {outside}");
    }
}
