//! Trajectory prediction (paper's *Trajectory Prediction* module).
//!
//! The paper's relevance math consumes, for each tracked object, a predicted
//! path over a horizon `T` together with per-waypoint bivariate-Gaussian
//! uncertainty (refs [24]–[26] all emit exactly that interface). As
//! documented in DESIGN.md we substitute the deep predictors with a
//! constant-turn-rate-and-velocity (CTRV) kinematic model whose uncertainty
//! grows linearly with the prediction horizon — the downstream relevance
//! computation is agnostic to the predictor family.

use crate::{ObjectId, ObjectKind};
use erpd_geometry::{BivariateGaussian, Circle, Interval, Polyline2, Vec2};
use std::ops::ControlFlow;

/// The prediction horizon `T`, seconds (paper §III-A1): every trajectory
/// is predicted this far ahead, and it is the `T` of the paper's
/// `R_ttc = 1 - ttc / T` formula.
pub const HORIZON: f64 = 5.0;

/// Time step between generated CTRV waypoints, seconds.
const STEP: f64 = 0.25;

/// Positional uncertainty at `t = 0`, metres (1 sigma).
const SIGMA0: f64 = 0.3;

/// Uncertainty growth rate, metres per second of horizon.
const SIGMA_GROWTH: f64 = 0.4;

/// Below this speed (m/s) an object is treated as stationary.
const STATIONARY_SPEED: f64 = 0.1;

/// A predicted trajectory over the horizon [`HORIZON`].
///
/// # Examples
///
/// ```
/// use erpd_tracking::{predict_ctrv, ObjectId, ObjectKind};
/// use erpd_geometry::Vec2;
///
/// let traj = predict_ctrv(
///     ObjectId(1),
///     ObjectKind::Vehicle,
///     Vec2::ZERO,
///     10.0, // m/s
///     0.0,  // heading east
///     0.0,  // no turn
///     4.5,
/// );
/// let p = traj.position_at(2.0);
/// assert!((p - Vec2::new(20.0, 0.0)).norm() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PredictedTrajectory {
    /// Identity of the predicted object.
    pub object: ObjectId,
    /// Kind of the predicted object.
    pub kind: ObjectKind,
    /// Footprint length used for collision-area sizing, metres.
    pub length: f64,
    speed: f64,
    start: Vec2,
    path: Option<Polyline2>,
    /// The body's velocity along each path segment (empty when stationary):
    /// the motion is piecewise linear in time, which is what
    /// [`PredictedTrajectory::proximity_windows`] walks.
    velocities: Vec<Vec2>,
}

impl PredictedTrajectory {
    /// A trajectory along `path` at `speed` (at least the stationary
    /// threshold).
    fn moving(
        object: ObjectId,
        kind: ObjectKind,
        path: Polyline2,
        speed: f64,
        length: f64,
    ) -> Self {
        let (points, arc) = (path.points(), path.arc_lengths());
        let velocities = (1..points.len())
            .map(|i| {
                let run = arc[i] - arc[i - 1];
                if run > 0.0 {
                    (points[i] - points[i - 1]) * (speed / run)
                } else {
                    Vec2::ZERO
                }
            })
            .collect();
        PredictedTrajectory {
            object,
            kind,
            length,
            speed,
            start: points[0],
            path: Some(path),
            velocities,
        }
    }

    /// A trajectory for an object that is not moving.
    pub fn stationary(object: ObjectId, kind: ObjectKind, position: Vec2, length: f64) -> Self {
        PredictedTrajectory {
            object,
            kind,
            length,
            speed: 0.0,
            start: position,
            path: None,
            velocities: Vec::new(),
        }
    }

    /// A trajectory following an explicit map path at constant speed — the
    /// map-based route-hypothesis predictor used by the edge server for
    /// vehicles whose manoeuvre is constrained by their lane (e.g. an inner
    /// lane allows straight or left; the deep predictors the paper cites
    /// learn this from context, we read it off the HD map).
    ///
    /// `path` must start at the object's current position. Falls back to a
    /// stationary trajectory when `speed` is below the stationary threshold
    /// or the path is degenerate.
    pub fn from_path(
        object: ObjectId,
        kind: ObjectKind,
        path: Polyline2,
        speed: f64,
        length: f64,
    ) -> Self {
        if speed < STATIONARY_SPEED {
            let start = path.points()[0];
            return PredictedTrajectory::stationary(object, kind, start, length);
        }
        // Trim the path to the reachable horizon.
        let reach = speed * HORIZON;
        let path = path.slice(0.0, reach.min(path.length())).unwrap_or(path);
        PredictedTrajectory::moving(object, kind, path, speed, length)
    }

    /// Constant speed along the path, m/s (0 for stationary objects).
    #[inline]
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// The spatial path, or `None` for stationary objects.
    #[inline]
    pub fn path(&self) -> Option<&Polyline2> {
        self.path.as_ref()
    }

    /// The body's velocity along each path segment.
    #[inline]
    pub(crate) fn velocities(&self) -> &[Vec2] {
        &self.velocities
    }

    /// Predicted position at time `t` (clamped to `[0, HORIZON]`).
    pub fn position_at(&self, t: f64) -> Vec2 {
        match &self.path {
            None => self.start,
            Some(path) => path.point_at(self.speed * t.clamp(0.0, HORIZON)),
        }
    }

    /// Per-waypoint uncertainty at time `t`: a bivariate Gaussian centred on
    /// the predicted position whose sigma grows linearly with `t`.
    pub fn gaussian_at(&self, t: f64) -> BivariateGaussian {
        let sigma = SIGMA0 + SIGMA_GROWTH * t.clamp(0.0, HORIZON);
        BivariateGaussian::isotropic(self.position_at(t), sigma.max(1e-3))
            .expect("positive sigma")
    }

    /// Time intervals within `[0, HORIZON]` during which the object is
    /// inside `circle` — the *passing times* of the paper's relevance
    /// formula.
    pub fn passing_intervals(&self, circle: &Circle) -> Vec<Interval> {
        let mut out = Vec::new();
        let _ = self.visit_passing_intervals(circle, f64::INFINITY, |iv| {
            out.push(iv);
            ControlFlow::<()>::Continue(())
        });
        out
    }

    /// The first passing interval through `circle`, if any — the walk
    /// stops there and allocates nothing.
    pub fn first_passing_interval(&self, circle: &Circle) -> Option<Interval> {
        self.first_passing_interval_before(circle, f64::INFINITY)
    }

    /// [`PredictedTrajectory::first_passing_interval`] for a caller that
    /// can use the interval only if it starts before `until` seconds: it
    /// may answer `None` instead of an interval starting at or after
    /// `until`, and in exchange the walk ends at the first path segment
    /// the object reaches that late.
    pub fn first_passing_interval_before(&self, circle: &Circle, until: f64) -> Option<Interval> {
        match self.visit_passing_intervals(circle, until, ControlFlow::Break) {
            ControlFlow::Break(iv) => Some(iv),
            ControlFlow::Continue(()) => None,
        }
    }

    /// Hands `visit` each passing interval in time order until it breaks,
    /// possibly skipping those that start at or after `until`.
    fn visit_passing_intervals<B>(
        &self,
        circle: &Circle,
        until: f64,
        mut visit: impl FnMut(Interval) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let Some(path) = &self.path else {
            return if circle.contains(self.start) {
                visit(Interval::new(0.0, HORIZON).expect("valid horizon"))
            } else {
                ControlFlow::Continue(())
            };
        };
        // An interval entered at arc length `s` starts at `s / speed`. Past
        // `before` that quotient is at least `until` whatever the rounding:
        // the four ulps cover the product here and the division there.
        let before = until * self.speed * (1.0 + 4.0 * f64::EPSILON);
        path.visit_circle_intervals(circle, before, |s0, s1| {
            let t0 = s0 / self.speed;
            let t1 = s1 / self.speed;
            if t0 >= HORIZON {
                return ControlFlow::Continue(());
            }
            match Interval::new(t0.max(0.0), t1.min(HORIZON)) {
                Some(iv) if iv.length() > 1e-9 => visit(iv),
                _ => ControlFlow::Continue(()),
            }
        })
    }
}

/// Predicts a trajectory with the constant-turn-rate-and-velocity model.
///
/// Produces a stationary trajectory when `speed` is below the stationary
/// threshold.
pub fn predict_ctrv(
    object: ObjectId,
    kind: ObjectKind,
    position: Vec2,
    speed: f64,
    heading: f64,
    turn_rate: f64,
    length: f64,
) -> PredictedTrajectory {
    if speed < STATIONARY_SPEED {
        return PredictedTrajectory::stationary(object, kind, position, length);
    }
    let steps = (HORIZON / STEP).ceil() as usize;
    let mut points = Vec::with_capacity(steps + 1);
    let mut pos = position;
    let mut theta = heading;
    points.push(pos);
    for _ in 0..steps {
        pos += Vec2::from_angle(theta) * (speed * STEP);
        theta += turn_rate * STEP;
        points.push(pos);
    }
    let path = Polyline2::new(points).expect("at least two distinct waypoints");
    PredictedTrajectory::moving(object, kind, path, speed, length)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straight(speed: f64) -> PredictedTrajectory {
        predict_ctrv(
            ObjectId(1),
            ObjectKind::Vehicle,
            Vec2::ZERO,
            speed,
            0.0,
            0.0,
            4.5,
        )
    }

    #[test]
    fn straight_line_positions() {
        let t = straight(10.0);
        assert!((t.position_at(0.0) - Vec2::ZERO).norm() < 1e-9);
        assert!((t.position_at(1.0) - Vec2::new(10.0, 0.0)).norm() < 1e-6);
        assert!((t.position_at(5.0) - Vec2::new(50.0, 0.0)).norm() < 1e-6);
        // Clamped beyond horizon.
        assert!((t.position_at(99.0) - Vec2::new(50.0, 0.0)).norm() < 1e-6);
    }

    #[test]
    fn turning_path_curves() {
        let t = predict_ctrv(
            ObjectId(1),
            ObjectKind::Vehicle,
            Vec2::ZERO,
            10.0,
            0.0,
            0.5, // rad/s left turn
            4.5,
        );
        let p = t.position_at(3.0);
        assert!(p.y > 5.0, "turned path should veer left, got {p}");
        // Path length still equals speed * horizon.
        assert!((t.path().unwrap().length() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn slow_object_is_stationary() {
        let t = straight(0.05);
        assert!(t.path().is_none());
        assert_eq!(t.position_at(3.0), Vec2::ZERO);
        assert_eq!(t.speed(), 0.0);
    }

    #[test]
    fn uncertainty_grows_with_horizon() {
        let t = straight(10.0);
        let g0 = t.gaussian_at(0.0);
        let g5 = t.gaussian_at(5.0);
        assert!(g5.sigma_x() > g0.sigma_x());
        assert!((g0.sigma_x() - 0.3).abs() < 1e-9);
        assert!((g5.sigma_x() - (0.3 + 0.4 * 5.0)).abs() < 1e-9);
    }

    #[test]
    fn passing_interval_through_circle() {
        let t = straight(10.0);
        let c = Circle::new(Vec2::new(20.0, 0.0), 5.0);
        let iv = t.first_passing_interval(&c).unwrap();
        assert!((iv.start() - 1.5).abs() < 1e-6);
        assert!((iv.end() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn passing_interval_clamped_to_horizon() {
        let t = straight(10.0);
        // Circle straddling the end of the 50 m path.
        let c = Circle::new(Vec2::new(50.0, 0.0), 5.0);
        let iv = t.first_passing_interval(&c).unwrap();
        assert!((iv.start() - 4.5).abs() < 1e-6);
        assert!((iv.end() - 5.0).abs() < 1e-6);
        // Circle entirely beyond the horizon.
        let far = Circle::new(Vec2::new(100.0, 0.0), 5.0);
        assert!(t.first_passing_interval(&far).is_none());
    }

    #[test]
    fn stationary_object_in_circle_occupies_whole_horizon() {
        let t = PredictedTrajectory::stationary(
            ObjectId(2),
            ObjectKind::Pedestrian,
            Vec2::new(1.0, 1.0),
            0.6,
        );
        let c = Circle::new(Vec2::ZERO, 3.0);
        let iv = t.first_passing_interval(&c).unwrap();
        assert_eq!(iv.start(), 0.0);
        assert_eq!(iv.end(), HORIZON);
        let out = Circle::new(Vec2::new(50.0, 0.0), 3.0);
        assert!(t.first_passing_interval(&out).is_none());
    }

    #[test]
    fn path_missing_circle_has_no_interval() {
        let t = straight(10.0);
        let c = Circle::new(Vec2::new(20.0, 30.0), 5.0);
        assert!(t.passing_intervals(&c).is_empty());
    }

    #[test]
    fn from_path_follows_the_map_route() {
        let path = Polyline2::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(20.0, 0.0),
            Vec2::new(20.0, 40.0),
        ])
        .unwrap();
        let t = PredictedTrajectory::from_path(ObjectId(5), ObjectKind::Vehicle, path, 10.0, 4.5);
        // After 3 s (30 m) the object is 10 m up the second leg.
        assert!((t.position_at(3.0) - Vec2::new(20.0, 10.0)).norm() < 1e-6);
        // Path trimmed to the 50 m horizon reach.
        assert!((t.path().unwrap().length() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn from_path_slow_object_is_stationary() {
        let path = Polyline2::new(vec![Vec2::new(1.0, 2.0), Vec2::new(5.0, 2.0)]).unwrap();
        let t = PredictedTrajectory::from_path(ObjectId(5), ObjectKind::Vehicle, path, 0.01, 4.5);
        assert!(t.path().is_none());
        assert_eq!(t.position_at(2.0), Vec2::new(1.0, 2.0));
    }

    #[test]
    fn gaussian_centred_on_path() {
        let t = straight(10.0);
        let g = t.gaussian_at(2.0);
        assert!((g.mean() - Vec2::new(20.0, 0.0)).norm() < 1e-6);
    }
}
