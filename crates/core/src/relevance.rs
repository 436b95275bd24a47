//! Relevance estimation from predicted trajectories (paper §III-A1).
//!
//! For two objects with predicted trajectories, the paper:
//!
//! 1. finds the intersection of the trajectories,
//! 2. places a **collision area** there — a circle whose radius is the
//!    maximum of the two object lengths,
//! 3. computes each object's **passing interval** through the circle,
//! 4. sets `ci` = overlap of the intervals, `R_ci = |ci| / |t1 ∪ t2|`
//!    (intersection over union),
//! 5. sets `ttc` = time to the start of the overlap and
//!    `R_ttc = 1 − ttc / T` (0 when there is no overlap), and
//! 6. reports `R = (R_ci + R_ttc) / 2`.
//!
//! [`joint_gaussian_relevance`] implements the point-Gaussian alternative the
//! paper argues *against* (it "underestimates the probability since it takes
//! objects as points"); it is kept as an ablation baseline.

use erpd_geometry::{Circle, Polyline2, Vec2};
use erpd_tracking::PredictedTrajectory;

/// Which relevance definition to use — the paper's combined formula by
/// default; the single-term and Gaussian variants exist for the ablation
/// benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RelevanceMode {
    /// The paper's `R = (R_ci + R_ttc) / 2`.
    #[default]
    Combined,
    /// Only the collision-interval IoU term.
    CiOnly,
    /// Only the time-to-collision term.
    TtcOnly,
    /// The point-Gaussian baseline the paper argues against.
    Gaussian,
}

/// Configuration for relevance estimation. The horizon `T` of the `R_ttc`
/// formula is not configured here: it is the horizon the scored
/// trajectories were predicted over ([`PredictedTrajectory::horizon`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelevanceConfig {
    /// Which relevance definition to use.
    pub mode: RelevanceMode,
    /// Exponential age-discount rate for stale (coasted) perception data,
    /// 1/seconds. An object whose last observation is `age` seconds old has
    /// its relevance scaled by `exp(-staleness_decay * age)`; `0.0` (the
    /// default) disables the discount entirely.
    pub staleness_decay: f64,
}

impl Default for RelevanceConfig {
    fn default() -> Self {
        RelevanceConfig {
            mode: RelevanceMode::Combined,
            staleness_decay: 0.0,
        }
    }
}

impl RelevanceConfig {
    /// Returns the configuration with the relevance definition replaced.
    pub fn with_mode(mut self, mode: RelevanceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Returns the configuration with the staleness-decay rate replaced.
    pub fn with_staleness_decay(mut self, staleness_decay: f64) -> Self {
        self.staleness_decay = staleness_decay;
        self
    }

    /// The age-discount factor for perception data last observed `age`
    /// seconds ago: `exp(-staleness_decay * age)`, exactly `1.0` when the
    /// decay is disabled or the data is fresh (so fresh data is bit-for-bit
    /// unaffected by the discount machinery).
    pub fn staleness_discount(&self, age: f64) -> f64 {
        if self.staleness_decay <= 0.0 || age <= 0.0 {
            1.0
        } else {
            (-self.staleness_decay * age).exp()
        }
    }
}

/// Full accounting of one pairwise relevance computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelevanceBreakdown {
    /// The collision-interval term `R_ci ∈ [0, 1]`.
    pub r_ci: f64,
    /// The time-to-collision term `R_ttc ∈ [0, 1]`.
    pub r_ttc: f64,
    /// Time to the start of the collision interval, seconds (`T` when no
    /// collision interval exists).
    pub ttc: f64,
    /// Length of the collision interval, seconds.
    pub collision_interval: f64,
    /// The combined relevance `R = (R_ci + R_ttc) / 2`.
    pub relevance: f64,
}

impl RelevanceBreakdown {
    /// The zero-relevance result (no predicted conflict).
    pub fn none(horizon: f64) -> Self {
        RelevanceBreakdown {
            r_ci: 0.0,
            r_ttc: 0.0,
            ttc: horizon,
            collision_interval: 0.0,
            relevance: 0.0,
        }
    }
}

/// The horizon `T` a pair is scored over: the one both trajectories were
/// predicted over (the shorter, should they ever differ — nothing is
/// predicted beyond it).
fn shared_horizon(a: &PredictedTrajectory, b: &PredictedTrajectory) -> f64 {
    a.horizon().min(b.horizon())
}

/// `path.distance_to_point(p) <= r`, asked of the path's bounding box first:
/// a point farther than `r` outside that box is farther than `r` from
/// every segment, so most stationary pairs never walk the path.
fn passes_within(path: &Polyline2, p: Vec2, r: f64) -> bool {
    let (min, max) = path.bounds();
    p.x >= min.x - r
        && p.x <= max.x + r
        && p.y >= min.y - r
        && p.y <= max.y + r
        && path.distance_to_point(p) <= r
}

/// Scores one candidate collision area against both trajectories.
fn score_area(
    a: &PredictedTrajectory,
    b: &PredictedTrajectory,
    area: &Circle,
    horizon: f64,
) -> Option<RelevanceBreakdown> {
    let t1 = a.first_passing_interval(area)?;
    let t2 = b.first_passing_interval(area)?;
    let overlap = t1.intersection(&t2);
    let (ci, ttc) = match overlap {
        Some(iv) if iv.length() > 1e-9 => (iv.length(), iv.start()),
        _ => return Some(RelevanceBreakdown::none(horizon)),
    };
    let r_ci = t1.iou(&t2);
    let r_ttc = (1.0 - ttc / horizon).clamp(0.0, 1.0);
    Some(RelevanceBreakdown {
        r_ci,
        r_ttc,
        ttc,
        collision_interval: ci,
        relevance: (r_ci + r_ttc) / 2.0,
    })
}

/// Computes the paper's trajectory-pair relevance.
///
/// Considers every crossing of the two predicted paths (plus the
/// stationary-object cases) and returns the highest-relevance breakdown.
/// Returns the zero breakdown when the trajectories never conflict.
///
/// # Examples
///
/// ```
/// use erpd_core::{trajectory_relevance, RelevanceConfig};
/// use erpd_tracking::{predict_ctrv, ObjectId, ObjectKind, PredictorConfig};
/// use erpd_geometry::Vec2;
///
/// let cfg = PredictorConfig::default();
/// // Two vehicles on a collision course at a perpendicular intersection.
/// let a = predict_ctrv(ObjectId(1), ObjectKind::Vehicle, Vec2::new(-20.0, 0.0),
///                      10.0, 0.0, 0.0, 4.5, cfg);
/// let b = predict_ctrv(ObjectId(2), ObjectKind::Vehicle, Vec2::new(0.0, -20.0),
///                      10.0, std::f64::consts::FRAC_PI_2, 0.0, 4.5, cfg);
/// let r = trajectory_relevance(&a, &b, RelevanceConfig::default());
/// assert!(r.relevance > 0.5); // simultaneous arrival: highly relevant
/// ```
pub fn trajectory_relevance(
    a: &PredictedTrajectory,
    b: &PredictedTrajectory,
    config: RelevanceConfig,
) -> RelevanceBreakdown {
    let horizon = shared_horizon(a, b);
    if config.mode == RelevanceMode::Gaussian {
        let g = joint_gaussian_relevance(a, b);
        let mut out = RelevanceBreakdown::none(horizon);
        out.relevance = g;
        return out;
    }
    let radius_len = a.length.max(b.length);
    let mut best = RelevanceBreakdown::none(horizon);

    let mut consider = |area: Circle| {
        if let Some(mut r) = score_area(a, b, &area, horizon) {
            r.relevance = match config.mode {
                RelevanceMode::Combined => (r.r_ci + r.r_ttc) / 2.0,
                RelevanceMode::CiOnly => r.r_ci,
                RelevanceMode::TtcOnly => r.r_ttc,
                RelevanceMode::Gaussian => unreachable!("handled above"),
            };
            if r.relevance > best.relevance {
                best = r;
            }
        }
    };

    match (a.path(), b.path()) {
        (Some(pa), Some(pb)) => {
            for crossing in pa.crossings(pb) {
                consider(Circle::collision_area(crossing.point, a.length, b.length));
            }
        }
        (Some(pa), None) => {
            // Stationary object b: the collision area sits on b if a's path
            // comes close enough.
            let pos = b.position_at(0.0);
            if passes_within(pa, pos, radius_len) {
                consider(Circle::new(pos, radius_len));
            }
        }
        (None, Some(pb)) => {
            let pos = a.position_at(0.0);
            if passes_within(pb, pos, radius_len) {
                consider(Circle::new(pos, radius_len));
            }
        }
        (None, None) => {
            // Two stationary objects: a conflict only if they already
            // overlap, which is not a dissemination problem.
        }
    }
    best
}

/// The point-Gaussian relevance baseline the paper improves upon: the joint
/// probability density of the two (independent) predicted distributions at
/// the trajectory intersection, at the mean passing time, normalised into
/// `[0, 1]` via the product of each distribution's own peak density.
///
/// Kept for the ablation benchmark; the paper argues this underestimates
/// risk because it ignores object extent.
pub fn joint_gaussian_relevance(a: &PredictedTrajectory, b: &PredictedTrajectory) -> f64 {
    let (pa, pb) = match (a.path(), b.path()) {
        (Some(pa), Some(pb)) => (pa, pb),
        _ => return 0.0,
    };
    let Some(crossing) = pa.first_crossing(pb) else {
        return 0.0;
    };
    if a.speed() <= 0.0 || b.speed() <= 0.0 {
        return 0.0;
    }
    let ta = crossing.s_self / a.speed();
    let tb = crossing.s_other / b.speed();
    let horizon = shared_horizon(a, b);
    if ta > horizon || tb > horizon {
        return 0.0;
    }
    // A collision requires both objects at the crossing point at the SAME
    // instant: evaluate both distributions at the midpoint of the two
    // arrival times, so a time mismatch shows up as each mean being offset
    // from the crossing point.
    let t_star = ((ta + tb) / 2.0).clamp(0.0, horizon);
    let ga = a.gaussian_at(t_star);
    let gb = b.gaussian_at(t_star);
    let joint = ga.pdf(crossing.point) * gb.pdf(crossing.point);
    let peak = ga.pdf(ga.mean()) * gb.pdf(gb.mean());
    if peak <= f64::EPSILON {
        0.0
    } else {
        (joint / peak).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erpd_geometry::Vec2;
    use erpd_tracking::{predict_ctrv, ObjectId, ObjectKind, PredictedTrajectory, PredictorConfig};
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
            PredictorConfig::default(),
        )
    }

    #[test]
    fn simultaneous_arrival_is_highly_relevant() {
        let a = vehicle(1, Vec2::new(-20.0, 0.0), 10.0, 0.0);
        let b = vehicle(2, Vec2::new(0.0, -20.0), 10.0, FRAC_PI_2);
        let r = trajectory_relevance(&a, &b, RelevanceConfig::default());
        assert!(r.relevance > 0.5, "r = {:?}", r);
        assert!(r.r_ci > 0.9, "same speed, same distance: near-total overlap");
        // ttc = time to enter the 4.5 m circle: (20 - 4.5) / 10 = 1.55 s.
        assert!((r.ttc - 1.55).abs() < 0.05, "ttc = {}", r.ttc);
    }

    #[test]
    fn staggered_passing_times_reduce_relevance() {
        // Same geometry, but b is much farther: it reaches the intersection
        // long after a has cleared it.
        let a = vehicle(1, Vec2::new(-10.0, 0.0), 10.0, 0.0);
        let b = vehicle(2, Vec2::new(0.0, -45.0), 10.0, FRAC_PI_2);
        let r = trajectory_relevance(&a, &b, RelevanceConfig::default());
        // a passes through [0.55, 1.45]; b passes through [4.05, 4.95]: no
        // overlap -> zero relevance (the paper's p/G example in Fig. 7b).
        assert_eq!(r.relevance, 0.0);
        assert_eq!(r.r_ci, 0.0);
        assert_eq!(r.r_ttc, 0.0);
    }

    #[test]
    fn partial_overlap_in_between() {
        let near = vehicle(1, Vec2::new(-20.0, 0.0), 10.0, 0.0);
        let close_call = vehicle(2, Vec2::new(0.0, -26.0), 10.0, FRAC_PI_2);
        let r = trajectory_relevance(&near, &close_call, RelevanceConfig::default());
        assert!(r.relevance > 0.0 && r.r_ci < 1.0, "r = {r:?}");
    }

    #[test]
    fn parallel_paths_are_irrelevant() {
        let a = vehicle(1, Vec2::new(0.0, 0.0), 10.0, 0.0);
        let b = vehicle(2, Vec2::new(0.0, 10.0), 10.0, 0.0);
        let r = trajectory_relevance(&a, &b, RelevanceConfig::default());
        assert_eq!(r.relevance, 0.0);
    }

    #[test]
    fn earlier_collision_has_higher_ttc_term() {
        let cfg = RelevanceConfig::default();
        let far = trajectory_relevance(
            &vehicle(1, Vec2::new(-40.0, 0.0), 10.0, 0.0),
            &vehicle(2, Vec2::new(0.0, -40.0), 10.0, FRAC_PI_2),
            cfg,
        );
        let near = trajectory_relevance(
            &vehicle(1, Vec2::new(-15.0, 0.0), 10.0, 0.0),
            &vehicle(2, Vec2::new(0.0, -15.0), 10.0, FRAC_PI_2),
            cfg,
        );
        assert!(near.r_ttc > far.r_ttc);
        assert!(near.ttc < far.ttc);
    }

    #[test]
    fn stationary_pedestrian_on_path_is_relevant() {
        let cfg = PredictorConfig::default();
        let car = vehicle(1, Vec2::new(-20.0, 0.0), 10.0, 0.0);
        let ped = PredictedTrajectory::stationary(
            ObjectId(2),
            ObjectKind::Pedestrian,
            Vec2::new(5.0, 0.0),
            0.6,
            cfg,
        );
        let r = trajectory_relevance(&car, &ped, RelevanceConfig::default());
        assert!(r.relevance > 0.0, "r = {r:?}");
        // Symmetric call order.
        let r2 = trajectory_relevance(&ped, &car, RelevanceConfig::default());
        assert!((r.relevance - r2.relevance).abs() < 1e-9);
    }

    #[test]
    fn stationary_pedestrian_off_path_is_irrelevant() {
        let cfg = PredictorConfig::default();
        let car = vehicle(1, Vec2::new(-20.0, 0.0), 10.0, 0.0);
        let ped = PredictedTrajectory::stationary(
            ObjectId(2),
            ObjectKind::Pedestrian,
            Vec2::new(5.0, 30.0),
            0.6,
            cfg,
        );
        let r = trajectory_relevance(&car, &ped, RelevanceConfig::default());
        assert_eq!(r.relevance, 0.0);
    }

    #[test]
    fn two_stationary_objects_zero() {
        let cfg = PredictorConfig::default();
        let a = PredictedTrajectory::stationary(ObjectId(1), ObjectKind::Vehicle, Vec2::ZERO, 4.5, cfg);
        let b = PredictedTrajectory::stationary(ObjectId(2), ObjectKind::Vehicle, Vec2::new(1.0, 0.0), 4.5, cfg);
        assert_eq!(trajectory_relevance(&a, &b, RelevanceConfig::default()).relevance, 0.0);
    }

    #[test]
    fn relevance_is_bounded() {
        for dy in [-40.0, -30.0, -20.0, -10.0] {
            let a = vehicle(1, Vec2::new(-20.0, 0.0), 12.0, 0.0);
            let b = vehicle(2, Vec2::new(0.0, dy), 8.0, FRAC_PI_2);
            let r = trajectory_relevance(&a, &b, RelevanceConfig::default());
            assert!((0.0..=1.0).contains(&r.relevance));
            assert!((0.0..=1.0).contains(&r.r_ci));
            assert!((0.0..=1.0).contains(&r.r_ttc));
            assert!((r.relevance - (r.r_ci + r.r_ttc) / 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn relevance_modes_select_terms() {
        let a = vehicle(1, Vec2::new(-20.0, 0.0), 10.0, 0.0);
        let b = vehicle(2, Vec2::new(0.0, -22.0), 10.0, FRAC_PI_2);
        let base = RelevanceConfig::default();
        let combined = trajectory_relevance(&a, &b, base);
        let ci = trajectory_relevance(&a, &b, RelevanceConfig { mode: RelevanceMode::CiOnly, ..base });
        let ttc = trajectory_relevance(&a, &b, RelevanceConfig { mode: RelevanceMode::TtcOnly, ..base });
        let gauss = trajectory_relevance(&a, &b, RelevanceConfig { mode: RelevanceMode::Gaussian, ..base });
        assert!((ci.relevance - combined.r_ci).abs() < 1e-12);
        assert!((ttc.relevance - combined.r_ttc).abs() < 1e-12);
        assert!((combined.relevance - (combined.r_ci + combined.r_ttc) / 2.0).abs() < 1e-12);
        assert!((gauss.relevance - joint_gaussian_relevance(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn gaussian_baseline_orders_like_risk() {
        let a = vehicle(1, Vec2::new(-20.0, 0.0), 10.0, 0.0);
        let sync = vehicle(2, Vec2::new(0.0, -20.0), 10.0, FRAC_PI_2);
        let late = vehicle(3, Vec2::new(0.0, -45.0), 10.0, FRAC_PI_2);
        let g_sync = joint_gaussian_relevance(&a, &sync);
        let g_late = joint_gaussian_relevance(&a, &late);
        assert!(g_sync > 0.9, "peak joint density at synchronised crossing");
        assert!(g_sync > g_late);
        // Parallel paths have no crossing at all.
        let par = vehicle(4, Vec2::new(0.0, 5.0), 10.0, 0.0);
        assert_eq!(joint_gaussian_relevance(&a, &par), 0.0);
    }

    #[test]
    fn staleness_discount_decays_with_age() {
        let cfg = RelevanceConfig::default().with_staleness_decay(0.5);
        assert_eq!(cfg.staleness_discount(0.0), 1.0, "fresh data undiscounted");
        assert!((cfg.staleness_discount(1.0) - (-0.5f64).exp()).abs() < 1e-12);
        assert!(cfg.staleness_discount(2.0) < cfg.staleness_discount(1.0));
        // Disabled decay is exactly 1.0 at any age.
        let off = RelevanceConfig::default();
        assert_eq!(off.staleness_discount(3.0), 1.0);
    }

    #[test]
    fn gaussian_baseline_underestimates_near_miss() {
        // The paper's argument: a grazing pass that the collision-area
        // method flags is nearly invisible to the point-Gaussian method
        // when the crossing times differ by a couple of seconds.
        let cfg = RelevanceConfig::default();
        let a = vehicle(1, Vec2::new(-20.0, 0.0), 10.0, 0.0);
        let b = vehicle(2, Vec2::new(0.0, -28.0), 10.0, FRAC_PI_2);
        let ours = trajectory_relevance(&a, &b, cfg).relevance;
        let gauss = joint_gaussian_relevance(&a, &b);
        assert!(ours > 0.0);
        assert!(gauss < ours, "gaussian {gauss} vs ours {ours}");
    }
}
