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

use erpd_geometry::{Circle, Interval, Polyline2, PolylineCrossing, Vec2, REJECT_MARGIN};
use erpd_tracking::{PredictedTrajectory, ProximityWindow, HORIZON};

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
/// formula is not configured here: it is the horizon every trajectory is
/// predicted over ([`erpd_tracking::HORIZON`]).
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

/// Scores two passing intervals through one collision area; `None` when
/// they overlap by no more than a nanosecond (no conflict).
fn score_intervals(t1: Interval, t2: Interval) -> Option<RelevanceBreakdown> {
    let overlap = t1.intersection(&t2).filter(|iv| iv.length() > 1e-9)?;
    let (ci, ttc) = (overlap.length(), overlap.start());
    let r_ci = t1.iou(&t2);
    let r_ttc = (1.0 - ttc / HORIZON).clamp(0.0, 1.0);
    Some(RelevanceBreakdown {
        r_ci,
        r_ttc,
        ttc,
        collision_interval: ci,
        relevance: (r_ci + r_ttc) / 2.0,
    })
}

/// What scoring one pair needs beyond the pair itself: its proximity
/// windows, their regions and its crossings. One per worker, reused pair
/// after pair; aligned to its own cache lines, because the workers' slots
/// sit side by side in one pool and every pair rewrites their lengths.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct PairScratch {
    windows: Vec<ProximityWindow>,
    /// `regions[k]`: where a crossing can score during `windows[k]`.
    regions: Vec<(Vec2, Vec2)>,
    crossings: Vec<PolylineCrossing>,
}

/// Computes the paper's trajectory-pair relevance.
///
/// Considers every crossing of the two predicted paths (plus the
/// stationary-object cases) and returns the highest-relevance breakdown.
/// Returns the zero breakdown when the trajectories never conflict.
///
/// # Cost
///
/// Exact, and cheap for pairs that cannot conflict, in four steps for two
/// moving bodies (a parked body is one distance test against the other's
/// path; the Gaussian baseline keeps only the crossing search):
///
/// 1. paths whose boxes are apart have no crossing — O(1);
/// 2. a positive score needs both bodies inside one collision area of
///    radius `R` at one instant, so within `2R` of each other: one merged
///    walk over the two trajectories' vertex times
///    ([`PredictedTrajectory::proximity_windows`], reach `2R` plus
///    [`REJECT_MARGIN`]) finds the windows where they are, and a pair
///    without one scores 0 — O(n + m) for n- and m-vertex paths;
/// 3. crossings are enumerated only where both bodies can be during those
///    windows ([`Polyline2::crossings_within`]), and one is scored only if
///    both bodies can be inside its area at one instant of a window;
/// 4. a surviving crossing walks the first body's path, and walks the
///    second's only if that first interval leaves room to beat the best
///    score so far, and then no further than the first interval's end.
///
/// Skipped work is work whose score is 0 or cannot beat an earlier one;
/// the breakdown is bit-identical to scoring every crossing.
///
/// # Examples
///
/// ```
/// use erpd_core::{trajectory_relevance, RelevanceConfig};
/// use erpd_tracking::{predict_ctrv, ObjectId, ObjectKind};
/// use erpd_geometry::Vec2;
///
/// // Two vehicles on a collision course at a perpendicular intersection.
/// let a = predict_ctrv(ObjectId(1), ObjectKind::Vehicle, Vec2::new(-20.0, 0.0),
///                      10.0, 0.0, 0.0, 4.5);
/// let b = predict_ctrv(ObjectId(2), ObjectKind::Vehicle, Vec2::new(0.0, -20.0),
///                      10.0, std::f64::consts::FRAC_PI_2, 0.0, 4.5);
/// let r = trajectory_relevance(&a, &b, RelevanceConfig::default());
/// assert!(r.relevance > 0.5); // simultaneous arrival: highly relevant
/// ```
pub fn trajectory_relevance(
    a: &PredictedTrajectory,
    b: &PredictedTrajectory,
    config: RelevanceConfig,
) -> RelevanceBreakdown {
    relevance_above(a, b, config, 0.0, &mut PairScratch::default())
}

/// [`trajectory_relevance`] for a caller that keeps only a score above
/// `floor` (the best of the hypothesis pairs scored so far): the breakdown
/// is exact when its relevance exceeds `floor`, and otherwise one at or
/// below `floor` — crossings that cannot beat it are not walked twice.
pub(crate) fn relevance_above(
    a: &PredictedTrajectory,
    b: &PredictedTrajectory,
    config: RelevanceConfig,
    floor: f64,
    scratch: &mut PairScratch,
) -> RelevanceBreakdown {
    if config.mode == RelevanceMode::Gaussian {
        let g = joint_gaussian_relevance(a, b);
        let mut out = RelevanceBreakdown::none(HORIZON);
        out.relevance = g;
        return out;
    }
    let radius_len = a.length.max(b.length);
    let mut best = RelevanceBreakdown::none(HORIZON);

    let mut consider = |area: Circle| {
        let Some(t1) = a.first_passing_interval(&area) else {
            return;
        };
        // What any overlap with `t1` could score: `r_ci ≤ 1`, and the
        // overlap starts no earlier than `t1`.
        let r_ttc_max = (1.0 - t1.start() / HORIZON).clamp(0.0, 1.0);
        let ceiling = match config.mode {
            RelevanceMode::Combined => (1.0 + r_ttc_max) / 2.0,
            RelevanceMode::CiOnly => 1.0,
            RelevanceMode::TtcOnly => r_ttc_max,
            RelevanceMode::Gaussian => unreachable!("handled above"),
        };
        if ceiling <= best.relevance.max(floor) {
            return;
        }
        // An interval entered after `t1` ends cannot overlap it.
        let Some(t2) = b.first_passing_interval_before(&area, t1.end()) else {
            return;
        };
        if let Some(mut r) = score_intervals(t1, t2) {
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
            if boxes_apart(pa.bounds(), pb.bounds()) {
                return best;
            }
            // A score needs an overlap of the passing intervals longer than
            // a nanosecond, and throughout it both bodies are inside one
            // circle of radius `radius_len`: no window at twice that reach,
            // no score.
            let windows = &mut scratch.windows;
            a.proximity_windows(b, 2.0 * radius_len + REJECT_MARGIN, windows);
            if windows.is_empty() {
                return best;
            }
            // A scoring crossing is within `reach` of both bodies at one
            // instant of some window, so inside that window's region.
            let reach = radius_len + REJECT_MARGIN;
            let regions = &mut scratch.regions;
            regions.clear();
            let mut union = (
                Vec2::new(f64::INFINITY, f64::INFINITY),
                Vec2::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
            );
            for w in windows.iter() {
                let (min, max) = window_region(w, reach);
                union.0 = Vec2::new(union.0.x.min(min.x), union.0.y.min(min.y));
                union.1 = Vec2::new(union.1.x.max(max.x), union.1.y.max(max.y));
                regions.push((min, max));
            }
            let crossings = &mut scratch.crossings;
            crossings.clear();
            pa.crossings_within(pb, union, crossings);
            'crossings: for crossing in crossings.iter() {
                let p = crossing.point;
                // The regions holding `p`, 64 at a time without branches;
                // only their windows solve for a common instant.
                for (windows, regions) in windows.chunks(64).zip(regions.chunks(64)) {
                    let mut holding = 0u64;
                    for (k, q) in regions.iter().enumerate() {
                        let inside =
                            (q.0.x <= p.x) & (p.x <= q.1.x) & (q.0.y <= p.y) & (p.y <= q.1.y);
                        holding |= u64::from(inside) << k;
                    }
                    while holding != 0 {
                        let w = &windows[holding.trailing_zeros() as usize];
                        holding &= holding - 1;
                        if w.both_within(p, reach) {
                            consider(Circle::collision_area(p, a.length, b.length));
                            continue 'crossings;
                        }
                    }
                }
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

/// True when two boxes `(min, max)` are separated along some axis.
fn boxes_apart(a: (Vec2, Vec2), b: (Vec2, Vec2)) -> bool {
    a.1.x < b.0.x || b.1.x < a.0.x || a.1.y < b.0.y || b.1.y < a.0.y
}

/// Where a point within `reach` of both bodies at one instant of `w` can
/// lie: the intersection of the boxes the two bodies sweep over the window,
/// grown by `reach` (empty, min above max, when the grown boxes miss).
fn window_region(w: &ProximityWindow, reach: f64) -> (Vec2, Vec2) {
    let span = w.end - w.start;
    let (a_end, b_end) = (w.a + w.a_velocity * span, w.b + w.b_velocity * span);
    let min = Vec2::new(
        w.a.x.min(a_end.x).max(w.b.x.min(b_end.x)),
        w.a.y.min(a_end.y).max(w.b.y.min(b_end.y)),
    );
    let max = Vec2::new(
        w.a.x.max(a_end.x).min(w.b.x.max(b_end.x)),
        w.a.y.max(a_end.y).min(w.b.y.max(b_end.y)),
    );
    let grow = Vec2::new(reach, reach);
    (min - grow, max + grow)
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
    if ta > HORIZON || tb > HORIZON {
        return 0.0;
    }
    // A collision requires both objects at the crossing point at the SAME
    // instant: evaluate both distributions at the midpoint of the two
    // arrival times, so a time mismatch shows up as each mean being offset
    // from the crossing point.
    let t_star = ((ta + tb) / 2.0).clamp(0.0, HORIZON);
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
    use erpd_tracking::{predict_ctrv, ObjectId, ObjectKind, PredictedTrajectory};
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
        let car = vehicle(1, Vec2::new(-20.0, 0.0), 10.0, 0.0);
        let ped = PredictedTrajectory::stationary(
            ObjectId(2),
            ObjectKind::Pedestrian,
            Vec2::new(5.0, 0.0),
            0.6,
        );
        let r = trajectory_relevance(&car, &ped, RelevanceConfig::default());
        assert!(r.relevance > 0.0, "r = {r:?}");
        // Symmetric call order.
        let r2 = trajectory_relevance(&ped, &car, RelevanceConfig::default());
        assert!((r.relevance - r2.relevance).abs() < 1e-9);
    }

    #[test]
    fn stationary_pedestrian_off_path_is_irrelevant() {
        let car = vehicle(1, Vec2::new(-20.0, 0.0), 10.0, 0.0);
        let ped = PredictedTrajectory::stationary(
            ObjectId(2),
            ObjectKind::Pedestrian,
            Vec2::new(5.0, 30.0),
            0.6,
        );
        let r = trajectory_relevance(&car, &ped, RelevanceConfig::default());
        assert_eq!(r.relevance, 0.0);
    }

    #[test]
    fn two_stationary_objects_zero() {
        let a = PredictedTrajectory::stationary(ObjectId(1), ObjectKind::Vehicle, Vec2::ZERO, 4.5);
        let b = PredictedTrajectory::stationary(ObjectId(2), ObjectKind::Vehicle, Vec2::new(1.0, 0.0), 4.5);
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
