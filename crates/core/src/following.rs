//! Car-following safety criteria and follower-relevance propagation
//! (paper §III-A2).
//!
//! Vehicles filtered out by Rule 1 have no predicted trajectory, but a
//! follower tailgating its leader will rear-end it when the leader brakes in
//! response to disseminated data. The paper checks two classic criteria:
//!
//! * **Pipes' rule** (1953): keep one car length (4–5 m; we use 4.5 m) of
//!   gap per 10 mph of the follower's speed.
//! * **Gipps' criterion** (1981): keep a time gap of 1.5 × the driver's
//!   reaction time (1 s), i.e. 1.5 s.
//!
//! A follower failing *either* criterion inherits a discounted copy of its
//! leader's relevance: `R_follower = α · R_leader`, α = 0.8 by default.

use erpd_tracking::FollowerLink;

/// Metres per second in one mile per hour.
const MPH: f64 = 0.44704;

/// Default relevance decay factor α of the paper.
pub const DEFAULT_ALPHA: f64 = 0.8;

/// Pipes' safe following distance for a follower travelling at
/// `speed_mps`: one 4.5 m car length per 10 mph.
///
/// # Examples
///
/// ```
/// use erpd_core::pipes_safe_distance;
/// // 20 mph ≈ 8.94 m/s -> two car lengths = 9 m.
/// let d = pipes_safe_distance(8.94);
/// assert!((d - 9.0).abs() < 0.05);
/// ```
pub fn pipes_safe_distance(speed_mps: f64) -> f64 {
    let mph = speed_mps / MPH;
    4.5 * (mph / 10.0)
}

/// True when the follower's gap satisfies Pipes' rule.
pub(crate) fn satisfies_pipes(gap: f64, follower_speed: f64) -> bool {
    gap >= pipes_safe_distance(follower_speed)
}

/// The Gipps-model minimum time gap: 1.5 × the 1 s average human reaction
/// time.
pub(crate) const GIPPS_TIME_GAP: f64 = 1.5;

/// True when the follower's time gap (`gap / speed`) satisfies the Gipps
/// criterion. Stationary followers trivially satisfy it.
pub(crate) fn satisfies_gipps(gap: f64, follower_speed: f64) -> bool {
    if follower_speed <= 1e-9 {
        return true;
    }
    gap / follower_speed >= GIPPS_TIME_GAP
}

/// True when the follower is close enough to its leader to be endangered by
/// the leader's sudden braking — i.e. it fails Pipes' rule or the Gipps
/// criterion — and therefore inherits discounted relevance.
pub fn follower_at_risk(link: &FollowerLink) -> bool {
    !satisfies_pipes(link.gap, link.follower_speed)
        || !satisfies_gipps(link.gap, link.follower_speed)
}

/// The relevance a follower inherits from its leader: `α^depth · R_leader`,
/// where `depth` is the follower's position in the chain behind the leader
/// (immediate follower: depth 1).
pub fn follower_relevance(leader_relevance: f64, alpha: f64, depth: usize) -> f64 {
    debug_assert!((0.0..=1.0).contains(&alpha), "alpha must be in (0, 1]");
    leader_relevance * alpha.powi(depth as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use erpd_tracking::ObjectId;

    fn link(gap: f64, speed: f64) -> FollowerLink {
        FollowerLink {
            follower: ObjectId(2),
            leader: ObjectId(1),
            gap,
            follower_speed: speed,
        }
    }

    #[test]
    fn pipes_scales_linearly_with_speed() {
        assert!(pipes_safe_distance(0.0).abs() < 1e-12);
        let at_10mph = pipes_safe_distance(10.0 * MPH);
        assert!((at_10mph - 4.5).abs() < 1e-9);
        let at_30mph = pipes_safe_distance(30.0 * MPH);
        assert!((at_30mph - 13.5).abs() < 1e-9);
    }

    #[test]
    fn pipes_criterion() {
        let speed = 20.0 * MPH; // needs 9 m
        assert!(satisfies_pipes(9.0, speed));
        assert!(!satisfies_pipes(8.9, speed));
    }

    #[test]
    fn gipps_criterion() {
        // 10 m/s needs a 15 m gap.
        assert!(satisfies_gipps(15.0, 10.0));
        assert!(!satisfies_gipps(14.9, 10.0));
        // Stationary vehicles always satisfy.
        assert!(satisfies_gipps(0.0, 0.0));
    }

    #[test]
    fn at_risk_if_either_criterion_fails() {
        // 10 m/s: Pipes needs ~10.07 m, Gipps needs 15 m.
        let speed = 10.0;
        assert!((pipes_safe_distance(speed) - 10.07).abs() < 0.01);
        // Gap of 12 m: Pipes OK, Gipps violated -> at risk.
        assert!(follower_at_risk(&link(12.0, speed)));
        // Gap of 16 m: both OK -> safe.
        assert!(!follower_at_risk(&link(16.0, speed)));
        // Gap of 5 m: both violated -> at risk.
        assert!(follower_at_risk(&link(5.0, speed)));
    }

    #[test]
    fn relevance_decays_along_chain() {
        let r = 0.9;
        assert!((follower_relevance(r, DEFAULT_ALPHA, 1) - 0.72).abs() < 1e-12);
        assert!((follower_relevance(r, DEFAULT_ALPHA, 2) - 0.576).abs() < 1e-12);
        assert_eq!(follower_relevance(r, 1.0, 3), r);
        assert_eq!(follower_relevance(0.0, DEFAULT_ALPHA, 1), 0.0);
    }
}
