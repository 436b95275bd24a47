//! Angle utilities: normalisation, signed differences, and circular
//! statistics.
//!
//! Pedestrian crowd clustering (paper §II-D, Rule 3) splits clusters whose
//! *orientation standard deviation* exceeds a threshold γ. Orientations are
//! circular quantities, so the standard deviation must be computed with
//! circular statistics — [`circular_mean`] and [`circular_std_deg`] implement
//! that.

use std::f64::consts::{PI, TAU};

/// Converts degrees to radians.
#[inline]
pub fn deg_to_rad(deg: f64) -> f64 {
    deg * PI / 180.0
}

/// Converts radians to degrees.
#[inline]
pub(crate) fn rad_to_deg(rad: f64) -> f64 {
    rad * 180.0 / PI
}

/// Normalises an angle to `(-PI, PI]`.
///
/// ```
/// use erpd_geometry::angle::normalize_angle;
/// use std::f64::consts::PI;
/// assert!((normalize_angle(3.0 * PI) - PI).abs() < 1e-12);
/// assert!((normalize_angle(-PI) - PI).abs() < 1e-12);
/// ```
#[inline]
pub fn normalize_angle(a: f64) -> f64 {
    let mut r = a.rem_euclid(TAU);
    if r > PI {
        r -= TAU;
    }
    // rem_euclid maps -PI to PI already except for exact -PI inputs that
    // round to PI; keep the half-open convention (-PI, PI].
    if r <= -PI {
        r += TAU;
    }
    r
}

/// Smallest signed difference `a - b`, normalised to `(-PI, PI]`.
///
/// ```
/// use erpd_geometry::angle::angle_diff;
/// use std::f64::consts::PI;
/// assert!((angle_diff(0.1, -0.1) - 0.2).abs() < 1e-12);
/// // Wraps around the discontinuity:
/// assert!(angle_diff(PI - 0.1, -PI + 0.1).abs() - 0.2 < 1e-12);
/// ```
#[inline]
pub fn angle_diff(a: f64, b: f64) -> f64 {
    normalize_angle(a - b)
}

/// Absolute angular distance between two angles, in `[0, PI]`.
#[inline]
pub fn angle_dist(a: f64, b: f64) -> f64 {
    angle_diff(a, b).abs()
}

/// Circular mean of a set of angles (radians); `None` when the input is
/// empty or the resultant vector is degenerate (e.g. two opposite angles).
pub fn circular_mean<I: IntoIterator<Item = f64>>(angles: I) -> Option<f64> {
    let mut s = 0.0;
    let mut c = 0.0;
    let mut n = 0usize;
    for a in angles {
        s += a.sin();
        c += a.cos();
        n += 1;
    }
    if n == 0 {
        return None;
    }
    let r = (s * s + c * c).sqrt() / n as f64;
    if r < 1e-12 {
        None
    } else {
        Some(s.atan2(c))
    }
}

/// Circular standard deviation of a set of angles, returned in **degrees**.
///
/// Uses the standard definition `sqrt(-2 ln R̄)` where `R̄` is the mean
/// resultant length. Returns `0.0` for fewer than two samples and a large
/// value (capped at 180°) for maximally dispersed inputs.
pub fn circular_std_deg(angles: &[f64]) -> f64 {
    if angles.len() < 2 {
        return 0.0;
    }
    let n = angles.len() as f64;
    let s: f64 = angles.iter().map(|a| a.sin()).sum::<f64>() / n;
    let c: f64 = angles.iter().map(|a| a.cos()).sum::<f64>() / n;
    let r = (s * s + c * c).sqrt().clamp(0.0, 1.0);
    if r < 1e-12 {
        return 180.0;
    }
    rad_to_deg((-2.0 * r.ln()).sqrt()).min(180.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_range() {
        for k in -8i32..=8 {
            let a = k as f64 * 1.3;
            let n = normalize_angle(a);
            assert!(n > -PI - 1e-12 && n <= PI + 1e-12, "{a} -> {n}");
            // Same direction as the input angle.
            assert!((n.sin() - a.sin()).abs() < 1e-9);
            assert!((n.cos() - a.cos()).abs() < 1e-9);
        }
    }

    #[test]
    fn normalize_boundary() {
        assert!((normalize_angle(PI) - PI).abs() < 1e-12);
        assert!((normalize_angle(-PI) - PI).abs() < 1e-12);
        assert_eq!(normalize_angle(0.0), 0.0);
    }

    #[test]
    fn diff_wraps() {
        let d = angle_diff(PI - 0.05, -(PI - 0.05));
        assert!((d.abs() - 0.1).abs() < 1e-12);
        assert!((angle_diff(0.5, 0.2) - 0.3).abs() < 1e-12);
        assert!((angle_diff(0.2, 0.5) + 0.3).abs() < 1e-12);
    }

    #[test]
    fn dist_is_symmetric_and_bounded() {
        for (a, b) in [(0.0, 3.0), (-2.9, 3.1), (1.0, 1.0)] {
            let d = angle_dist(a, b);
            assert!((d - angle_dist(b, a)).abs() < 1e-12);
            assert!((0.0..=PI + 1e-12).contains(&d));
        }
    }

    #[test]
    fn degree_radian_round_trip() {
        for d in [-720.0, -90.0, 0.0, 45.0, 360.0] {
            assert!((rad_to_deg(deg_to_rad(d)) - d).abs() < 1e-9);
        }
    }

    #[test]
    fn circular_mean_basic() {
        let m = circular_mean([0.1, -0.1]).unwrap();
        assert!(m.abs() < 1e-12);
        // Mean across the wrap-around discontinuity: angles near PI.
        let m = circular_mean([PI - 0.1, -(PI - 0.1)]).unwrap();
        assert!((m.abs() - PI).abs() < 1e-9);
        assert!(circular_mean(std::iter::empty()).is_none());
        // Opposite angles have no meaningful mean.
        assert!(circular_mean([0.0, PI]).is_none());
    }

    #[test]
    fn circular_std_tight_cluster_is_small() {
        let angles: Vec<f64> = (0..10).map(|i| 0.5 + 0.001 * i as f64).collect();
        assert!(circular_std_deg(&angles) < 0.5);
    }

    #[test]
    fn circular_std_two_directions_is_large() {
        // Half heading east, half heading west: hugely dispersed.
        let angles = [0.0, 0.0, 0.0, PI, PI, PI];
        assert!(circular_std_deg(&angles) > 90.0);
    }

    #[test]
    fn circular_std_handles_wraparound() {
        // Angles tightly clustered around the +-PI discontinuity must still
        // register as a tight cluster; a naive linear std would explode.
        let angles = [PI - 0.01, -(PI - 0.01), PI - 0.005, -(PI - 0.002)];
        assert!(circular_std_deg(&angles) < 2.0);
    }

    #[test]
    fn circular_std_degenerate_inputs() {
        assert_eq!(circular_std_deg(&[]), 0.0);
        assert_eq!(circular_std_deg(&[1.0]), 0.0);
    }
}
