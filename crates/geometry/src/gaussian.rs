//! Bivariate Gaussian distributions.
//!
//! Trajectory predictors in the literature the paper builds on (Social-LSTM
//! and friends, refs [24]–[26]) emit a bivariate Gaussian per predicted
//! waypoint. Our kinematic predictor does the same so the uncertainty-aware
//! parts of the relevance pipeline exercise the identical interface.

use crate::Vec2;

/// A bivariate Gaussian over the road plane.
///
/// # Examples
///
/// ```
/// use erpd_geometry::{BivariateGaussian, Vec2};
///
/// let g = BivariateGaussian::isotropic(Vec2::ZERO, 1.0).unwrap();
/// // The pdf peaks at the mean.
/// assert!(g.pdf(Vec2::ZERO) > g.pdf(Vec2::new(1.0, 1.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BivariateGaussian {
    mean: Vec2,
    sigma_x: f64,
    sigma_y: f64,
    rho: f64,
}

impl BivariateGaussian {
    /// Creates a Gaussian with per-axis standard deviations and correlation
    /// `rho`. Returns `None` unless `sigma_x, sigma_y > 0` and `|rho| < 1`.
    pub fn new(mean: Vec2, sigma_x: f64, sigma_y: f64, rho: f64) -> Option<Self> {
        let ok = sigma_x.is_finite()
            && sigma_y.is_finite()
            && rho.is_finite()
            && sigma_x > 0.0
            && sigma_y > 0.0
            && rho.abs() < 1.0
            && mean.is_finite();
        ok.then_some(BivariateGaussian {
            mean,
            sigma_x,
            sigma_y,
            rho,
        })
    }

    /// Creates an isotropic (circular) Gaussian.
    pub fn isotropic(mean: Vec2, sigma: f64) -> Option<Self> {
        Self::new(mean, sigma, sigma, 0.0)
    }

    /// The mean.
    #[inline]
    pub fn mean(&self) -> Vec2 {
        self.mean
    }

    /// Standard deviation along x.
    #[inline]
    pub fn sigma_x(&self) -> f64 {
        self.sigma_x
    }

    /// Correlation coefficient.
    #[inline]
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Squared Mahalanobis distance from the mean to `p`.
    pub fn mahalanobis_squared(&self, p: Vec2) -> f64 {
        let dx = (p.x - self.mean.x) / self.sigma_x;
        let dy = (p.y - self.mean.y) / self.sigma_y;
        let one_m_r2 = 1.0 - self.rho * self.rho;
        (dx * dx - 2.0 * self.rho * dx * dy + dy * dy) / one_m_r2
    }

    /// Probability density at `p`.
    pub fn pdf(&self, p: Vec2) -> f64 {
        let one_m_r2 = 1.0 - self.rho * self.rho;
        let norm = 1.0 / (2.0 * std::f64::consts::PI * self.sigma_x * self.sigma_y * one_m_r2.sqrt());
        norm * (-0.5 * self.mahalanobis_squared(p)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_rules() {
        assert!(BivariateGaussian::new(Vec2::ZERO, 1.0, 1.0, 0.0).is_some());
        assert!(BivariateGaussian::new(Vec2::ZERO, 0.0, 1.0, 0.0).is_none());
        assert!(BivariateGaussian::new(Vec2::ZERO, 1.0, 1.0, 1.0).is_none());
        assert!(BivariateGaussian::new(Vec2::ZERO, 1.0, -1.0, 0.0).is_none());
        assert!(BivariateGaussian::new(Vec2::new(f64::NAN, 0.0), 1.0, 1.0, 0.0).is_none());
    }

    #[test]
    fn pdf_peaks_at_mean_and_is_symmetric() {
        let g = BivariateGaussian::isotropic(Vec2::new(1.0, 2.0), 0.5).unwrap();
        let at_mean = g.pdf(Vec2::new(1.0, 2.0));
        for offset in [
            Vec2::new(0.3, 0.0),
            Vec2::new(-0.3, 0.0),
            Vec2::new(0.0, 0.3),
            Vec2::new(0.0, -0.3),
        ] {
            let p = g.pdf(Vec2::new(1.0, 2.0) + offset);
            assert!(p < at_mean);
            let q = g.pdf(Vec2::new(1.0, 2.0) - offset);
            assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn pdf_integrates_to_one_numerically() {
        let g = BivariateGaussian::new(Vec2::ZERO, 0.8, 1.3, 0.4).unwrap();
        let step = 0.1;
        let mut acc = 0.0;
        let mut x = -8.0;
        while x < 8.0 {
            let mut y = -8.0;
            while y < 8.0 {
                acc += g.pdf(Vec2::new(x, y)) * step * step;
                y += step;
            }
            x += step;
        }
        assert!((acc - 1.0).abs() < 1e-2, "integral = {acc}");
    }

    #[test]
    fn mahalanobis_units() {
        let g = BivariateGaussian::new(Vec2::ZERO, 2.0, 1.0, 0.0).unwrap();
        assert!((g.mahalanobis_squared(Vec2::new(2.0, 0.0)) - 1.0).abs() < 1e-12);
        assert!((g.mahalanobis_squared(Vec2::new(0.0, 1.0)) - 1.0).abs() < 1e-12);
        assert_eq!(g.mahalanobis_squared(Vec2::ZERO), 0.0);
    }
}
