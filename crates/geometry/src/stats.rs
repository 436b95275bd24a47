//! Small statistics helpers used across the stack.

use crate::Vec2;

/// Arithmetic mean of a slice; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Standard deviation of a set of points about their centroid
/// (root-mean-square distance to the centroid); `0.0` for fewer than two
/// points.
///
/// This is the "location deviation" the crowd-clustering algorithm compares
/// against the threshold β (paper §II-D).
pub fn location_std(points: &[Vec2]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let c = Vec2::centroid(points.iter().copied()).expect("non-empty");
    let var = points.iter().map(|p| p.distance_squared(c)).sum::<f64>() / points.len() as f64;
    var.sqrt()
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, sorted in place; `0.0` for
/// an empty slice.
///
/// This is the one nearest-rank implementation in the workspace — the
/// smallest sample such that at least `q·n` samples are ≤ it, i.e. index
/// `ceil(q·n) - 1` after sorting. A truncating index (`(q·n) as usize`) is
/// biased one rank high — for 20 samples it reports the maximum as the p95.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    samples[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_slice() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn location_std_of_cluster() {
        assert_eq!(location_std(&[]), 0.0);
        assert_eq!(location_std(&[Vec2::ZERO]), 0.0);
        // Four points at distance 1 from centroid.
        let pts = [
            Vec2::new(1.0, 0.0),
            Vec2::new(-1.0, 0.0),
            Vec2::new(0.0, 1.0),
            Vec2::new(0.0, -1.0),
        ];
        assert!((location_std(&pts) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_nearest_rank() {
        // p95 of 20 samples is the 19th, not the maximum.
        let mut s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&mut s, 0.95), 19.0);
        assert_eq!(quantile(&mut s, 0.5), 10.0);
        assert_eq!(quantile(&mut s, 1.0), 20.0);
        // Tiny q still returns the smallest sample.
        assert_eq!(quantile(&mut s, 0.001), 1.0);
        // With ten samples the p95 rounds up to the maximum.
        let mut s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&mut s, 0.95), 10.0);
        assert_eq!(quantile(&mut s, 0.5), 5.0);
        // Sorts its input: unsorted in, nearest-rank out.
        let mut s = vec![3.0, 1.0, 2.0];
        assert_eq!(quantile(&mut s, 0.5), 2.0);
        assert_eq!(s, vec![1.0, 2.0, 3.0]);
        assert_eq!(quantile(&mut [], 0.95), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_out_of_range() {
        let _ = quantile(&mut [1.0], 1.5);
    }
}
