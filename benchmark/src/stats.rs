//! The benchmark's only statistics: nearest-rank percentiles and ratios.
//!
//! Percentiles delegate to `erpd_geometry::stats::quantile` — the one
//! nearest-rank implementation in the workspace — so a number printed here
//! and a number printed by the program can never differ by a rank.

use erpd_geometry::stats::quantile;

/// Nearest-rank `q`-quantile (`0 ≤ q ≤ 1`); `0.0` for no samples.
pub fn pct(samples: &[f64], q: f64) -> f64 {
    quantile(&mut samples.to_vec(), q)
}

/// Median by nearest rank.
pub fn p50(samples: &[f64]) -> f64 {
    pct(samples, 0.50)
}

/// `num / den`, or `0.0` when the denominator is zero — for shares and
/// per-frame rates of layers a workload never enters.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Textbook nearest rank, written independently of the library: the
    /// smallest sample with at least `q·n` samples at or below it.
    fn nearest_rank(samples: &[f64], q: f64) -> f64 {
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        let need = q * s.len() as f64;
        *s.iter()
            .enumerate()
            .find(|(i, _)| (*i + 1) as f64 >= need)
            .map(|(_, v)| v)
            .unwrap_or(&s[0])
    }

    #[test]
    fn percentiles_agree_with_the_library_quantile_and_the_definition() {
        let samples: Vec<f64> = (0..257).map(|i| ((i * 7919) % 263) as f64 * 0.25).collect();
        for n in [1usize, 2, 3, 20, 100, 257] {
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                let got = pct(&samples[..n], q);
                assert_eq!(got, quantile(&mut samples[..n].to_vec(), q), "n={n} q={q}");
                assert_eq!(got, nearest_rank(&samples[..n], q), "n={n} q={q}");
            }
        }
        // The case a truncating index gets wrong: p95 of 20 is the 19th.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(pct(&twenty, 0.95), 19.0);
        assert_eq!(p50(&twenty), 10.0);
        assert_eq!(pct(&[], 0.5), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
