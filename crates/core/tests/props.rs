//! Property-based tests for relevance estimation and the knapsack solvers.

use erpd_core::{
    brute_force_knapsack, dp_knapsack, greedy_knapsack, trajectory_relevance, KnapsackItem,
    RelevanceConfig, RelevanceMode,
};
use erpd_geometry::Vec2;
use erpd_tracking::{predict_ctrv, ObjectId, ObjectKind, HORIZON};
use erpd_rand::proptest::prelude::*;

fn items() -> impl Strategy<Value = Vec<KnapsackItem>> {
    proptest::collection::vec(
        (0.0f64..1.0, 1u64..100).prop_map(|(value, weight)| KnapsackItem { value, weight }),
        0..16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn greedy_feasible_and_zero_free(items in items(), budget in 0u64..500) {
        let sol = greedy_knapsack(&items, budget);
        prop_assert!(sol.total_weight <= budget);
        for &i in &sol.chosen {
            prop_assert!(items[i].value > 0.0);
        }
        // Chosen indices are unique and sorted.
        prop_assert!(sol.chosen.windows(2).all(|w| w[0] < w[1]));
        // Totals are consistent.
        let v: f64 = sol.chosen.iter().map(|&i| items[i].value).sum();
        prop_assert!((v - sol.total_value).abs() < 1e-9);
    }

    #[test]
    fn dp_exact_matches_brute_force(items in items(), budget in 0u64..500) {
        let dp = dp_knapsack(&items, budget, 1);
        let bf = brute_force_knapsack(&items, budget);
        prop_assert!((dp.total_value - bf.total_value).abs() < 1e-9,
                     "dp {} vs bf {}", dp.total_value, bf.total_value);
        prop_assert!(dp.total_weight <= budget);
    }

    #[test]
    fn greedy_never_beats_exact(items in items(), budget in 0u64..500) {
        let g = greedy_knapsack(&items, budget);
        let bf = brute_force_knapsack(&items, budget);
        prop_assert!(g.total_value <= bf.total_value + 1e-9);
    }

    #[test]
    fn dp_coarse_granularity_stays_feasible(items in items(), budget in 1u64..500, g in 1u64..40) {
        let sol = dp_knapsack(&items, budget, g);
        prop_assert!(sol.total_weight <= budget);
    }

    /// Relevance is bounded, symmetric in magnitude class, and consistent
    /// with its breakdown for arbitrary crossing geometries.
    #[test]
    fn relevance_bounds_and_consistency(
        ax in -60.0f64..-5.0, sa in 1.0f64..18.0,
        by in -60.0f64..-5.0, sb in 1.0f64..18.0,
    ) {
        let rc = RelevanceConfig::default();
        let a = predict_ctrv(ObjectId(1), ObjectKind::Vehicle, Vec2::new(ax, 0.0), sa, 0.0, 0.0, 4.5);
        let b = predict_ctrv(ObjectId(2), ObjectKind::Vehicle, Vec2::new(0.0, by), sb,
                             std::f64::consts::FRAC_PI_2, 0.0, 4.5);
        let r = trajectory_relevance(&a, &b, rc);
        prop_assert!((0.0..=1.0).contains(&r.relevance));
        prop_assert!((0.0..=1.0).contains(&r.r_ci));
        prop_assert!((0.0..=1.0).contains(&r.r_ttc));
        prop_assert!((r.relevance - (r.r_ci + r.r_ttc) / 2.0).abs() < 1e-9);
        prop_assert!(r.ttc >= 0.0 && r.ttc <= HORIZON + 1e-9);
        // Order of arguments does not change the outcome.
        let r2 = trajectory_relevance(&b, &a, rc);
        prop_assert!((r.relevance - r2.relevance).abs() < 1e-9);
        // Single-term modes never exceed their own term.
        let ci = trajectory_relevance(&a, &b, RelevanceConfig { mode: RelevanceMode::CiOnly, ..rc });
        prop_assert!((0.0..=1.0).contains(&ci.relevance));
    }

    /// Vehicles on parallel lanes are never relevant, at any speeds.
    #[test]
    fn parallel_traffic_never_relevant(sa in 0.5f64..20.0, sb in 0.5f64..20.0, dy in 3.0f64..30.0) {
        let a = predict_ctrv(ObjectId(1), ObjectKind::Vehicle, Vec2::ZERO, sa, 0.0, 0.0, 2.5);
        let b = predict_ctrv(ObjectId(2), ObjectKind::Vehicle, Vec2::new(0.0, dy), sb, 0.0, 0.0, 2.5);
        let r = trajectory_relevance(&a, &b, RelevanceConfig::default());
        prop_assert_eq!(r.relevance, 0.0);
    }
}
