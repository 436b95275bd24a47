//! Property-based tests of the dissemination layer across crates: plans
//! are always feasible, relevance-sorted, and consistent with the matrix.

use erpd::prelude::*;
use erpd_rand::proptest::prelude::*;
// Pin the name: both preludes export a `Strategy` (erpd's enum, proptest's
// trait); the explicit import resolves the glob-glob ambiguity in favour of
// the trait this file actually uses.
use erpd_rand::proptest::strategy::Strategy;
use std::collections::BTreeMap;

fn arbitrary_problem() -> impl Strategy<Value = (RelevanceMatrix, BTreeMap<ObjectId, u64>, Vec<ObjectId>)> {
    (
        proptest::collection::vec((0u64..8, 100u64..900, 0.0f64..1.0), 0..40),
        proptest::collection::vec(100u64..109, 1..6),
    )
        .prop_map(|(entries, receivers)| {
            let mut matrix = RelevanceMatrix::new();
            let mut sizes = BTreeMap::new();
            let mut recv: Vec<ObjectId> = receivers.into_iter().map(ObjectId).collect();
            recv.sort();
            recv.dedup();
            for (obj, size, rel) in entries {
                sizes.insert(ObjectId(obj), size);
                for (k, &r) in recv.iter().enumerate() {
                    // Spread relevance deterministically across receivers.
                    let v = (rel * ((k + 1) as f64) / 3.0) % 1.0;
                    matrix.set(r, ObjectId(obj), v);
                }
            }
            (matrix, sizes, recv)
        })
}

proptest! {
    #[test]
    fn greedy_plan_is_feasible_and_positive(
        (matrix, sizes, recv) in arbitrary_problem(),
        budget in 0u64..20_000,
    ) {
        let plan = PlanInputs { matrix: &matrix, sizes: &sizes, receivers: &recv }.greedy(budget);
        prop_assert!(plan.total_bytes <= budget);
        for a in &plan.assignments {
            prop_assert!(a.relevance > 0.0, "never send irrelevant data");
            prop_assert_eq!(a.size_bytes, sizes[&a.object]);
            prop_assert!((matrix.get(a.receiver, a.object) - a.relevance).abs() < 1e-12);
        }
        // No duplicate (object, receiver) pairs.
        let mut pairs: Vec<_> = plan.assignments.iter().map(|a| (a.object, a.receiver)).collect();
        let n = pairs.len();
        pairs.sort();
        pairs.dedup();
        prop_assert_eq!(pairs.len(), n);
    }

    #[test]
    fn optimal_dominates_greedy(
        (matrix, sizes, recv) in arbitrary_problem(),
        budget in 1000u64..20_000,
    ) {
        let inputs = PlanInputs { matrix: &matrix, sizes: &sizes, receivers: &recv };
        let greedy = inputs.greedy(budget);
        let optimal = inputs.optimal(budget, 10);
        // DP with rounded-up weights is still feasible...
        prop_assert!(optimal.total_bytes <= budget);
        // ...and greedy cannot beat the exact optimum by more than the
        // granularity loss (bounded by one item's value per rounding; use a
        // generous tolerance tied to the instance).
        prop_assert!(greedy.total_relevance <= optimal.total_relevance + 1.0 + 1e-9);
    }

    #[test]
    fn round_robin_cycles_through_everything(
        (matrix, sizes, recv) in arbitrary_problem(),
    ) {
        prop_assume!(!sizes.is_empty() && !recv.is_empty());
        let max_size = sizes.values().copied().max().unwrap_or(0);
        let budget = max_size.max(1) * 2;
        // Run enough frames to guarantee every pair is served.
        let inputs = PlanInputs { matrix: &matrix, sizes: &sizes, receivers: &recv };
        let n_pairs = inputs.candidate_pairs();
        let mut offset = 0usize;
        let mut served = std::collections::BTreeSet::new();
        for _ in 0..(n_pairs * 2 + 4) {
            let (plan, next) = inputs.round_robin(budget, offset);
            prop_assert!(plan.total_bytes <= budget);
            for a in &plan.assignments {
                served.insert((a.receiver, a.object));
            }
            offset = next;
        }
        let expected: usize = recv
            .iter()
            .map(|r| sizes.keys().filter(|&&o| o != *r).count())
            .sum();
        prop_assert_eq!(served.len(), expected, "round robin must reach every pair");
    }

    #[test]
    fn broadcast_is_an_upper_bound(
        (matrix, sizes, recv) in arbitrary_problem(),
        budget in 0u64..50_000,
    ) {
        let inputs = PlanInputs { matrix: &matrix, sizes: &sizes, receivers: &recv };
        let broadcast = inputs.broadcast();
        let greedy = inputs.greedy(budget);
        prop_assert!(broadcast.total_bytes >= greedy.total_bytes);
        prop_assert!(broadcast.total_relevance >= greedy.total_relevance - 1e-9);
        prop_assert_eq!(
            broadcast.assignments.len(),
            recv.iter()
                .map(|r| sizes.keys().filter(|&&o| o != *r).count())
                .sum::<usize>()
        );
    }
}
