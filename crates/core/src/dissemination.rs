//! The perception-dissemination scheduler (paper §III-B, Algorithm 1) and
//! the dissemination strategies of the baselines.
//!
//! A dissemination decision is a set of `(object, receiver)` assignments.
//! The planners are the methods of [`PlanInputs`]: the paper's system
//! solves the knapsack with [`PlanInputs::greedy`]; `EMP` uses a
//! bandwidth-capped [`PlanInputs::round_robin`] over every pair;
//! `Unlimited` uses [`PlanInputs::broadcast`]. [`PlanInputs::optimal`]
//! (exact DP) is the ablation yardstick.
//!
//! A plan is plain data here; its byte layout on the vehicle↔edge link is
//! owned by `erpd_edge::wire`.

use crate::{dp_knapsack, greedy_knapsack, KnapsackItem, RelevanceMatrix};
use erpd_tracking::ObjectId;
use std::collections::BTreeMap;

/// One scheduled transmission: send `object`'s perception data to
/// `receiver`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// The perception object being disseminated.
    pub object: ObjectId,
    /// The vehicle receiving it.
    pub receiver: ObjectId,
    /// The relevance `R_ij` that justified the transmission.
    pub relevance: f64,
    /// Bytes on the wire.
    pub size_bytes: u64,
}

/// A complete dissemination decision for one frame.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DisseminationPlan {
    /// Scheduled transmissions.
    pub assignments: Vec<Assignment>,
    /// Total relevance value of the plan (the objective of Definition 1).
    pub total_relevance: f64,
    /// Total bytes transmitted.
    pub total_bytes: u64,
}

impl DisseminationPlan {
    fn from_assignments(assignments: Vec<Assignment>) -> Self {
        let total_relevance = assignments.iter().map(|a| a.relevance).sum();
        let total_bytes = assignments.iter().map(|a| a.size_bytes).sum();
        DisseminationPlan {
            assignments,
            total_relevance,
            total_bytes,
        }
    }

    /// True when nothing is disseminated.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }
}

/// Borrowed view of everything a dissemination planner needs for one
/// frame: the relevance matrix, the per-object wire sizes, and the
/// connected receivers. This is the single entry point the edge's
/// per-strategy dissemination goes through — each planner below is a
/// method, so a new strategy only has to accept a `PlanInputs`.
#[derive(Debug, Clone, Copy)]
pub struct PlanInputs<'a> {
    /// The relevance matrix `R_ij`.
    pub matrix: &'a RelevanceMatrix,
    /// Perception-data sizes per object, bytes.
    pub sizes: &'a BTreeMap<ObjectId, u64>,
    /// Connected vehicles able to receive data.
    pub receivers: &'a [ObjectId],
}

impl PlanInputs<'_> {
    /// Candidate `(object, receiver)` pairs a planner ranks this frame.
    pub fn candidate_pairs(&self) -> usize {
        self.sizes.len() * self.receivers.len()
    }

    /// The paper's Algorithm 1: greedy relevance-per-byte scheduling under
    /// the bandwidth budget `B` (bytes per frame).
    ///
    /// # Examples
    ///
    /// ```
    /// use erpd_core::{PlanInputs, RelevanceMatrix};
    /// use erpd_tracking::ObjectId;
    /// use std::collections::BTreeMap;
    ///
    /// let mut matrix = RelevanceMatrix::new();
    /// matrix.set(ObjectId(10), ObjectId(1), 0.9); // object 1 relevant to vehicle 10
    /// let sizes = BTreeMap::from([(ObjectId(1), 1000u64)]);
    /// let inputs = PlanInputs { matrix: &matrix, sizes: &sizes, receivers: &[ObjectId(10)] };
    /// let plan = inputs.greedy(1500);
    /// assert_eq!(plan.assignments.len(), 1);
    /// assert_eq!(plan.total_bytes, 1000);
    /// ```
    pub fn greedy(&self, budget: u64) -> DisseminationPlan {
        let (pairs, items) = flatten(self.matrix, self.sizes);
        let sol = greedy_knapsack(&items, budget);
        plan_from_chosen(&sol.chosen, &pairs, &items)
    }

    /// Exact dissemination via the DP knapsack (ablation yardstick).
    pub fn optimal(&self, budget: u64, granularity: u64) -> DisseminationPlan {
        let (pairs, items) = flatten(self.matrix, self.sizes);
        let sol = dp_knapsack(&items, budget, granularity);
        plan_from_chosen(&sol.chosen, &pairs, &items)
    }

    /// The `Unlimited` baseline: every object to every receiver, no budget.
    /// Relevance is recorded where known (0 otherwise).
    pub fn broadcast(&self) -> DisseminationPlan {
        let mut assignments = Vec::new();
        for &receiver in self.receivers {
            for (&object, &size_bytes) in self.sizes {
                if object == receiver {
                    continue;
                }
                assignments.push(Assignment {
                    object,
                    receiver,
                    relevance: self.matrix.get(receiver, object),
                    size_bytes,
                });
            }
        }
        DisseminationPlan::from_assignments(assignments)
    }

    /// The `EMP`-style Round-Robin strategy: all `(receiver, object)` pairs
    /// in a fixed rotation, transmitted in order until the budget is
    /// exhausted. `offset` is where the rotation starts this frame; the
    /// returned offset resumes the rotation next frame, so over time every
    /// pair gets a turn.
    pub fn round_robin(&self, budget: u64, offset: usize) -> (DisseminationPlan, usize) {
        let mut pairs = Vec::new();
        for &receiver in self.receivers {
            for (&object, &size_bytes) in self.sizes {
                if object != receiver {
                    pairs.push((receiver, object, size_bytes));
                }
            }
        }
        if pairs.is_empty() {
            return (DisseminationPlan::default(), 0);
        }
        let mut assignments = Vec::new();
        let mut used = 0u64;
        let mut idx = offset % pairs.len();
        for _ in 0..pairs.len() {
            let (receiver, object, size_bytes) = pairs[idx];
            if used + size_bytes > budget {
                break;
            }
            used += size_bytes;
            assignments.push(Assignment {
                object,
                receiver,
                relevance: self.matrix.get(receiver, object),
                size_bytes,
            });
            idx = (idx + 1) % pairs.len();
        }
        (DisseminationPlan::from_assignments(assignments), idx)
    }
}

/// Flattens a relevance matrix into deterministic (pair, item) lists.
fn flatten(
    matrix: &RelevanceMatrix,
    sizes: &BTreeMap<ObjectId, u64>,
) -> (Vec<(ObjectId, ObjectId, f64)>, Vec<KnapsackItem>) {
    let mut pairs = Vec::new();
    let mut items = Vec::new();
    for (receiver, object, relevance) in matrix.iter() {
        let Some(&size) = sizes.get(&object) else {
            continue; // object has no perception data this frame
        };
        pairs.push((receiver, object, relevance));
        items.push(KnapsackItem {
            value: relevance,
            weight: size,
        });
    }
    (pairs, items)
}

fn plan_from_chosen(
    chosen: &[usize],
    pairs: &[(ObjectId, ObjectId, f64)],
    items: &[KnapsackItem],
) -> DisseminationPlan {
    DisseminationPlan::from_assignments(
        chosen
            .iter()
            .map(|&i| Assignment {
                receiver: pairs[i].0,
                object: pairs[i].1,
                relevance: pairs[i].2,
                size_bytes: items[i].weight,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes(entries: &[(u64, u64)]) -> BTreeMap<ObjectId, u64> {
        entries.iter().map(|&(o, s)| (ObjectId(o), s)).collect()
    }

    fn matrix(entries: &[(u64, u64, f64)]) -> RelevanceMatrix {
        let mut m = RelevanceMatrix::new();
        for &(r, o, v) in entries {
            m.set(ObjectId(r), ObjectId(o), v);
        }
        m
    }

    fn inputs<'a>(
        matrix: &'a RelevanceMatrix,
        sizes: &'a BTreeMap<ObjectId, u64>,
        receivers: &'a [ObjectId],
    ) -> PlanInputs<'a> {
        PlanInputs {
            matrix,
            sizes,
            receivers,
        }
    }

    #[test]
    fn greedy_respects_budget_and_relevance() {
        let m = matrix(&[(10, 1, 0.9), (10, 2, 0.8), (11, 1, 0.3)]);
        let s = sizes(&[(1, 1000), (2, 1000)]);
        let plan = inputs(&m, &s, &[]).greedy(2000);
        assert_eq!(plan.assignments.len(), 2);
        assert!(plan.total_bytes <= 2000);
        // Highest-density pairs first: (10,1) and (10,2).
        assert!(plan.assignments.iter().all(|a| a.receiver == ObjectId(10)));
    }

    #[test]
    fn greedy_counts_size_per_transmission() {
        // Sending one object to two receivers costs its size twice.
        let m = matrix(&[(10, 1, 0.9), (11, 1, 0.9)]);
        let s = sizes(&[(1, 1500)]);
        let plan = inputs(&m, &s, &[]).greedy(2000);
        assert_eq!(plan.assignments.len(), 1);
        let plan = inputs(&m, &s, &[]).greedy(3000);
        assert_eq!(plan.assignments.len(), 2);
        assert_eq!(plan.total_bytes, 3000);
    }

    #[test]
    fn objects_without_data_are_skipped() {
        let m = matrix(&[(10, 1, 0.9), (10, 2, 0.9)]);
        let s = sizes(&[(1, 100)]); // object 2 has no size entry
        let plan = inputs(&m, &s, &[]).greedy(10_000);
        assert_eq!(plan.assignments.len(), 1);
        assert_eq!(plan.assignments[0].object, ObjectId(1));
    }

    #[test]
    fn optimal_beats_or_matches_greedy() {
        // Greedy trap: dense small item blocks the heavy optimum.
        let m = matrix(&[(10, 1, 0.5), (10, 2, 0.6)]);
        let s = sizes(&[(1, 10), (2, 100)]);
        let budget = 105;
        let g = inputs(&m, &s, &[]).greedy(budget);
        let o = inputs(&m, &s, &[]).optimal(budget, 1);
        assert!(o.total_relevance >= g.total_relevance);
        assert!(o.total_bytes <= budget);
    }

    #[test]
    fn broadcast_covers_all_pairs() {
        let m = matrix(&[(10, 1, 0.9)]);
        let objs = sizes(&[(1, 500), (2, 700)]);
        let receivers = [ObjectId(10), ObjectId(11)];
        let all = inputs(&m, &objs, &receivers);
        assert_eq!(all.candidate_pairs(), 4);
        let plan = all.broadcast();
        assert_eq!(plan.assignments.len(), 4);
        assert_eq!(plan.total_bytes, 2 * (500 + 700));
        // Relevance recorded where known.
        let known = plan
            .assignments
            .iter()
            .find(|a| a.receiver == ObjectId(10) && a.object == ObjectId(1))
            .unwrap();
        assert_eq!(known.relevance, 0.9);
    }

    #[test]
    fn broadcast_skips_self() {
        let objs = sizes(&[(10, 500), (1, 500)]);
        let receivers = [ObjectId(10)];
        let plan = inputs(&RelevanceMatrix::new(), &objs, &receivers).broadcast();
        assert_eq!(plan.assignments.len(), 1);
        assert_eq!(plan.assignments[0].object, ObjectId(1));
    }

    #[test]
    fn round_robin_fills_budget_in_rotation() {
        let objs = sizes(&[(1, 400), (2, 400)]);
        let receivers = [ObjectId(10), ObjectId(11)];
        // 4 pairs of 400 bytes; budget 1000 -> 2 transmissions per frame.
        let blind = RelevanceMatrix::new();
        let (plan1, next) = inputs(&blind, &objs, &receivers).round_robin(1000, 0);
        assert_eq!(plan1.assignments.len(), 2);
        assert_eq!(next, 2);
        let (plan2, next2) = inputs(&blind, &objs, &receivers).round_robin(1000, next);
        assert_eq!(plan2.assignments.len(), 2);
        assert_eq!(next2, 0);
        // Across the two frames, all four pairs were served exactly once.
        let mut all: Vec<_> = plan1
            .assignments
            .iter()
            .chain(&plan2.assignments)
            .map(|a| (a.receiver, a.object))
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn round_robin_is_relevance_blind() {
        let m = matrix(&[(11, 2, 1.0)]); // the only relevant pair
        let objs = sizes(&[(1, 600), (2, 600)]);
        let receivers = [ObjectId(10), ObjectId(11)];
        // Budget of 600: only one pair per frame, and rotation starts at 0
        // regardless of where the relevance is -> the relevant pair waits.
        let (plan, _) = inputs(&m, &objs, &receivers).round_robin(600, 0);
        assert_eq!(plan.assignments.len(), 1);
        assert_eq!(plan.total_relevance, 0.0);
    }

    #[test]
    fn round_robin_empty_inputs() {
        let (plan, next) =
            inputs(&RelevanceMatrix::new(), &BTreeMap::new(), &[]).round_robin(1000, 5);
        assert!(plan.is_empty());
        assert_eq!(next, 0);
    }

    #[test]
    fn empty_matrix_yields_empty_plan() {
        let plan = inputs(&RelevanceMatrix::new(), &sizes(&[(1, 100)]), &[]).greedy(1000);
        assert!(plan.is_empty());
        assert_eq!(plan.total_bytes, 0);
        assert_eq!(plan.total_relevance, 0.0);
    }
}
