//! The primary contribution of Wang & Cao's ICDCS 2024 paper:
//! **relevance estimation** and **relevance-aware perception dissemination**.
//!
//! Given predicted trajectories from `erpd-tracking`, this crate:
//!
//! 1. estimates the pairwise relevance `R_ij` of every perception object to
//!    every receiver vehicle via the collision-area / passing-interval
//!    method ([`trajectory_relevance`], §III-A1),
//! 2. propagates relevance to at-risk followers through car-following
//!    criteria ([`follower_at_risk`], §III-A2), assembling a
//!    [`RelevanceMatrix`], and
//! 3. schedules transmissions under a bandwidth budget with the greedy
//!    knapsack of Algorithm 1 ([`PlanInputs::greedy`]), alongside the
//!    baselines' strategies ([`PlanInputs::round_robin`],
//!    [`PlanInputs::broadcast`]) and an exact DP yardstick
//!    ([`PlanInputs::optimal`]).
//!
//! # Examples
//!
//! End-to-end: two occluded vehicles on a collision course, one byte budget.
//!
//! ```
//! use erpd_core::{
//!     build_relevance_matrix_multi, ObjectHypotheses, PlanInputs, RelevanceConfig, DEFAULT_ALPHA,
//! };
//! use erpd_tracking::{predict_ctrv, ObjectId, ObjectKind};
//! use erpd_geometry::Vec2;
//! use std::collections::BTreeMap;
//!
//! let objects = vec![
//!     ObjectHypotheses::single(predict_ctrv(ObjectId(1), ObjectKind::Vehicle,
//!         Vec2::new(-20.0, 0.0), 10.0, 0.0, 0.0, 4.5)),
//!     ObjectHypotheses::single(predict_ctrv(ObjectId(2), ObjectKind::Vehicle,
//!         Vec2::new(0.0, -20.0), 10.0, std::f64::consts::FRAC_PI_2, 0.0, 4.5)),
//! ];
//! let receivers = [ObjectId(1), ObjectId(2)];
//! let matrix = build_relevance_matrix_multi(
//!     &objects, &receivers, &[], DEFAULT_ALPHA, RelevanceConfig::default(),
//!     |_, _| false, // mutual occlusion
//! ).unwrap();
//! let sizes = BTreeMap::from([(ObjectId(1), 4000u64), (ObjectId(2), 4000u64)]);
//! let plan = PlanInputs { matrix: &matrix, sizes: &sizes, receivers: &receivers }.greedy(10_000);
//! assert_eq!(plan.assignments.len(), 2); // each learns about the other
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dissemination;
mod error;
mod following;
mod handover;
mod knapsack;
mod matrix;
mod relevance;

pub use dissemination::{Assignment, DisseminationPlan, PlanInputs};
pub use error::Error;
pub use handover::{PoseSample, Region, TrackSnapshot, VehicleHandover};
pub use following::{follower_at_risk, follower_relevance, pipes_safe_distance, DEFAULT_ALPHA};
pub use knapsack::{
    brute_force_knapsack, dp_knapsack, greedy_knapsack, KnapsackItem, KnapsackSolution,
};
pub use matrix::{build_relevance_matrix_multi, ObjectHypotheses, RelevanceMatrix};
pub use relevance::{
    joint_gaussian_relevance, trajectory_relevance, RelevanceBreakdown, RelevanceConfig,
    RelevanceMode,
};
