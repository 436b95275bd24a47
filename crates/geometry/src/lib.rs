//! Geometry primitives for the ERPD vehicular-perception stack.
//!
//! This crate is the mathematical foundation of the reproduction of
//! *"Edge-Assisted Relevance-Aware Perception Dissemination in Vehicular
//! Networks"* (Wang & Cao, ICDCS 2024). It provides:
//!
//! * [`Vec2`] / [`Vec3`] — planar and spatial vectors,
//! * [`Pose2`] — SE(2) poses for vehicles and pedestrians,
//! * [`Transform3`] — the 4×4 LiDAR-to-world matrix `T_lw` of the paper's
//!   *Coordinate Transformation* module,
//! * [`Segment2`], [`Polyline2`] — trajectory geometry and crossings,
//! * [`Circle`] — the *collision area* around trajectory intersections,
//! * [`Obb2`] — oriented footprints for collision and occlusion tests,
//! * [`Interval`] — the passing-interval algebra behind `R_ci`,
//! * [`BivariateGaussian`] — per-waypoint prediction uncertainty,
//! * [`angle`] / [`stats`] — circular statistics and deviation metrics used
//!   by the crowd-clustering algorithm.
//!
//! # Examples
//!
//! Computing the collision-interval relevance ingredient for two crossing
//! trajectories:
//!
//! ```
//! use erpd_geometry::{Circle, Interval, Polyline2, Vec2};
//!
//! let a = Polyline2::new(vec![Vec2::new(-20.0, 0.0), Vec2::new(20.0, 0.0)]).unwrap();
//! let b = Polyline2::new(vec![Vec2::new(0.0, -20.0), Vec2::new(0.0, 20.0)]).unwrap();
//! let crossing = a.first_crossing(&b).unwrap();
//! let area = Circle::collision_area(crossing.point, 4.5, 4.5);
//!
//! // Arc-length intervals inside the collision area:
//! let ia = a.circle_intervals(&area)[0];
//! let ib = b.circle_intervals(&area)[0];
//! // At constant 10 m/s these become passing-time intervals:
//! let t1 = Interval::new(ia.0 / 10.0, ia.1 / 10.0).unwrap();
//! let t2 = Interval::new(ib.0 / 10.0, ib.1 / 10.0).unwrap();
//! assert!(t1.iou(&t2) > 0.99); // simultaneous arrival: near-certain conflict
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod angle;
mod circle;
mod gaussian;
mod interval;
mod obb;
mod polyline;
mod pose;
mod segment;
pub mod stats;
mod transform;
mod vec2;
mod vec3;

pub use circle::Circle;
pub use gaussian::BivariateGaussian;
pub use interval::Interval;
pub use obb::Obb2;
pub use polyline::{Polyline2, PolylineCrossing, REJECT_MARGIN};
pub use pose::Pose2;
pub use segment::{Segment2, SegmentIntersection};
pub use transform::Transform3;
pub use vec2::Vec2;
pub use vec3::Vec3;
