//! A 2-D microscopic traffic + LiDAR simulator: the CARLA substitute for the
//! ERPD reproduction (see DESIGN.md §2 for the substitution argument).
//!
//! Provides exactly the pieces of CARLA the paper's evaluation uses:
//!
//! * an intersection HD map with lanes, turn routes and crosswalks
//!   ([`IntersectionMap`]),
//! * kinematic vehicles with car following, signal queueing and the paper's
//!   1-second driver-reaction model ([`Vehicle`]),
//! * pedestrians on crosswalks ([`PedestrianAgent`]),
//! * an occlusion-aware LiDAR model with resolution-scaled point synthesis
//!   ([`scan`]),
//! * a stepped [`World`] with collision detection, and
//! * the paper's scripted conflicts ([`Scenario`]): unprotected left turn,
//!   red-light violation, and the Fig. 1 occluded-pedestrian demo.
//!
//! # Examples
//!
//! ```
//! use erpd_sim::{Scenario, ScenarioConfig, ScenarioKind};
//!
//! let mut s = Scenario::build(ScenarioConfig {
//!     kind: ScenarioKind::UnprotectedLeftTurn,
//!     ..ScenarioConfig::default()
//! });
//! // Without dissemination the scripted conflict ends in a collision.
//! for _ in 0..200 {
//!     s.world.step();
//! }
//! assert!(!s.world.collisions().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod lidar;
mod map;
mod pedestrian;
mod scenario;
mod vehicle;
mod world;

pub use lidar::{scan, LidarFrame, LidarTarget, SensedObject};
pub use map::{Approach, IntersectionMap, LaneLocation, Route, RouteSpec, Turn};
pub use pedestrian::PedestrianAgent;
pub use scenario::{Scenario, ScenarioConfig, ScenarioKind};
pub use vehicle::{Vehicle, VehicleParams};
pub use world::{Building, EntityInfo, EntityKind, World, FRAME_PERIOD};
