//! Object tracking, trajectory prediction, and tracking-reduction rules for
//! the ERPD stack (paper §II-D).
//!
//! The edge server cannot predict every object in real time, so it:
//!
//! 1. tracks merged-map detections over time with [`Tracker`],
//! 2. applies [`apply_rules`] (Rules 1–3 of the paper) to select which
//!    objects actually need a predicted trajectory — lane leaders,
//!    in-intersection vehicles, and one representative per pedestrian
//!    [`Crowd`], and
//! 3. predicts those trajectories with [`predict_ctrv`] (or along a map
//!    route, [`PredictedTrajectory::from_path`]), producing
//!    [`PredictedTrajectory`] values the relevance estimator consumes.
//!
//! # Examples
//!
//! ```
//! use erpd_tracking::{cluster_crowds, ObjectId, Pedestrian};
//! use erpd_geometry::Vec2;
//!
//! let peds: Vec<Pedestrian> = (0..6)
//!     .map(|i| Pedestrian {
//!         id: ObjectId(i),
//!         position: Vec2::new(i as f64 * 0.4, 0.0),
//!         orientation: 0.0,
//!         speed: 1.3,
//!     })
//!     .collect();
//! let crowds = cluster_crowds(&peds);
//! assert_eq!(crowds.len(), 1); // one coherent crowd, one prediction
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod crowd;
mod deviation;
mod object;
mod predict;
mod rules;
mod track;
mod window;

pub use crowd::{
    cluster_crowds, cluster_dbscan, Crowd, Pedestrian, CROWD_BETA, CROWD_GAMMA_DEG,
    CROWD_LOCATION_EPS,
};
pub use deviation::mean_final_deviation;
pub use object::{ObjectId, ObjectKind, ObjectState};
pub use predict::{predict_ctrv, PredictedTrajectory, HORIZON};
pub use rules::{apply_rules, FollowerLink, LanePosition, RuleInput, TrackingSelection};
pub use track::{Detection, Track, TrackedDetection, Tracker};
pub use window::ProximityWindow;
