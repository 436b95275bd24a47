//! Point-cloud processing for the ERPD stack: the vehicle-side *Moving
//! Objects Extraction* module and the edge-side *Point Cloud Merging* module
//! of Wang & Cao's ICDCS 2024 paper.
//!
//! The vehicle-side pipeline is:
//!
//! 1. [`GroundFilter`] — drop ground returns (`z ≤ -h + ε`),
//! 2. [`dbscan`] — segment the remaining points into objects,
//! 3. [`MovingObjectExtractor`] — keep only objects whose location changed
//!    across consecutive frames,
//! 4. (optionally) [`compress`] — quantise before upload.
//!
//! The edge-side [`PointCloudMerger`] deduplicates world-frame uploads
//! into the global traffic map: the set of occupied voxels, of which the
//! server reads the count.
//!
//! # Examples
//!
//! ```
//! use erpd_pointcloud::{GroundFilter, PointCloud};
//! use erpd_geometry::Vec3;
//!
//! // A raw frame: two ground returns and one car return.
//! let raw = PointCloud::from_points(vec![
//!     Vec3::new(2.0, 0.0, -1.8),
//!     Vec3::new(4.0, 1.0, -1.78),
//!     Vec3::new(6.0, 0.0, -0.6),
//! ]);
//! let no_ground = GroundFilter::new(1.8, 0.1).apply(&raw);
//! assert_eq!(no_ground.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cloud;
mod compress;
mod dbscan;
mod ground;
mod merge;
mod motion;

pub use cloud::{IntoPoints, PointCloud, Points, POINT_WIRE_BYTES};
pub use compress::{compress, decompress, max_quantization_error, DecodeError};
pub use dbscan::{dbscan, DbscanParams, DbscanResult, DbscanScratch};
pub use ground::GroundFilter;
pub use merge::PointCloudMerger;
pub use motion::{
    DetectedObject, ExtractionConfig, ExtractionOutput, ExtractionScratch, MovingObjectExtractor,
};
