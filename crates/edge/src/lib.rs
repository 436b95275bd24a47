//! The edge-assisted relevance-aware perception dissemination **system**:
//! everything between the simulated LiDAR and the alerted driver.
//!
//! * [`VehicleSide`] / [`VehicleFleet`] — vehicle-side processing per
//!   strategy (ours / EMP / unlimited), for one vehicle and for a frame's
//!   worth of scans,
//! * [`Stage`] / [`PipelineBuilder`] — the typed stage graph of the server
//!   pipeline (merge → associate → track → predict → relevance →
//!   disseminate; the last hop is a `match` on the [`Strategy`] in
//!   [`ServingCore::serve`]),
//! * [`EdgeServer`] — the composed server half of that graph: traffic map,
//!   tracking, rule-based prediction, relevance matrix,
//! * [`System`] — one object wiring scans → uploads → faulty links →
//!   server → dissemination plan → driver alerts per frame,
//! * [`FaultModel`] — seeded, deterministic channel impairments (loss,
//!   jitter, churn, truncation) with server-side coasting to degrade
//!   gracefully,
//! * [`run`] / [`run_seeds`] — scenario runners aggregating the paper's
//!   evaluation metrics (safe passage, min distance, bandwidths, latency,
//!   delivery ratio, staleness),
//! * [`WireMessage`] / [`Transport`] — the versioned binary wire protocol
//!   and the carrier seam between vehicles and the serving core (loopback
//!   or in-process codec round-trip; [`TcpTransport`] is the framed socket
//!   endpoint the daemon's clients use),
//! * [`EdgeDaemon`] / [`capacity`] — the streaming TCP daemon serving the
//!   same [`ServingCore`] the in-process [`System`] runs, and the load
//!   generator that measures how many vehicle clients one daemon sustains.
//!
//! # Examples
//!
//! ```no_run
//! use erpd_edge::{run, RunConfig, Strategy};
//! use erpd_sim::{ScenarioConfig, ScenarioKind};
//!
//! let cfg = RunConfig::new(
//!     Strategy::Ours,
//!     ScenarioConfig::default().with_kind(ScenarioKind::UnprotectedLeftTurn),
//! );
//! let result = run(cfg).expect("valid configuration");
//! assert!(result.safe_passage);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod capacity;
mod daemon;
mod fault;
mod metrics;
mod multi;
mod network;
mod pipeline;
mod server;
mod stages;
mod system;
mod transport;
mod upload;
pub mod wire;

pub use daemon::{DaemonConfig, EdgeDaemon, ServerHandle};
pub use erpd_core::Error;
pub use fault::FaultModel;
pub use pipeline::{
    AssociateStage, AssociatedDetections, ClusterExtent, FrameCx, GreedyDissemination, Kinematics,
    MergeStage, PipelineBuilder, PlanRequest, PredictStage, Predictions, RelevanceStage, Stage,
    Staged, TrackStage, Tracks, TrafficMap, POSE_HISTORY_LEN,
};
pub use metrics::{run, run_seeds, AveragedResult, RunConfig, RunResult};
pub use multi::{
    Coverage, Deployment, DeploymentBuilder, DeploymentReport, FleetReport, HandoverPolicy,
};
pub use stages::{StageSample, StageTimes};
pub use network::NetworkConfig;
pub use server::{DetectionSummary, EdgeServer, ServerConfig, ServerFrame, TRACK_ID_BASE};
pub use system::{FrameReport, ModuleTimes, System, SystemBuilder, SystemConfig};
pub use transport::{LoopbackTransport, ServingCore, TcpTransport, Transport, WireTransport};
pub use wire::{truncate_on_wire, WireMessage, WIRE_VERSION};
pub use upload::{Strategy, Upload, UploadedObject, VehicleFleet, VehicleScratch, VehicleSide};
