//! # ERPD — Edge-assisted Relevance-aware Perception Dissemination
//!
//! A full Rust reproduction of *"Edge-Assisted Relevance-Aware Perception
//! Dissemination in Vehicular Networks"* (Wang & Cao, IEEE ICDCS 2024).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`geometry`] — vectors, poses, transforms, trajectories, intervals;
//! * [`pointcloud`] — ground removal, DBSCAN, moving-object extraction,
//!   merging, compression;
//! * [`sim`] — the traffic + LiDAR simulator (CARLA substitute) with the
//!   paper's conflict scenarios;
//! * [`tracking`] — multi-object tracking, trajectory prediction, the
//!   Rules 1–3 selection, and crowd clustering;
//! * [`core`] — relevance estimation and the dissemination knapsack (the
//!   paper's primary contribution);
//! * [`edge`] — the edge server, network model, baselines, and evaluation
//!   runners;
//! * [`par`] — the deterministic fork-join runtime the frame pipeline
//!   fans out on (thread-count control for benchmarks and differential
//!   tests).
//!
//! Most programs only need the [`prelude`].
//!
//! # Quickstart
//!
//! ```no_run
//! use erpd::prelude::*;
//!
//! let scenario = ScenarioConfig::default().with_kind(ScenarioKind::UnprotectedLeftTurn);
//! let result = run(RunConfig::new(Strategy::Ours, scenario)).expect("valid configuration");
//! println!("safe passage: {}", result.safe_passage);
//! ```
//!
//! # Lossy networks
//!
//! Real V2X channels drop, delay, and clip uploads. The fault layer is a
//! seeded, deterministic [`FaultModel`](prelude::FaultModel) on the network
//! config; the server coasts stale tracks instead of forgetting them:
//!
//! ```no_run
//! use erpd::prelude::*;
//!
//! let fault = FaultModel::default().with_loss_prob(0.2).with_seed(7);
//! let system = SystemConfig::new(Strategy::Ours)
//!     .with_network(NetworkConfig::default().with_fault(fault))
//!     .with_server(ServerConfig::default().with_coast_horizon(1.0));
//! let cfg = RunConfig::new(
//!     Strategy::Ours,
//!     ScenarioConfig::default().with_kind(ScenarioKind::UnprotectedLeftTurn),
//! )
//! .with_system(system);
//! let result = run(cfg)?;
//! println!(
//!     "delivery ratio {:.2}, staleness p95 {:.2}s",
//!     result.delivery_ratio, result.staleness_p95
//! );
//! # Ok::<(), Error>(())
//! ```
//!
//! # Threading
//!
//! There is one build flavour. The per-vehicle extraction, the edge
//! server's trajectory prediction, the per-receiver relevance assembly,
//! and the V2V per-receiver fusion all fan out on [`par`]'s fork-join
//! threads, each worker carrying at least two items
//! (a batch of up to three runs on the calling thread). An edge frame of
//! at least [`par::FAN_OUT_POINTS`] points also decodes its uploads across
//! workers and merges the traffic map beside association; `ERPD_THREADS=1`
//! or [`par::set_max_threads`]`(1)` runs everything sequentially at run
//! time, with bit-for-bit identical outputs (DESIGN.md §"Threading
//! model").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use erpd_core as core;
pub use erpd_edge as edge;
pub use erpd_geometry as geometry;
pub use erpd_par as par;
pub use erpd_pointcloud as pointcloud;
pub use erpd_sim as sim;
pub use erpd_tracking as tracking;

/// The names almost every ERPD program needs, re-exported from one place.
///
/// ```no_run
/// use erpd::prelude::*;
///
/// let cfg = RunConfig::new(
///     Strategy::Ours,
///     ScenarioConfig::default().with_kind(ScenarioKind::RedLightViolation),
/// );
/// let result = run(cfg).expect("valid configuration");
/// assert!(result.safe_passage);
/// ```
pub mod prelude {
    pub use erpd_core::{
        build_relevance_matrix_multi, Assignment, DisseminationPlan, ObjectHypotheses, PlanInputs,
        Region, RelevanceConfig, RelevanceMatrix, RelevanceMode, VehicleHandover,
    };
    pub use erpd_edge::{
        run, run_seeds, truncate_on_wire, AveragedResult, Coverage, DaemonConfig, Deployment,
        DeploymentBuilder, DeploymentReport, EdgeDaemon, EdgeServer, Error, FaultModel,
        FleetReport, FrameReport, HandoverPolicy, LoopbackTransport, ModuleTimes, NetworkConfig,
        RunConfig, RunResult, ServerConfig, ServerFrame, ServerHandle, ServingCore, Strategy,
        System, SystemBuilder, SystemConfig, TcpTransport, Transport, WireMessage, WireTransport,
        TRACK_ID_BASE, WIRE_VERSION,
    };
    pub use erpd_geometry::{Transform3, Vec2, Vec3};
    pub use erpd_par::{max_threads, set_max_threads};
    pub use erpd_pointcloud::{
        compress, decompress, ExtractionConfig, GroundFilter, MovingObjectExtractor, PointCloud,
    };
    pub use erpd_sim::{Scenario, ScenarioConfig, ScenarioKind, World};
    pub use erpd_tracking::{
        cluster_crowds, cluster_dbscan, mean_final_deviation, ObjectId, ObjectKind, Pedestrian,
        CROWD_LOCATION_EPS, HORIZON,
    };
}
