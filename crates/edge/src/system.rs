//! The end-to-end system: per-frame scan → upload → server → dissemination
//! → alerts, for each evaluated strategy.

use crate::fault::FaultStream;
use crate::stages::{StageSample, StageTimes};
use crate::transport::{LoopbackTransport, ServingCore, Transport};
use crate::{EdgeServer, NetworkConfig, ServerConfig, ServerFrame, Strategy, Upload, VehicleFleet};
use erpd_core::{DisseminationPlan, Error, VehicleHandover};
use erpd_geometry::Vec2;
use erpd_sim::{LidarFrame, World};
use erpd_tracking::ObjectId;
use std::collections::{BTreeMap, BTreeSet};

/// DSRC-class V2V radio range, metres (the `V2v` strategy).
pub(crate) const V2V_RANGE_M: f64 = 200.0;

/// Shared V2V ad-hoc channel capacity, bits/s: broadcasts beyond this per
/// frame are not heard (the scalability wall AUTOCAST engineers around).
pub(crate) const V2V_CHANNEL_BPS: f64 = 6e6;

/// Minimum relevance for a received object to trigger the driver alert
/// (the receiver-side ADAS threshold).
const ALERT_THRESHOLD: f64 = 0.02;

/// Per-module wall times (the Fig. 14b breakdown), seconds: one frame's
/// from [`FrameReport::times`], a run's per-frame means in
/// [`crate::RunResult::module_times`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModuleTimes {
    /// Vehicle-side moving-object extraction (max across vehicles), s.
    pub extraction: f64,
    /// Uplink transmission (max across vehicles), s.
    pub upload_tx: f64,
    /// Traffic-map building at the server, s.
    pub map_build: f64,
    /// Tracking + trajectory prediction + relevance, s.
    pub prediction: f64,
    /// Dissemination decision (the knapsack), s.
    pub dissemination: f64,
    /// Downlink transmission of the scheduled data, s.
    pub downlink_tx: f64,
}

impl ModuleTimes {
    /// End-to-end latency: the serial path through the pipeline.
    pub fn end_to_end(&self) -> f64 {
        self.extraction
            + self.upload_tx
            + self.map_build
            + self.prediction
            + self.dissemination
            + self.downlink_tx
    }

    /// Adds another breakdown field by field (run-level accumulation).
    pub(crate) fn add(&mut self, other: &ModuleTimes) {
        self.extraction += other.extraction;
        self.upload_tx += other.upload_tx;
        self.map_build += other.map_build;
        self.prediction += other.prediction;
        self.dissemination += other.dissemination;
        self.downlink_tx += other.downlink_tx;
    }

    /// Every field multiplied by `k` (sum → mean).
    pub(crate) fn scaled(self, k: f64) -> ModuleTimes {
        ModuleTimes {
            extraction: self.extraction * k,
            upload_tx: self.upload_tx * k,
            map_build: self.map_build * k,
            prediction: self.prediction * k,
            dissemination: self.dissemination * k,
            downlink_tx: self.downlink_tx * k,
        }
    }
}

/// What happened in one frame (the raw material of every figure).
#[derive(Debug, Clone, Default)]
pub struct FrameReport {
    /// Bytes uploaded by each connected vehicle.
    pub upload_bytes: Vec<u64>,
    /// Bytes scheduled on the downlink.
    pub dissemination_bytes: u64,
    /// Number of (object, receiver) transmissions scheduled.
    pub assignments: usize,
    /// Sim ids of vehicles alerted this frame.
    pub alerted: Vec<u64>,
    /// Positions of objects the server detected from uploads.
    pub detected_positions: Vec<Vec2>,
    /// Number of trajectories predicted.
    pub predicted_trajectories: usize,
    /// Uploads attempted this frame (one per scanned connected vehicle).
    pub expected_uploads: usize,
    /// Uploads that reached the server this frame, including late arrivals
    /// deferred from the previous frame.
    pub delivered_uploads: usize,
    /// Uploads lost this frame (channel loss or outage).
    pub lost_uploads: usize,
    /// Uploads deferred to the next frame because jitter pushed their
    /// transmission past the frame period.
    pub late_uploads: usize,
    /// Uploads clipped by partial truncation this frame.
    pub truncated_uploads: usize,
    /// Observation age of each object the server served from coasted
    /// (stale) state, seconds: its length is the frame's coasted count.
    pub staleness: Vec<f64>,
    /// Uplink transmission time (max across transmitting vehicles, jitter
    /// included), seconds. Modelled from bytes, not measured.
    pub upload_tx: f64,
    /// Downlink transmission time of the scheduled data, seconds. Modelled
    /// from bytes, not measured.
    pub downlink_tx: f64,
    /// Per-stage wall times and item counters (extraction, merge,
    /// tracking, prediction, relevance, knapsack). Only the `seconds`
    /// fields are wall-clock; item counts are deterministic.
    pub stages: StageTimes,
}

impl FrameReport {
    /// The Fig. 14b module view of this frame, derived from `stages` and
    /// the two link times: map building is the merge stage, "prediction"
    /// is tracking + prediction + relevance, dissemination the knapsack.
    pub fn times(&self) -> ModuleTimes {
        let s = &self.stages;
        ModuleTimes {
            extraction: s.extraction.seconds,
            upload_tx: self.upload_tx,
            map_build: s.merge.seconds,
            prediction: s.tracking.seconds + s.prediction.seconds + s.relevance.seconds,
            dissemination: s.knapsack.seconds,
            downlink_tx: self.downlink_tx,
        }
    }

    /// Delivered / expected uploads for this frame (1 when nothing was
    /// expected). Can exceed 1 on a frame absorbing late arrivals.
    pub fn delivery_ratio(&self) -> f64 {
        delivery_ratio(self.delivered_uploads, self.expected_uploads)
    }
}

/// `delivered / expected`, or 1 when nothing was expected: the one
/// definition behind every delivery ratio the crate reports.
pub(crate) fn delivery_ratio(delivered: usize, expected: usize) -> f64 {
    if expected == 0 {
        1.0
    } else {
        delivered as f64 / expected as f64
    }
}

/// One frame of uploads after the channel ([`System::carry`]).
struct Carried {
    /// This frame's arrivals in upload order, clipped where the channel
    /// truncated them, dual-report ghosts included.
    arrived: Vec<Upload>,
    /// How many of `arrived` are ghosts.
    ghosts: usize,
    /// Vehicles whose upload reached the edge this frame, whole or clipped
    /// (a clip the decoder cannot salvage included): each supersedes that
    /// vehicle's deferred upload.
    fresh: BTreeSet<u64>,
    /// Primary uploads that jitter pushed past the frame period.
    late: Vec<Upload>,
    /// Bytes put on the air by each transmitting primary vehicle.
    upload_bytes: Vec<u64>,
    /// Max uplink transmission time across transmitting primary vehicles,
    /// jitter included.
    upload_tx: f64,
    /// Primary uploads lost to the channel or to an outage.
    lost: usize,
    /// Primary uploads the channel clipped.
    truncated: usize,
}

/// Clips a truncated upload at the wire level: the encoded v1 frame loses
/// its tail in transit and the decoder salvages the complete leading
/// objects ([`crate::wire::truncate_on_wire`]) — so every truncation fault
/// exercises the real codec's corruption handling, not an in-process
/// shortcut. Returns the bytes the clip puts on the air,
/// `ceil(bytes × keep)`, and the salvaged upload: `None` when the cut lands
/// inside the fixed header fields and nothing is recoverable.
fn truncate_upload(u: &Upload, keep: f64) -> (u64, Option<Upload>) {
    let kept = (u.bytes as f64 * keep).ceil() as u64;
    // Byte accounting stays with the channel model: the delivery costs the
    // keep fraction of what was put on the air, not the re-encoded size.
    let salvaged = crate::wire::truncate_on_wire(u, keep).map(|mut t| {
        t.bytes = kept;
        t
    });
    (kept, salvaged)
}

/// System-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Which system/baseline to run.
    pub strategy: Strategy,
    /// Network model.
    pub network: NetworkConfig,
    /// Edge-server parameters.
    pub server: ServerConfig,
}

impl SystemConfig {
    /// Default configuration for a strategy.
    pub fn new(strategy: Strategy) -> Self {
        SystemConfig {
            strategy,
            network: NetworkConfig::default(),
            server: ServerConfig::default(),
        }
    }

    /// Returns the configuration with the network model replaced.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Returns the configuration with the server parameters replaced.
    pub fn with_server(mut self, server: ServerConfig) -> Self {
        self.server = server;
        self
    }
}

impl Default for SystemConfig {
    /// The paper's system (`Strategy::Ours`) with default parameters.
    fn default() -> Self {
        SystemConfig::new(Strategy::Ours)
    }
}

/// Builds a [`System`] piece by piece — the entry point is
/// [`System::builder`].
///
/// The server is the paper's stage graph over the world's map, its
/// dissemination is the strategy's (the relevance-greedy knapsack for
/// `Ours`, round robin for `Emp`, broadcast for `Unlimited`), and an unset
/// transport defaults to the in-process [`LoopbackTransport`]. The same
/// `transport` vocabulary is shared by [`crate::DeploymentBuilder`], which
/// builds one [`System`] per edge.
///
/// ```no_run
/// use erpd_edge::{Strategy, System, SystemConfig, WireTransport};
/// use erpd_sim::{Scenario, ScenarioConfig};
///
/// let s = Scenario::build(ScenarioConfig::default());
/// let sys = System::builder(SystemConfig::new(Strategy::Ours))
///     .transport(Box::new(WireTransport::new()))
///     .build(&s.world);
/// assert_eq!(sys.transport_name(), "wire");
/// ```
#[derive(Debug)]
pub struct SystemBuilder {
    config: SystemConfig,
    transport: Option<Box<dyn Transport>>,
}

impl SystemBuilder {
    /// Replaces the carrier the edge path routes uploads and plans
    /// through. The default [`LoopbackTransport`] passes values untouched
    /// (bit-identical to calling the serving core directly); a
    /// [`crate::WireTransport`] round-trips every message through the v1
    /// wire codec in process. To serve over TCP run an
    /// [`crate::EdgeDaemon`].
    pub fn transport(mut self, transport: Box<dyn Transport>) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Builds the system: the server over the world's map, serving the
    /// configured strategy, and the transport (loopback unless set).
    pub fn build(self, world: &World) -> System {
        let config = self.config;
        System {
            config,
            fleet: VehicleFleet::new(),
            core: ServingCore::new(
                EdgeServer::new(config.server, world.map.clone()),
                config.strategy,
            ),
            transport: self
                .transport
                .unwrap_or_else(|| Box::new(LoopbackTransport::new())),
            v2v_servers: BTreeMap::new(),
            rr_offset: 0,
            last_server_frame: ServerFrame::default(),
            last_plan: DisseminationPlan::default(),
            frame_index: 0,
            outages: BTreeSet::new(),
            deferred: Vec::new(),
        }
    }
}

/// The running system: vehicle-side state plus the edge server.
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    /// The vehicle side of every vehicle this edge has scanned;
    /// [`crate::Deployment`] moves a vehicle's state between edges' fleets
    /// at handover.
    pub(crate) fleet: VehicleFleet,
    /// The serving half of the edge path: the five-stage server plus the
    /// strategy's dissemination — the same [`ServingCore`] the streaming
    /// daemon drives over TCP.
    core: ServingCore,
    /// The carrier between the fault layer's arrivals and the serving
    /// core. Loopback (identity) by default, or a [`crate::WireTransport`]
    /// to round-trip every frame through the v1 codec.
    transport: Box<dyn Transport>,
    /// Receiver-local fusion state for the V2V strategy (one "server" per
    /// vehicle, running on board).
    v2v_servers: BTreeMap<u64, EdgeServer>,
    /// Round-robin MAC state for the V2V shared channel (the EMP planner's
    /// rotation lives in the [`ServingCore`]).
    rr_offset: usize,
    last_server_frame: ServerFrame,
    /// The dissemination plan of the last edge-path frame (what the
    /// downlink actually carried) — [`crate::Deployment`] reads it to
    /// deduplicate dual-report assignments across edges.
    last_plan: DisseminationPlan,
    /// Frame counter: the per-frame coordinate of every fault draw.
    frame_index: u64,
    /// Vehicles currently dropped out of coverage by churn.
    outages: BTreeSet<u64>,
    /// Jitter-delayed uploads waiting to arrive next frame.
    deferred: Vec<Upload>,
}

impl System {
    /// Starts building a system: `System::builder(config)` then an
    /// optional [`SystemBuilder::transport`], then [`SystemBuilder::build`]
    /// against the world.
    pub fn builder(config: SystemConfig) -> SystemBuilder {
        SystemBuilder {
            config,
            transport: None,
        }
    }

    /// The active transport's diagnostic name ("loopback" or "wire").
    pub fn transport_name(&self) -> &'static str {
        self.transport.name()
    }

    /// The last server frame (for inspection by tests and examples).
    pub fn last_server_frame(&self) -> &ServerFrame {
        &self.last_server_frame
    }

    /// Vehicles currently out of coverage (churn faults).
    #[cfg(test)]
    pub(crate) fn outages(&self) -> &BTreeSet<u64> {
        &self.outages
    }

    /// The dissemination plan of the last edge-path frame.
    pub fn last_plan(&self) -> &DisseminationPlan {
        &self.last_plan
    }

    /// Extracts everything this edge knows about a departing vehicle —
    /// pose history, nearby tracks, EMP rotation state, outage flag — and
    /// forgets the parts that must not linger: the outage entry and any
    /// jitter-deferred upload (a late packet addressed to the old edge is
    /// lost, not teleported). The vehicle-side state travels out of band
    /// between the edges' [`VehicleFleet`]s (it never crosses the wire).
    pub(crate) fn export_vehicle(&mut self, vehicle_id: u64) -> VehicleHandover {
        let mut handover = self.core.export_handover(vehicle_id);
        handover.in_outage = self.outages.remove(&vehicle_id);
        self.deferred.retain(|u| u.vehicle_id != vehicle_id);
        handover
    }

    /// Whether `vehicle_id`'s radio is in an outage this frame, stepped
    /// from this edge's churn state. [`crate::Deployment`] asks a vehicle's
    /// owner before any edge ticks, and hands the verdict to the edge that
    /// receives the vehicle's dual-report ghost.
    pub(crate) fn next_outage(&self, vehicle_id: u64) -> bool {
        let in_outage = self.outages.contains(&vehicle_id);
        self.config
            .network
            .fault
            .next_outage(in_outage, self.frame_index, vehicle_id)
    }

    /// Adopts a handover exported by another edge: offers it to every
    /// stage of the serving core and takes over the churn state.
    pub(crate) fn import_vehicle(&mut self, handover: &VehicleHandover) {
        self.core.import_handover(handover);
        if handover.in_outage {
            self.outages.insert(handover.vehicle_id);
        } else {
            self.outages.remove(&handover.vehicle_id);
        }
    }

    /// Carries one frame of uploads over the fault-injected uplink: steps
    /// the churn state in `self.outages`, decides each upload's fate, clips
    /// truncated uploads and tallies the link. With the default (ideal)
    /// [`crate::FaultModel`] every upload arrives whole and the tallies are
    /// bit-identical to the pre-fault pipeline.
    ///
    /// The last `ghost_outages.len()` uploads are dual-report ghosts: the
    /// same physical transmission is accounted to its owning edge, so a
    /// ghost gets a channel fate (fault draws are pure functions of
    /// `(seed, frame, vehicle)`, identical on every edge) but adds nothing
    /// to this edge's tallies, and a late ghost is dropped, not deferred. A
    /// ghost's radio is its owner's: its outage verdict is the owner's,
    /// passed in `ghost_outages` and copied into `self.outages`, never
    /// drawn here.
    fn carry(&mut self, uploads: Vec<Upload>, ghost_outages: &[bool]) -> Carried {
        let n_primary = uploads.len() - ghost_outages.len();
        let network = self.config.network;
        let fault = &network.fault;
        let frame = self.frame_index;
        let mut c = Carried {
            arrived: Vec::with_capacity(uploads.len()),
            ghosts: 0,
            fresh: BTreeSet::new(),
            late: Vec::new(),
            upload_bytes: Vec::with_capacity(n_primary),
            upload_tx: 0.0,
            lost: 0,
            truncated: 0,
        };
        for (i, u) in uploads.into_iter().enumerate() {
            let v = u.vehicle_id;
            let ghost = i >= n_primary;
            // Churn: a vehicle in outage transmits nothing this frame.
            let in_outage = if ghost {
                ghost_outages[i - n_primary]
            } else {
                self.next_outage(v)
            };
            if in_outage {
                self.outages.insert(v);
                c.lost += usize::from(!ghost);
                continue;
            }
            // A transmitting vehicle's bytes hit the air and count toward
            // the uplink time whatever the channel does next.
            self.outages.remove(&v);
            let delay = fault.jitter_delay(frame, v);
            let mut on_air = (u.bytes, network.uplink_time(u.bytes) + delay);
            if fault.loss_prob > 0.0 && fault.uniform(frame, v, FaultStream::Loss) < fault.loss_prob
            {
                c.lost += usize::from(!ghost);
            } else if fault.jitter > 0.0 && on_air.1 > network.frame_period {
                // Jitter-induced lateness: only an active jitter model can
                // push an upload past the frame boundary (large ideal
                // uploads keep the seed's same-frame semantics).
                if !ghost {
                    c.late.push(u);
                }
            } else if fault.truncate_prob > 0.0
                && fault.uniform(frame, v, FaultStream::Truncate) < fault.truncate_prob
            {
                let (kept, salvaged) = truncate_upload(&u, fault.truncate_keep);
                on_air = (kept, network.uplink_time(kept) + delay);
                c.truncated += usize::from(!ghost);
                c.fresh.insert(v);
                // A cut into the frame header destroys the upload entirely.
                if let Some(t) = salvaged {
                    c.ghosts += usize::from(ghost);
                    c.arrived.push(t);
                }
            } else {
                c.fresh.insert(v);
                c.ghosts += usize::from(ghost);
                c.arrived.push(u);
            }
            if !ghost {
                c.upload_bytes.push(on_air.0);
                c.upload_tx = c.upload_tx.max(on_air.1);
            }
        }
        c
    }

    /// Runs one full frame: scans connected vehicles, processes uploads,
    /// pushes them through the fault-injected links, runs the server,
    /// schedules dissemination, and delivers alerts to the world.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the configured [`crate::FaultModel`] is out of
    /// range; [`Error::MissingVehicleState`] / [`Error::NonFiniteRelevance`]
    /// when internal invariants break (degenerate inputs).
    pub fn tick(&mut self, world: &mut World) -> Result<FrameReport, Error> {
        if self.config.strategy == Strategy::Single {
            return Ok(FrameReport::default());
        }
        let frames = world.scan_connected();
        self.tick_frames(world, frames, &[])
    }

    /// Runs one frame over an explicit set of scanned frames — the seam
    /// [`crate::Deployment`] drives after routing each vehicle's scan to
    /// its covering edge. The last `ghost_outages.len()` frames are
    /// dual-report ghosts, each with its owner's outage verdict: they are
    /// processed (so this edge sees the boundary vehicle and can serve it)
    /// but are excluded from the expected/delivered upload accounting,
    /// never deferred when late, and never tallied on this edge's uplink —
    /// the owning edge counts the physical transmission. With no ghosts
    /// this is exactly [`System::tick`] after its scan, bit for bit.
    pub(crate) fn tick_frames(
        &mut self,
        world: &mut World,
        frames: Vec<LidarFrame>,
        ghost_outages: &[bool],
    ) -> Result<FrameReport, Error> {
        if self.config.strategy == Strategy::Single {
            return Ok(FrameReport::default());
        }
        let network = self.config.network;
        network.fault.validate()?;
        // --- Vehicle side: scans in, uploads out, in scan order.
        let uploads = self
            .fleet
            .process(self.config.strategy, &frames, &network)?;
        let mut extraction = 0.0f64;
        let mut clustered = 0usize;
        for u in &uploads {
            extraction = extraction.max(u.processing_time);
            clustered += u.clustered_points;
        }
        let extraction_stage = StageSample::new(extraction, clustered);

        // --- The channel: every upload runs through the fault layer. V2V
        // keeps the whole frame: every vehicle fuses its own scan on board,
        // whatever its radio did.
        let expected_uploads = uploads.len() - ghost_outages.len();
        let own = (self.config.strategy == Strategy::V2v).then(|| uploads.clone());
        let carried = self.carry(uploads, ghost_outages);
        self.frame_index += 1;
        if let Some(own) = own {
            return self.tick_v2v(world, own, carried, extraction_stage);
        }

        // Arrivals: last frame's deferred (late) uploads first — oldest
        // data is processed first — unless a fresher upload from the same
        // vehicle reached the edge this frame and supersedes it; then this
        // frame's. Ghost arrivals reach the server (that is the point of
        // dual reporting) but stay out of this edge's delivery count.
        let fresh = &carried.fresh;
        let mut arrivals = carried.arrived;
        arrivals.splice(
            0..0,
            std::mem::take(&mut self.deferred)
                .into_iter()
                .filter(|u| !fresh.contains(&u.vehicle_id)),
        );
        let delivered_uploads = arrivals.len() - carried.ghosts;
        let late_uploads = carried.late.len();
        self.deferred = carried.late;

        // --- Transport: arrivals travel to the serving core over the
        // configured carrier (loopback by default — identity) and the
        // frame's plan comes back the same way.
        let tag = self.frame_index;
        for u in arrivals {
            self.transport.send_upload(tag, u)?;
        }
        let arrivals = self.transport.recv_uploads()?;

        // --- Server side: the five-stage graph, then the graph's last
        // stage — the strategy's dissemination decision.
        let now = world.time();
        let budget = network.downlink_budget_bytes();
        let (sf, planned) = self.core.serve(now, &arrivals, budget)?;
        let knapsack_sample = planned.sample;
        self.transport.send_plan(tag, planned.artifact)?;
        let (_, dplan) = self
            .transport
            .recv_plans()?
            .pop()
            .ok_or(Error::Codec {
                reason: "transport delivered no dissemination plan",
            })?;
        let downlink_tx = if dplan.total_bytes > 0 {
            network.downlink_time(dplan.total_bytes.min(budget))
        } else {
            0.0
        };

        // --- Deliver: a receiver is alerted when it receives data about an
        // object its onboard ADAS deems dangerous (relevance above the
        // threshold). A receiver in outage cannot hear the downlink, so its
        // alerts are suppressed (graceful degradation, not a panic).
        let mut alerted = Vec::new();
        for a in &dplan.assignments {
            if a.relevance >= ALERT_THRESHOLD {
                let sim_id = a.receiver.0;
                if self.outages.contains(&sim_id) {
                    continue;
                }
                world.alert(sim_id);
                alerted.push(sim_id);
            }
        }
        alerted.sort_unstable();
        alerted.dedup();

        // Complete the server's stage record with the two stages that run
        // outside it: on-vehicle extraction and dissemination (which
        // reported its own sample, items = every (object, receiver) pair
        // it ranked).
        let mut stages = sf.stages;
        stages.extraction = extraction_stage;
        stages.knapsack = knapsack_sample;

        let report = FrameReport {
            upload_bytes: carried.upload_bytes,
            dissemination_bytes: dplan.total_bytes,
            assignments: dplan.assignments.len(),
            alerted,
            detected_positions: sf.detections.iter().map(|d| d.position).collect(),
            predicted_trajectories: sf.predicted_trajectories,
            expected_uploads,
            delivered_uploads,
            lost_uploads: carried.lost,
            late_uploads,
            truncated_uploads: carried.truncated,
            staleness: sf.staleness.clone(),
            upload_tx: carried.upload_tx,
            downlink_tx,
            stages,
        };
        self.last_server_frame = sf;
        self.last_plan = dplan;
        Ok(report)
    }

    /// The V2V strategy: every connected vehicle broadcasts its extracted
    /// objects on a shared channel; each receiver fuses what it hears with
    /// an on-board copy of the pipeline and alerts its own driver. There is
    /// no edge server and no global schedule — the channel capacity, the
    /// radio range, and the fault layer are the constraints. Only uploads
    /// the channel delivered contend for admission (a late broadcast is
    /// simply never heard — there is no retransmission on an ad-hoc
    /// channel); a vehicle in outage neither broadcasts nor hears, but its
    /// on-board pipeline still fuses its own scan.
    fn tick_v2v(
        &mut self,
        world: &mut World,
        uploads: Vec<Upload>,
        carried: Carried,
        extraction: StageSample,
    ) -> Result<FrameReport, Error> {
        let network = self.config.network;
        // What the channel could carry this frame: the broadcasts it
        // delivered, clipped where it truncated them.
        let sendable = carried.arrived;
        // Fair channel admission: senders take turns frame to frame (a
        // round-robin MAC), so everyone is heard every few frames even when
        // the shared capacity cannot carry all broadcasts at once.
        let channel_budget = (V2V_CHANNEL_BPS * network.frame_period / 8.0) as u64;
        let mut spent = 0u64;
        let mut heard: Vec<&Upload> = Vec::new();
        if !sendable.is_empty() {
            let n = sendable.len();
            let start = self.rr_offset % n;
            for k in 0..n {
                let u = &sendable[(start + k) % n];
                if spent + u.bytes > channel_budget {
                    break;
                }
                spent += u.bytes;
                heard.push(u);
            }
            self.rr_offset = (start + heard.len().max(1)) % n;
        }
        let broadcast_tx = network.frame_period.min(spent as f64 * 8.0 / V2V_CHANNEL_BPS);
        let delivered_uploads = heard.len();

        let now = world.time();
        // Every receiver's on-board fusion is independent of the others, so
        // the receivers fan out across worker threads; alerts and the
        // deduplicated detection list are folded back in upload order, which
        // keeps the result identical to the sequential loop.
        for u in &uploads {
            self.v2v_servers
                .entry(u.vehicle_id)
                .or_insert_with(|| EdgeServer::new(self.config.server, world.map.clone()));
        }
        let mut servers: BTreeMap<u64, &mut EdgeServer> = self
            .v2v_servers
            .iter_mut()
            .map(|(&id, s)| (id, s))
            .collect();
        let mut jobs: Vec<(&Upload, &mut EdgeServer)> = Vec::with_capacity(uploads.len());
        for u in &uploads {
            let server = servers
                .remove(&u.vehicle_id)
                .ok_or(Error::MissingVehicleState(u.vehicle_id))?;
            jobs.push((u, server));
        }
        drop(servers);
        let heard = &heard;
        let outages = &self.outages;
        let fused: Vec<Result<(u64, bool, ServerFrame), Error>> =
            erpd_par::par_map(jobs, |(me, server)| {
                let rid = me.vehicle_id;
                // What this vehicle fuses: its own data (always available on
                // board, no channel involved) plus — radio permitting —
                // in-range broadcasts.
                let mut local: Vec<Upload> = vec![me.clone()];
                if !outages.contains(&rid) {
                    local.extend(
                        heard
                            .iter()
                            .filter(|u| {
                                u.vehicle_id != rid
                                    && u.pose.position.distance(me.pose.position) <= V2V_RANGE_M
                            })
                            .map(|u| (*u).clone()),
                    );
                }
                let sf = server.process(now, &local)?;
                // On-board relevance: alert the own driver only.
                let relevant = sf
                    .matrix
                    .row(ObjectId(rid))
                    .iter()
                    .any(|&(_, r)| r >= ALERT_THRESHOLD);
                Ok((rid, relevant, sf))
            });

        let mut alerted = Vec::new();
        let mut detected_positions: Vec<Vec2> = Vec::new();
        let mut predicted = 0usize;
        // The receiver with the most coasted objects, first in upload order
        // on a tie, reports the frame's staleness.
        let mut staleness: Vec<f64> = Vec::new();
        let mut stages = StageTimes::default();
        let mut last_frame = ServerFrame::default();
        for r in fused {
            let (rid, relevant, sf) = r?;
            if relevant {
                world.alert(rid);
                alerted.push(rid);
            }
            stages.fold_max(&sf.stages);
            predicted = predicted.max(sf.predicted_trajectories);
            if sf.staleness.len() > staleness.len() {
                staleness.clone_from(&sf.staleness);
            }
            for d in &sf.detections {
                if !detected_positions.iter().any(|p| p.distance(d.position) < 2.0) {
                    detected_positions.push(d.position);
                }
            }
            last_frame = sf;
        }
        // On the V2V path extraction still happens per vehicle; there is no
        // central knapsack, so that stage stays zero.
        stages.extraction = extraction;
        self.last_server_frame = last_frame;
        Ok(FrameReport {
            upload_bytes: carried.upload_bytes,
            dissemination_bytes: spent,
            assignments: alerted.len(),
            alerted,
            detected_positions,
            predicted_trajectories: predicted,
            expected_uploads: uploads.len(),
            delivered_uploads,
            lost_uploads: carried.lost,
            late_uploads: carried.late.len(),
            truncated_uploads: carried.truncated,
            staleness,
            upload_tx: broadcast_tx,
            downlink_tx: 0.0,
            stages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erpd_sim::{Scenario, ScenarioConfig, ScenarioKind};

    fn scenario(kind: ScenarioKind, seed: u64) -> Scenario {
        Scenario::build(ScenarioConfig {
            kind,
            seed,
            ..ScenarioConfig::default()
        })
    }

    fn pair_collided(s: &Scenario) -> bool {
        s.world
            .collisions()
            .iter()
            .any(|&(a, b)| (a == s.ego || b == s.ego) && (a == s.hazard || b == s.hazard))
    }

    #[test]
    fn single_never_alerts_and_collides() {
        let mut s = scenario(ScenarioKind::UnprotectedLeftTurn, 1);
        let mut sys = System::builder(SystemConfig::new(Strategy::Single)).build(&s.world);
        for _ in 0..150 {
            let r = sys.tick(&mut s.world).unwrap();
            assert!(r.alerted.is_empty());
            s.world.step();
        }
        assert!(pair_collided(&s), "Single must collide");
    }

    #[test]
    fn ours_prevents_left_turn_collision() {
        let mut s = scenario(ScenarioKind::UnprotectedLeftTurn, 1);
        let mut sys = System::builder(SystemConfig::new(Strategy::Ours)).build(&s.world);
        let mut ever_alerted_ego = false;
        for _ in 0..180 {
            let r = sys.tick(&mut s.world).unwrap();
            if r.alerted.contains(&s.ego) {
                ever_alerted_ego = true;
            }
            s.world.step();
        }
        assert!(ever_alerted_ego, "the ego must receive a dissemination alert");
        assert!(!pair_collided(&s), "Ours must prevent the scripted collision");
    }

    #[test]
    fn ours_prevents_red_light_collision() {
        let mut s = scenario(ScenarioKind::RedLightViolation, 2);
        let mut sys = System::builder(SystemConfig::new(Strategy::Ours)).build(&s.world);
        for _ in 0..180 {
            sys.tick(&mut s.world).unwrap();
            s.world.step();
        }
        assert!(!pair_collided(&s), "Ours must prevent the red-light collision");
    }

    #[test]
    fn unlimited_also_prevents_but_costs_more() {
        let mut s_ours = scenario(ScenarioKind::UnprotectedLeftTurn, 3);
        let mut s_unl = scenario(ScenarioKind::UnprotectedLeftTurn, 3);
        let mut ours = System::builder(SystemConfig::new(Strategy::Ours)).build(&s_ours.world);
        let mut unl = System::builder(SystemConfig::new(Strategy::Unlimited)).build(&s_unl.world);
        let mut bytes_ours = 0u64;
        let mut bytes_unl = 0u64;
        for _ in 0..150 {
            bytes_ours += ours.tick(&mut s_ours.world).unwrap().dissemination_bytes;
            bytes_unl += unl.tick(&mut s_unl.world).unwrap().dissemination_bytes;
            s_ours.world.step();
            s_unl.world.step();
        }
        assert!(!pair_collided(&s_ours));
        assert!(!pair_collided(&s_unl));
        assert!(
            bytes_unl > bytes_ours * 5,
            "unlimited {bytes_unl} vs ours {bytes_ours}"
        );
    }

    #[test]
    fn demo_disseminates_pedestrian_to_ego_not_bystander() {
        let mut s = scenario(ScenarioKind::OccludedPedestrian, 0);
        let mut sys = System::builder(SystemConfig::new(Strategy::Ours)).build(&s.world);
        let bystander = s.bystander.unwrap();
        let mut ego_alerted = false;
        for _ in 0..160 {
            let r = sys.tick(&mut s.world).unwrap();
            if r.alerted.contains(&s.ego) {
                ego_alerted = true;
            }
            s.world.step();
        }
        assert!(ego_alerted, "B must be told about the occluded pedestrian");
        assert!(
            !pair_collided(&s),
            "B must not hit p when the system is running"
        );
        let _ = bystander; // A's irrelevance is asserted at matrix level in integration tests
    }

    #[test]
    fn v2v_prevents_the_left_turn_collision_without_a_server() {
        let mut s = scenario(ScenarioKind::UnprotectedLeftTurn, 1);
        let mut sys = System::builder(SystemConfig::new(Strategy::V2v)).build(&s.world);
        let mut broadcast_bytes = 0u64;
        for _ in 0..180 {
            let r = sys.tick(&mut s.world).unwrap();
            broadcast_bytes += r.dissemination_bytes;
            s.world.step();
        }
        assert!(!pair_collided(&s), "V2V must also prevent the scripted collision");
        assert!(broadcast_bytes > 0, "broadcasts must flow on the channel");
        // Channel usage respects the shared capacity per frame.
        assert!(
            broadcast_bytes <= (V2V_CHANNEL_BPS * 0.1 / 8.0) as u64 * 180,
            "channel capacity exceeded"
        );
    }

    #[test]
    fn losses_force_coasting_on_the_edge_and_v2v_paths() {
        use crate::{FaultModel, NetworkConfig};
        for strategy in [Strategy::Ours, Strategy::V2v] {
            let mut s = Scenario::build(
                ScenarioConfig::default()
                    .with_kind(ScenarioKind::UnprotectedLeftTurn)
                    .with_n_vehicles(24)
                    .with_seed(5),
            );
            let fault = FaultModel::default().with_loss_prob(0.3).with_seed(11);
            let cfg = SystemConfig::new(strategy)
                .with_network(NetworkConfig::default().with_fault(fault))
                .with_server(ServerConfig::default().with_coast_horizon(1.0));
            let mut sys = System::builder(cfg).build(&s.world);
            let mut coasted = 0usize;
            for _ in 0..40 {
                coasted += sys.tick(&mut s.world).unwrap().staleness.len();
                s.world.step();
            }
            assert!(coasted > 0, "{strategy:?}: losses must force coasting");
        }
    }

    #[test]
    fn churn_disconnects_and_reconnects_vehicles() {
        use crate::{FaultModel, NetworkConfig};
        let mut s = scenario(ScenarioKind::UnprotectedLeftTurn, 1);
        let fault = FaultModel {
            reconnect_prob: 0.5,
            ..FaultModel::default().with_churn_prob(0.2).with_seed(5)
        };
        let cfg = SystemConfig::new(Strategy::Ours)
            .with_network(NetworkConfig::default().with_fault(fault));
        let mut sys = System::builder(cfg).build(&s.world);
        let mut seen_out = BTreeSet::new();
        let mut ever_back = false;
        let mut lost = 0usize;
        for _ in 0..80 {
            lost += sys.tick(&mut s.world).unwrap().lost_uploads;
            // A vehicle observed in an outage earlier and absent from the
            // outage set now has been through a full drop/reconnect cycle.
            ever_back |= seen_out.iter().any(|v| !sys.outages().contains(v));
            seen_out.extend(sys.outages().iter().copied());
            s.world.step();
        }
        assert!(!seen_out.is_empty(), "churn must drop at least one vehicle");
        assert!(ever_back, "dropped vehicles must reconnect");
        assert!(lost > 0, "outage frames count as lost uploads");
    }

    #[test]
    fn truncation_clips_bytes_and_objects() {
        use crate::{FaultModel, NetworkConfig};
        let run_bytes = |fault: FaultModel| {
            let mut s = scenario(ScenarioKind::UnprotectedLeftTurn, 1);
            let cfg = SystemConfig::new(Strategy::Ours)
                .with_network(NetworkConfig::default().with_fault(fault));
            let mut sys = System::builder(cfg).build(&s.world);
            let mut bytes = 0u64;
            let mut truncated = 0usize;
            for _ in 0..40 {
                let r = sys.tick(&mut s.world).unwrap();
                bytes += r.upload_bytes.iter().sum::<u64>();
                truncated += r.truncated_uploads;
                s.world.step();
            }
            (bytes, truncated)
        };
        let (ideal_bytes, ideal_trunc) = run_bytes(FaultModel::default());
        let (clipped_bytes, clipped_trunc) = run_bytes(FaultModel {
            truncate_keep: 0.5,
            ..FaultModel::default().with_truncate_prob(1.0)
        });
        assert_eq!(ideal_trunc, 0);
        assert!(clipped_trunc > 0, "every delivered upload is truncated");
        assert!(
            clipped_bytes < ideal_bytes,
            "clipped {clipped_bytes} vs ideal {ideal_bytes}"
        );
    }

    #[test]
    fn jitter_defers_uploads_that_still_arrive_late() {
        use crate::{FaultModel, NetworkConfig};
        let mut s = scenario(ScenarioKind::UnprotectedLeftTurn, 1);
        // Mean jitter of two frame periods: most uploads overrun the frame.
        let fault = FaultModel::default().with_jitter(0.2).with_seed(2);
        let cfg = SystemConfig::new(Strategy::Ours)
            .with_network(NetworkConfig::default().with_fault(fault));
        let mut sys = System::builder(cfg).build(&s.world);
        let mut late = 0usize;
        let mut expected = 0usize;
        let mut delivered = 0usize;
        for _ in 0..40 {
            let r = sys.tick(&mut s.world).unwrap();
            late += r.late_uploads;
            expected += r.expected_uploads;
            delivered += r.delivered_uploads;
            s.world.step();
        }
        assert!(late > 0, "heavy jitter must defer uploads");
        // Nothing is lost to jitter alone: deliveries (on time + late, minus
        // any superseded stragglers still in flight) stay near expectations.
        assert!(delivered > expected / 2, "delivered {delivered} of {expected}");
    }

    #[test]
    fn module_times_are_recorded() {
        let mut s = scenario(ScenarioKind::UnprotectedLeftTurn, 4);
        let mut sys = System::builder(SystemConfig::new(Strategy::Ours)).build(&s.world);
        // Step a few frames so the pipeline is warm.
        let mut r = FrameReport::default();
        for _ in 0..5 {
            r = sys.tick(&mut s.world).unwrap();
            s.world.step();
        }
        assert!(r.times().extraction > 0.0);
        assert!(r.upload_tx > 0.0);
        // The busy stages see work every frame once vehicles are scanned,
        // and their timers ran.
        let s = &r.stages;
        for busy in [s.extraction, s.tracking, s.prediction, s.knapsack] {
            assert!(busy.items > 0, "a busy stage counted no items: {s:?}");
        }
        assert!(r.times().prediction > 0.0, "stage timers must record wall time");
        assert!(r.times().end_to_end() > 0.0);
        // Bound only what is modelled from bytes: the stage timers are
        // host wall time (extraction scaled ×25), which a loaded host
        // stretches without limit.
        let links = r.upload_tx + r.downlink_tx;
        assert!(links < 0.5, "link times should be sub-second, got {links}");
    }
}
