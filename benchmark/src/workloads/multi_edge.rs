//! `multi_edge`: one `Deployment::tick` over four strip edges.
//!
//! The intersection scenario again (40 vehicles, half connected, the
//! unprotected left turn), but served by 4 vertical strip edges with
//! `HandoverPolicy::DualReport { margin: 30.0 }` and a `WireTransport` per
//! edge: uploads are routed, ghosted to a second edge near a boundary,
//! encoded and decoded, four small cores run per frame and vehicles hand
//! over between them through wire kind 5. A unit is one scenario run of
//! 150 frames whose first 5 are warm-up.
//!
//! `Deployment::tick` cannot be recomposed from outside (its routing and
//! ghosting are private), so in the traced run the real call is one span
//! and the same layers are driven *beside* it on the same scans — routed
//! with the deployment's public `covering_edge` / `dual_report_edge`. What
//! the real call costs beyond them is `edge.multi.overhead_ms`.

use super::intersection::{protagonists_collided, FRAMES_PER_UNIT, WARMUP_FRAMES};
use super::Run;
use crate::gen::paper_scenario;
use crate::recompose::{
    count_scan, decode_failed, plan_round_trip, upload_round_trip, StagePipeline, VehicleFleet,
};
use erpd_core::{DisseminationPlan, VehicleHandover};
use erpd_edge::{
    Deployment, Error, HandoverPolicy, NetworkConfig, Stage, Strategy, SystemConfig, WireMessage,
    WireTransport,
};
use erpd_sim::{LidarFrame, Scenario, ScenarioKind, World};
use std::collections::BTreeMap;
use std::time::Instant;

pub const EDGES: usize = 4;
pub const DUAL_REPORT_MARGIN_M: f64 = 30.0;
/// The byte/relevance metrics are taken over the first 4 scenario runs —
/// half of what 20 s fit.
const COUNTED_UNITS: u64 = 4;

fn deployment(config: SystemConfig, world: &World) -> Result<Deployment, Error> {
    let mut builder =
        Deployment::builder()
            .config(config)
            .edges(EDGES)
            .handover(HandoverPolicy::DualReport {
                margin: DUAL_REPORT_MARGIN_M,
            });
    for _ in 0..EDGES {
        builder = builder.transport(Box::new(WireTransport::new()));
    }
    builder.build(world)
}

pub fn run(run: &mut Run) -> Result<(), Error> {
    let config = SystemConfig::new(Strategy::Ours);
    run.start_measuring();
    while !run.time_is_up() {
        let unit = run.units;

        // Set-up: scenario, deployment, warm-up frames.
        let t_setup = Instant::now();
        let mut s = Scenario::build(paper_scenario(
            ScenarioKind::UnprotectedLeftTurn,
            unit,
            run.seed,
        ));
        let mut city = deployment(config, &s.world)?;
        let mut beside = run.traced.then(|| Beside::new(&config, &s));
        // The layers beside carry state, so they see the warm-up frames
        // too, but what they record of them is thrown away.
        let mut warmup = run.for_warmup();
        for k in 0..WARMUP_FRAMES {
            if let Some(beside) = &mut beside {
                beside.frame(&mut warmup, unit * FRAMES_PER_UNIT + k, &s.world, &city)?;
            }
            city.tick(&mut s.world)?;
            s.world.step();
        }
        run.setup_s.push(t_setup.elapsed().as_secs_f64());

        for k in WARMUP_FRAMES..FRAMES_PER_UNIT {
            if run.cut_short() {
                return Ok(());
            }
            let frame = unit * FRAMES_PER_UNIT + k;
            if let Some(beside) = &mut beside {
                beside.frame(run, frame, &s.world, &city)?;
            }

            run.attempted += 1;
            let span = run
                .traced
                .then(|| run.trace.begin("bench.frame", frame, None));
            let t = Instant::now();
            let report = city.tick(&mut s.world);
            run.frame_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Some(span) = span {
                run.trace.end(span);
            }
            match report {
                Ok(r) => {
                    // The fleet's plan, deduplicated as the fleet's bytes
                    // are: an assignment counts on the edge that owns its
                    // receiver.
                    let mut fleet_plan = DisseminationPlan::default();
                    for edge in 0..city.n_edges() {
                        for a in &city.edge(edge).last_plan().assignments {
                            if city
                                .owner_of(a.receiver.0)
                                .is_none_or(|owner| owner == edge)
                            {
                                fleet_plan.total_bytes += a.size_bytes;
                                fleet_plan.total_relevance += a.relevance;
                            }
                        }
                    }
                    run.check(fleet_plan.total_bytes == r.fleet.dissemination_bytes, || {
                        format!(
                            "frame {frame}: the edges' plans carry {} bytes for their own receivers, the fleet report says {}",
                            fleet_plan.total_bytes, r.fleet.dissemination_bytes
                        )
                    });
                    if run.units < COUNTED_UNITS {
                        run.count_frame(r.fleet.upload_bytes, &fleet_plan);
                    }
                    run.add("edge.multi.frames", 1.0);
                    run.add("edge.multi.handovers", r.handovers as f64);
                    let busiest = r
                        .per_edge
                        .iter()
                        .map(|e| e.expected_uploads)
                        .max()
                        .unwrap_or(0);
                    run.sample(
                        "edge.multi.max_edge_upload_share",
                        crate::stats::ratio(busiest as f64, r.fleet.expected_uploads as f64),
                    );
                    run.check(r.fleet.delivery_ratio() == 1.0, || {
                        format!(
                            "frame {frame}: fleet delivery ratio {} on the ideal channel",
                            r.fleet.delivery_ratio()
                        )
                    });
                }
                Err(e) => run.fail(format!("frame {frame}: Deployment::tick returned {e}")),
            }
            run.generate("sim.step", frame, || s.world.step());
        }
        run.check(city.handovers() >= 1, || {
            format!("unit {unit}: no vehicle crossed a strip boundary in {FRAMES_PER_UNIT} frames")
        });
        run.add("sim.runs", 1.0);
        run.add(
            "sim.safe_runs",
            f64::from(u8::from(!protagonists_collided(&s))),
        );
        run.units += 1;
    }
    run.note_safe_runs();
    Ok(())
}

/// The deployment's layers, driven beside the real call: per edge a
/// vehicle fleet and the six stages, with the handover state moving
/// between them over the wire codec as the deployment moves it.
struct Beside {
    fleets: Vec<VehicleFleet>,
    stages: Vec<StagePipeline>,
    owners: BTreeMap<u64, usize>,
    network: NetworkConfig,
}

impl Beside {
    fn new(config: &SystemConfig, s: &Scenario) -> Self {
        Beside {
            fleets: (0..EDGES).map(|_| VehicleFleet::default()).collect(),
            stages: (0..EDGES)
                .map(|k| {
                    let server = config.server.with_track_id_base((k as u64) << 32);
                    StagePipeline::new(&server, &s.world.map)
                })
                .collect(),
            owners: BTreeMap::new(),
            network: config.network,
        }
    }

    /// Moves a vehicle's serving state from edge `from` to edge `to`, the
    /// message round-tripping the wire codec inside one span.
    fn hand_over(
        &mut self,
        run: &mut Run,
        frame: u64,
        parent: crate::trace::SpanId,
        vehicle_id: u64,
        from: usize,
        to: usize,
    ) {
        let mut handover = VehicleHandover::new(vehicle_id);
        self.stages[from].track.export_handover(&mut handover);
        let message = WireMessage::Handover { handover };
        let (wire_bytes, decoded) =
            run.trace
                .time("edge.wire.handover_roundtrip", frame, Some(parent), || {
                    let bytes = message.encode();
                    (bytes.len(), WireMessage::decode(&bytes))
                });
        run.add("edge.wire.handovers", 1.0);
        run.add("edge.wire.handover_wire_bytes", wire_bytes as f64);
        match decoded {
            Ok((WireMessage::Handover { handover }, _)) => {
                self.stages[to].track.import_handover(&handover);
            }
            other => decode_failed(run, frame, "handover", other.err()),
        }
        let mut from_fleet = std::mem::take(&mut self.fleets[from]);
        from_fleet.hand_over(vehicle_id, &mut self.fleets[to]);
        self.fleets[from] = from_fleet;
    }

    /// One frame of the layers `Deployment::tick` is about to run, every
    /// call a span under one `bench.beside`; their sum per frame is the
    /// sample `bench.layers_ms`.
    fn frame(
        &mut self,
        run: &mut Run,
        frame: u64,
        world: &World,
        city: &Deployment,
    ) -> Result<(), Error> {
        let first_span = run.trace.spans().len();
        let span = run.trace.begin("bench.beside", frame, None);
        let scans = run
            .trace
            .time("sim.scan", frame, Some(span), || world.scan_connected());

        let mut routed: Vec<Vec<LidarFrame>> = vec![Vec::new(); EDGES];
        let mut ghosts: Vec<Vec<LidarFrame>> = vec![Vec::new(); EDGES];
        for scan in &scans {
            let position = scan.sensor_pose.position;
            let owner = city.covering_edge(position);
            if let Some(previous) = self.owners.insert(scan.vehicle_id, owner) {
                if previous != owner {
                    self.hand_over(run, frame, span, scan.vehicle_id, previous, owner);
                }
            }
            if let Some(other) = city.dual_report_edge(position) {
                ghosts[other].push(scan.clone());
                run.add("edge.multi.ghost_uploads", 1.0);
            }
            routed[owner].push(scan.clone());
        }

        let now = world.time();
        let budget = self.network.downlink_budget_bytes();
        let mut shadowed = Vec::with_capacity(EDGES);
        for edge in 0..EDGES {
            let mut edge_scans = std::mem::take(&mut routed[edge]);
            edge_scans.append(&mut ghosts[edge]);
            let uploads =
                self.fleets[edge].process(run, frame, Some(span), &edge_scans, &self.network);
            let decoded: Vec<_> = uploads
                .iter()
                .filter_map(|u| upload_round_trip(run, frame, Some(span), u.clone()))
                .collect();
            shadowed.push((edge_scans, uploads));
            let plan = self.stages[edge].serve(run, frame, Some(span), now, &decoded, budget)?;
            plan_round_trip(run, frame, Some(span), plan);
        }
        run.trace.end(span);
        // The layers' share of the frame: every span under `bench.beside`.
        let layers_ms: f64 = run.trace.spans()[first_span..]
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum();
        run.sample("bench.layers_ms", layers_ms);
        count_scan(run, &scans);
        for (edge, (edge_scans, uploads)) in shadowed.iter().enumerate() {
            self.fleets[edge].shadow(run, frame, edge_scans, uploads);
        }
        Ok(())
    }
}
