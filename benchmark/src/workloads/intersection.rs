//! `intersection`: one `System::tick` on the paper's scenario.
//!
//! A frame is one `System::tick` (loopback transport, `Strategy::Ours`)
//! over 40 vehicles, half of them connected. A unit is one scenario run of
//! 150 frames whose first 5 are warm-up; units alternate the two scripted
//! conflicts. This is the whole in-process path the paper evaluates:
//! scanning and vehicle-side extraction do most of the work, the server
//! stages little.

use super::Run;
use crate::gen::paper_scenario;
use crate::recompose::{count_scan, StagePipeline, VehicleFleet};
use erpd_core::DisseminationPlan;
use erpd_edge::{Error, NetworkConfig, Strategy, System, SystemConfig};
use erpd_sim::{Scenario, ScenarioKind, World};
use std::time::Instant;

pub const FRAMES_PER_UNIT: u64 = 150;
pub const WARMUP_FRAMES: u64 = 5;
/// The byte/relevance metrics are taken over the first 8 scenario runs
/// (four of each conflict) — a little over half of what 20 s fit.
const COUNTED_UNITS: u64 = 8;

/// True when the scripted protagonists hit each other.
pub fn protagonists_collided(s: &Scenario) -> bool {
    s.world
        .collisions()
        .iter()
        .any(|&(a, b)| (a == s.ego || b == s.ego) && (a == s.hazard || b == s.hazard))
}

pub fn run(run: &mut Run) -> Result<(), Error> {
    let config = SystemConfig::new(Strategy::Ours);
    run.start_measuring();
    while !run.time_is_up() {
        let unit = run.units;
        let kind = if unit.is_multiple_of(2) {
            ScenarioKind::UnprotectedLeftTurn
        } else {
            ScenarioKind::RedLightViolation
        };

        // Set-up: scenario, system, warm-up frames.
        let t_setup = Instant::now();
        let mut s = Scenario::build(paper_scenario(kind, unit, run.seed));
        let mut system = System::builder(config).build(&s.world);
        let mut recomposed = run.traced.then(|| Recomposed {
            fleet: VehicleFleet::default(),
            stages: StagePipeline::new(&config.server, &s.world.map),
            network: config.network,
        });
        // The recomposition carries state, so it sees the warm-up frames
        // too, but what it records of them is thrown away.
        let mut warmup = run.for_warmup();
        for k in 0..WARMUP_FRAMES {
            if let Some(recomposed) = &mut recomposed {
                recomposed.frame(&mut warmup, unit * FRAMES_PER_UNIT + k, &s.world)?;
            }
            system.tick(&mut s.world)?;
            s.world.step();
        }
        run.setup_s.push(t_setup.elapsed().as_secs_f64());

        for k in WARMUP_FRAMES..FRAMES_PER_UNIT {
            if run.cut_short() {
                return Ok(());
            }
            let frame = unit * FRAMES_PER_UNIT + k;
            let recomposed = match &mut recomposed {
                Some(recomposed) => Some(recomposed.frame(run, frame, &s.world)?),
                None => None,
            };

            run.attempted += 1;
            let t = Instant::now();
            let report = system.tick(&mut s.world);
            run.frame_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match report {
                Ok(r) => {
                    let offered = r.upload_bytes.iter().sum();
                    if run.units < COUNTED_UNITS {
                        run.count_frame(offered, system.last_plan());
                    }
                    run.check(r.delivery_ratio() == 1.0, || {
                        format!(
                            "frame {frame}: delivery ratio {} on the ideal channel",
                            r.delivery_ratio()
                        )
                    });
                    if let Some(plan) = recomposed {
                        run.check(&plan == system.last_plan(), || {
                            format!("frame {frame}: the recomposed plan differs from System::last_plan()")
                        });
                    }
                }
                Err(e) => run.fail(format!("frame {frame}: System::tick returned {e}")),
            }

            run.generate("sim.step", frame, || s.world.step());
        }
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

/// `System::tick` recomposed from its public pieces.
struct Recomposed {
    fleet: VehicleFleet,
    stages: StagePipeline,
    network: NetworkConfig,
}

impl Recomposed {
    /// The frame `System::tick` is about to run: scan → vehicle side →
    /// the six stages, every call a span under one `bench.frame`. The
    /// world is only read (no alert is delivered), so the real tick that
    /// follows sees the same state.
    fn frame(
        &mut self,
        run: &mut Run,
        frame: u64,
        world: &World,
    ) -> Result<DisseminationPlan, Error> {
        let budget = self.network.downlink_budget_bytes();
        let span = run.trace.begin("bench.frame", frame, None);
        let scans = run
            .trace
            .time("sim.scan", frame, Some(span), || world.scan_connected());
        let uploads = self
            .fleet
            .process(run, frame, Some(span), &scans, &self.network);
        let plan = self
            .stages
            .serve(run, frame, Some(span), world.time(), &uploads, budget);
        run.trace.end(span);
        count_scan(run, &scans);
        self.fleet.shadow(run, frame, &scans, &uploads);
        plan
    }
}
