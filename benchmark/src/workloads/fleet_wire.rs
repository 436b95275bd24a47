//! `fleet_wire`: the edge's share of a frame for a 128-vehicle fleet over
//! the byte path, without sockets.
//!
//! A frame is `WireTransport::recv_uploads` (decode 128 uploads) →
//! `ServingCore::serve` → `send_plan` → `recv_plans`. The uploads are a
//! corpus of the default scenario replicated to 128 vehicle ids on the
//! ±20 m lattice; cloning, remapping and encoding them is the other
//! vehicles' work and stays outside the timed region. A unit is one whole
//! corpus cycle, because frame cost varies a lot along the scenario and
//! only whole cycles see the same mix. There is no extraction here: merge,
//! relevance (quadratic in the fleet) and the codec do the work.

use super::Run;
use crate::gen::{corpus, fleet_frame, CORPUS_FRAMES};
use crate::recompose::{decode_upload, encode_upload, plan_round_trip, StagePipeline};
use erpd_core::DisseminationPlan;
use erpd_edge::capacity::Corpus;
use erpd_edge::{
    Error, PipelineBuilder, ServingCore, SystemConfig, Transport, Upload, WireTransport,
};
use std::time::Instant;

pub const FLEET: usize = 128;
pub const WARMUP_FRAMES: u64 = 10;
pub const FRAMES_PER_UNIT: u64 = CORPUS_FRAMES;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The byte/relevance metrics are taken over the first two corpus cycles:
/// a run always completes the second unless one cycle outlasts `--seconds`.
const COUNTED_UNITS: u64 = 2;

pub fn serving_core(config: &SystemConfig, corpus: &Corpus) -> ServingCore {
    let (server, disseminate) = PipelineBuilder::new(config.server, corpus.map.clone()).build();
    ServingCore::new(server, disseminate)
}

/// What serves a frame, in its three forms: the real byte path, the
/// reference core it is checked against, and the recomposition.
struct Edge {
    transport: WireTransport,
    core: ServingCore,
    reference: ServingCore,
    stages: StagePipeline,
    budget: u64,
    period: f64,
}

impl Edge {
    fn new(config: &SystemConfig, corpus: &Corpus) -> Self {
        Edge {
            transport: WireTransport::new(),
            core: serving_core(config, corpus),
            reference: serving_core(config, corpus),
            stages: StagePipeline::new(&config.server, &corpus.map),
            budget: config.network.downlink_budget_bytes(),
            period: config.network.frame_period,
        }
    }

    /// The timed region: the byte path from queued upload frames to the
    /// decoded plan. Returns the decoded uploads too, for the checks.
    fn serve(&mut self, k: u64, now: f64) -> Result<(Vec<Upload>, DisseminationPlan), Error> {
        let arrivals = self.transport.recv_uploads()?;
        let (_, planned) = self.core.serve(now, &arrivals, self.budget)?;
        self.transport.send_plan(k, planned.artifact)?;
        let (_, plan) = self.transport.recv_plans()?.pop().ok_or(Error::Codec {
            reason: "the wire transport delivered no plan",
        })?;
        Ok((arrivals, plan))
    }

    /// Offers, serves and checks frame `k`, recording it in `run`.
    fn frame(&mut self, run: &mut Run, corpus: &Corpus, k: u64) -> Result<(), Error> {
        let now = k as f64 * self.period;

        // The fleet's side: clone, remap, encode — other vehicles' work.
        let t_gen = Instant::now();
        let uploads = fleet_frame(corpus, k, FLEET);
        let offered: u64 = uploads.iter().map(|u| u.bytes).sum();
        let mut wire = Vec::new();
        for upload in uploads {
            if run.traced {
                wire.push(encode_upload(run, k, None, upload.clone()));
            }
            self.transport.send_upload(k, upload)?;
        }
        run.gen_s += t_gen.elapsed().as_secs_f64();

        run.attempted += 1;
        let t = Instant::now();
        let served = self.serve(k, now);
        run.frame_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let (arrivals, plan) = match served {
            Ok(served) => served,
            Err(e) => {
                run.fail(format!("frame {k}: the byte path returned {e}"));
                return Ok(());
            }
        };
        if run.units < COUNTED_UNITS {
            run.count_frame(offered, &plan);
        }

        // Output check: a local core fed the same decoded uploads must
        // plan the same assignments, bytes and relevance.
        let t_check = Instant::now();
        let reference = &mut self.reference;
        let budget = self.budget;
        let (_, expected) = run.trace.time("edge.transport.serve", k, None, || {
            reference.serve(now, &arrivals, budget)
        })?;
        run.check(plan == expected.artifact, || {
            format!("frame {k}: the plan off the byte path differs from a local ServingCore's")
        });
        run.check(arrivals.len() == FLEET, || {
            format!("frame {k}: {} of {FLEET} uploads decoded", arrivals.len())
        });
        run.gen_s += t_check.elapsed().as_secs_f64();

        if run.traced {
            let span = run.trace.begin("bench.frame", k, None);
            let decoded: Vec<Upload> = wire
                .iter()
                .filter_map(|bytes| decode_upload(run, k, Some(span), bytes))
                .collect();
            let planned = self
                .stages
                .serve(run, k, Some(span), now, &decoded, budget)?;
            let recomposed = plan_round_trip(run, k, Some(span), planned);
            run.trace.end(span);
            run.check(recomposed.as_ref() == Some(&plan), || {
                format!("frame {k}: the recomposed plan differs from the WireTransport plan")
            });
        }
        Ok(())
    }
}

pub fn run(run: &mut Run) -> Result<(), Error> {
    let config = SystemConfig::default();
    let mut ready = None;
    for _ in 0..run.setups(SETUPS) {
        let t = Instant::now();
        let corpus = corpus(run.seed, &config);
        let mut edge = Edge::new(&config, &corpus);
        // What the warm-up frames record is thrown away, except failures.
        let mut warmup = run.for_warmup();
        for k in 0..WARMUP_FRAMES {
            edge.frame(&mut warmup, &corpus, k)?;
        }
        run.setup_s.push(t.elapsed().as_secs_f64());
        run.attempted += warmup.attempted;
        for why in warmup.failures {
            run.fail(format!("warm-up {why}"));
        }
        ready = Some((corpus, edge));
    }
    let (corpus, mut edge) = ready.expect("SETUPS is at least one");

    run.start_measuring();
    let mut k = WARMUP_FRAMES;
    while !run.time_is_up() {
        for _ in 0..FRAMES_PER_UNIT {
            if run.cut_short() {
                return Ok(());
            }
            edge.frame(run, &corpus, k)?;
            k += 1;
        }
        run.units += 1;
    }
    Ok(())
}
