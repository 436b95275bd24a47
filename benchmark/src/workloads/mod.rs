//! The four workloads and what they share: the measurement record every
//! workload fills, the closed-loop deadline, and the derivation of the
//! end-to-end and per-layer metrics from that record.
//!
//! All four are **closed loops**: the next frame is offered only when the
//! previous plan is back, because a vehicle has no use for a second scan
//! until it has the plan for the first. A run offers whole *units* (one
//! scenario run, one corpus cycle, one block of round trips) until
//! `--seconds` of wall time have passed, so for one seed two runs that fit
//! the same number of units see exactly the same inputs and repeat every
//! count and every byte/relevance figure exactly.

pub mod daemon_rtt;
pub mod fleet_wire;
pub mod intersection;
pub mod multi_edge;

use crate::stats::{p50, pct, ratio};
use crate::trace::Trace;
use erpd_core::DisseminationPlan;
use erpd_edge::Error;
use erpd_geometry::stats::mean;
use std::collections::BTreeMap;
use std::time::Instant;

/// Milliseconds per nanosecond.
pub const MS: f64 = 1e-6;
/// Microseconds per nanosecond.
pub const US: f64 = 1e-3;
/// The frame period every workload serves against, milliseconds.
pub const FRAME_PERIOD_MS: f64 = 100.0;

/// Sums over the frames of the counted units: the denominators and
/// numerators of the three per-frame byte/relevance metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counted {
    pub frames: u64,
    /// Σ `Upload::bytes` offered.
    pub uplink_bytes: u64,
    /// Σ `DisseminationPlan::total_bytes`.
    pub downlink_bytes: u64,
    /// Σ `DisseminationPlan::total_relevance`.
    pub relevance: f64,
}

/// The three timing metrics of a run.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub frame_ms_p50: f64,
    pub frame_ms_p95: f64,
    pub frames_per_s: f64,
}

impl Timing {
    /// Nearest-rank percentiles of the frames, and frames ÷ `busy_s`.
    pub fn of(frame_ms: &[f64], frames: f64, busy_s: f64) -> Self {
        Timing {
            frame_ms_p50: p50(frame_ms),
            frame_ms_p95: pct(frame_ms, 0.95),
            frames_per_s: ratio(frames, busy_s),
        }
    }
}

/// Everything one run of one workload measured.
#[derive(Debug)]
pub struct Run {
    /// `--seed`: perturbs every scenario (see `crate::gen`).
    pub seed: u64,
    /// `--seconds`: wall time of the measured phase.
    pub seconds: f64,
    /// `--trace 1`: also recompose the frame layer by layer.
    pub traced: bool,
    /// `--smoke`: one set-up, and stop mid-unit when time is up — every
    /// check still runs, but the timings are of no use.
    pub smoke: bool,
    /// Wall time of each measured frame as the workload defines it, ms.
    pub frame_ms: Vec<f64>,
    /// Wall time of each set-up the run performed, seconds.
    pub setup_s: Vec<f64>,
    /// What the frames of the run's *counted* units carried — the same
    /// units on every run, however many more the run had time for.
    pub counted: Counted,
    /// Operations attempted and failed (error, missed ack, failed check).
    pub attempted: u64,
    pub failed: u64,
    /// Why the first few failures failed, for the log.
    pub failures: Vec<String>,
    /// Generator time inside the measured phase (world stepping, upload
    /// cloning/remapping/encoding, output checks), seconds.
    pub gen_s: f64,
    /// The timing metrics where pooling every frame is not the right
    /// statistic (`daemon_rtt`: the median over its sessions).
    pub timing: Option<Timing>,
    /// Whole units completed.
    pub units: u64,
    /// Workload-specific commentary for the run's `#` line.
    pub notes: Vec<String>,
    /// Named sums counted at the layer boundaries.
    pub tally: BTreeMap<&'static str, f64>,
    /// Named samples that are not spans (times a layer reports itself).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Spans of the traced run.
    pub trace: Trace,
    measuring_since: Instant,
}

impl Run {
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Self {
        Run {
            seed,
            seconds,
            traced,
            smoke: false,
            frame_ms: Vec::new(),
            setup_s: Vec::new(),
            counted: Counted::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            gen_s: 0.0,
            timing: None,
            units: 0,
            notes: Vec::new(),
            tally: BTreeMap::new(),
            samples: BTreeMap::new(),
            trace: Trace::with_capacity(if traced { 1 << 20 } else { 0 }),
            measuring_since: Instant::now(),
        }
    }

    /// A record for warm-up frames: the recomposition and the checks carry
    /// state and must see them, but what is measured of them is thrown
    /// away (the caller keeps the failures).
    pub fn for_warmup(&self) -> Run {
        Run {
            trace: Trace::with_capacity(0),
            ..Run::new(self.seed, 0.0, self.traced)
        }
    }

    /// Starts the measured phase's clock (call when set-up is done).
    pub fn start_measuring(&mut self) {
        self.measuring_since = Instant::now();
    }

    /// True once `--seconds` of the measured phase have passed.
    pub fn time_is_up(&self) -> bool {
        self.measuring_since.elapsed().as_secs_f64() >= self.seconds
    }

    /// True when a unit in progress should be abandoned (`--smoke` only:
    /// a measuring run always finishes the unit it started).
    pub fn cut_short(&self) -> bool {
        self.smoke && self.time_is_up()
    }

    /// How many set-ups to perform and time: `several`, or one for `--smoke`.
    pub fn setups(&self, several: usize) -> usize {
        if self.smoke {
            1
        } else {
            several
        }
    }

    /// Records one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Records a failed operation unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// Notes how many of the scenario runs ended without the scripted
    /// protagonists colliding.
    pub fn note_safe_runs(&mut self) {
        let note = format!(
            "safe_runs={}/{}",
            self.sum("sim.safe_runs"),
            self.sum("sim.runs")
        );
        self.notes.push(note);
    }

    /// Counts one served frame towards the byte/relevance metrics. Each
    /// workload counts the frames of its first few units only — as many as
    /// every run completes — which keeps the three metrics exactly
    /// repeatable for a seed, whatever number of further units a faster or
    /// slower machine fits into `--seconds`.
    pub fn count_frame(&mut self, uplink: u64, plan: &DisseminationPlan) {
        self.counted.frames += 1;
        self.counted.uplink_bytes += uplink;
        self.counted.downlink_bytes += plan.total_bytes;
        self.counted.relevance += plan.total_relevance;
    }

    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.tally.entry(key).or_insert(0.0) += value;
    }

    pub fn sample(&mut self, key: &'static str, value: f64) {
        self.samples.entry(key).or_default().push(value);
    }

    fn sum(&self, key: &str) -> f64 {
        self.tally.get(key).copied().unwrap_or(0.0)
    }

    fn samples_of(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// Runs generator work (anything the program under test would not do
    /// itself), charges its wall time to `bench.gen_share`, and in the
    /// traced run records it as a span beside the frame.
    pub fn generate<R>(&mut self, span: &'static str, frame: u64, work: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = if self.traced {
            self.trace.time(span, frame, None, work)
        } else {
            work()
        };
        self.gen_s += t.elapsed().as_secs_f64();
        out
    }

    /// The end-to-end metrics, by name.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let busy_s = self.frame_ms.iter().sum::<f64>() / 1e3;
        let timing = self
            .timing
            .unwrap_or_else(|| Timing::of(&self.frame_ms, self.frame_ms.len() as f64, busy_s));
        let counted = self.counted;
        let per_frame = |sum: f64| ratio(sum, counted.frames as f64);
        BTreeMap::from([
            ("frame_ms_p50", timing.frame_ms_p50),
            ("frame_ms_p95", timing.frame_ms_p95),
            ("frames_per_s", timing.frames_per_s),
            (
                "uplink_bytes_per_frame",
                per_frame(counted.uplink_bytes as f64),
            ),
            (
                "downlink_bytes_per_frame",
                per_frame(counted.downlink_bytes as f64),
            ),
            ("plan_relevance_per_frame", per_frame(counted.relevance)),
            ("setup_s", p50(&self.setup_s)),
        ])
    }

    /// Share of the measured phase spent generating load.
    pub fn gen_share(&self) -> f64 {
        let busy_s = self.frame_ms.iter().sum::<f64>() / 1e3;
        ratio(self.gen_s, self.gen_s + busy_s)
    }

    /// The per-layer metrics, by name. A layer a workload never enters
    /// reads 0 there (no spans, no counts).
    pub fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let t = &self.trace;
        let span_ms = |name: &str| p50(&t.durations(name, MS));
        let span_us = |name: &str| p50(&t.durations(name, US));
        let per = |num: &str, den: &str| ratio(self.sum(num), self.sum(den));
        let per_frame = |num: &str| ratio(self.sum(num), self.frame_ms.len() as f64);
        let host_ms = self.samples_of("edge.upload.process_ms");

        let frame_p50 = span_ms("bench.frame");
        let real_p50 = p50(&self.frame_ms);
        // Where the frame cannot be recomposed, the layers are timed
        // beside the real call: what the call costs beyond them is that
        // workload's overhead, and its share of the call is unattributed.
        let beside = self.samples_of("bench.layers_ms");
        let overhead_ms = real_p50 - p50(beside);
        let overhead = |workload_key: &str| {
            if self.sum(workload_key) > 0.0 {
                overhead_ms
            } else {
                0.0
            }
        };
        let unattributed = if beside.is_empty() {
            t.unattributed_share("bench.frame")
        } else {
            ratio(overhead_ms.max(0.0), real_p50)
        };

        BTreeMap::from([
            ("sim.scan_ms", span_ms("sim.scan")),
            ("sim.scan_points", per("sim.scan_points", "sim.scans")),
            ("sim.step_ms", span_ms("sim.step")),
            ("sim.safe_passage_share", per("sim.safe_runs", "sim.runs")),
            (
                "pointcloud.ground_transform_ms",
                span_ms("pointcloud.ground_transform"),
            ),
            ("pointcloud.extract_ms", span_ms("pointcloud.extract")),
            (
                "pointcloud.extract_points_in",
                per("pointcloud.extract_points_in", "pointcloud.extractions"),
            ),
            (
                "pointcloud.objects_out",
                per("pointcloud.objects_out", "pointcloud.extractions"),
            ),
            (
                "pointcloud.moving_share",
                per("pointcloud.moving_objects", "pointcloud.objects_out"),
            ),
            ("pointcloud.merge_ms", span_ms("pointcloud.merge")),
            (
                "pointcloud.merge_points_in",
                per("pointcloud.merge_points_in", "edge.serves"),
            ),
            (
                "pointcloud.merge_cache_hit_share",
                ratio(
                    self.sum("pointcloud.merge_cache_hits"),
                    self.sum("pointcloud.merge_cache_hits")
                        + self.sum("pointcloud.merge_cache_misses"),
                ),
            ),
            (
                "pointcloud.merge_rejected_points",
                self.sum("pointcloud.merge_rejected_points"),
            ),
            ("edge.upload.process_ms", p50(host_ms)),
            ("edge.upload.process_ms_p95", pct(host_ms, 0.95)),
            (
                "edge.upload.process_jetson_ms",
                p50(self.samples_of("edge.upload.process_jetson_ms")),
            ),
            (
                "edge.upload.bytes_per_upload",
                per("edge.upload.bytes", "edge.upload.uploads"),
            ),
            (
                "edge.upload.objects_per_upload",
                per("edge.upload.objects", "edge.upload.uploads"),
            ),
            (
                "edge.wire.upload_encode_us",
                span_us("edge.wire.upload_encode"),
            ),
            (
                "edge.wire.upload_decode_us",
                span_us("edge.wire.upload_decode"),
            ),
            (
                "edge.wire.upload_wire_bytes",
                per("edge.wire.upload_wire_bytes", "edge.wire.uploads"),
            ),
            ("edge.wire.plan_encode_us", span_us("edge.wire.plan_encode")),
            ("edge.wire.plan_decode_us", span_us("edge.wire.plan_decode")),
            (
                "edge.wire.plan_wire_bytes",
                per("edge.wire.plan_wire_bytes", "edge.wire.plans"),
            ),
            (
                "edge.wire.handover_roundtrip_us",
                span_us("edge.wire.handover_roundtrip"),
            ),
            (
                "edge.wire.handover_wire_bytes",
                per("edge.wire.handover_wire_bytes", "edge.wire.handovers"),
            ),
            (
                "edge.wire.decode_errors",
                self.sum("edge.wire.decode_errors"),
            ),
            (
                "edge.pipeline.associate_ms",
                span_ms("edge.pipeline.associate"),
            ),
            ("tracking.track_ms", span_ms("tracking.track")),
            ("tracking.predict_ms", span_ms("tracking.predict")),
            ("tracking.tracks", per("tracking.tracks", "edge.serves")),
            (
                "tracking.predicted_trajectories",
                per("tracking.predicted_trajectories", "edge.serves"),
            ),
            (
                "tracking.coasted_objects",
                self.sum("tracking.coasted_objects"),
            ),
            ("core.relevance_ms", span_ms("core.relevance")),
            (
                "core.relevance_pairs",
                per("core.relevance_pairs", "edge.serves"),
            ),
            (
                "core.relevance_nonzero_share",
                per("core.relevance_nonzero", "core.relevance_pairs"),
            ),
            ("core.disseminate_ms", span_ms("core.disseminate")),
            (
                "core.plan_assignments",
                per("core.plan_assignments", "edge.serves"),
            ),
            ("edge.transport.serve_ms", span_ms("edge.transport.serve")),
            (
                "edge.transport.tcp_send_us",
                span_us("edge.transport.tcp_send"),
            ),
            (
                "edge.transport.over_period_frames",
                self.frame_ms
                    .iter()
                    .filter(|&&ms| ms > FRAME_PERIOD_MS)
                    .count() as f64,
            ),
            (
                "edge.daemon.overhead_ms",
                overhead("edge.daemon.frames_served"),
            ),
            (
                "edge.daemon.frames_served",
                self.sum("edge.daemon.frames_served"),
            ),
            (
                "edge.daemon.rounds_per_frame_served",
                per("edge.daemon.rounds", "edge.daemon.frames_served"),
            ),
            (
                "edge.daemon.missed_acks",
                self.sum("edge.daemon.missed_acks"),
            ),
            (
                "edge.daemon.broadcast_bytes_per_frame",
                per("edge.daemon.broadcast_bytes", "edge.daemon.frames_served"),
            ),
            (
                "edge.daemon.connect_ms",
                p50(self.samples_of("edge.daemon.connect_ms")),
            ),
            ("edge.multi.handovers", self.sum("edge.multi.handovers")),
            (
                "edge.multi.ghost_uploads_per_frame",
                per_frame("edge.multi.ghost_uploads"),
            ),
            (
                "edge.multi.max_edge_upload_share",
                mean(self.samples_of("edge.multi.max_edge_upload_share")),
            ),
            ("edge.multi.overhead_ms", overhead("edge.multi.frames")),
            ("par.threads", erpd_par::max_threads() as f64),
            ("bench.samples", self.frame_ms.len() as f64),
            ("bench.frame_ms_p99", pct(&self.frame_ms, 0.99)),
            ("bench.gen_share", self.gen_share()),
            ("bench.peak_rss_mb", peak_rss_mb()),
            ("bench.trace_frame_ratio", ratio(frame_p50, real_p50)),
            ("bench.unattributed_share", unattributed),
        ])
    }
}

/// Peak resident set of this process, MiB (`VmHWM`; 0 where `/proc` is
/// not available).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs the named workload to completion.
pub fn run(name: &str, run: &mut Run) -> Result<(), Error> {
    match name {
        "intersection" => intersection::run(run),
        "fleet_wire" => fleet_wire::run(run),
        "daemon_rtt" => daemon_rtt::run(run),
        "multi_edge" => multi_edge::run(run),
        other => unreachable!("workload {other} is validated against the table before it runs"),
    }
}
