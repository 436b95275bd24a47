//! Run-level evaluation: drives a scenario under a strategy and aggregates
//! the metrics every figure of the paper's evaluation plots.

use crate::system::delivery_ratio;
use crate::{ModuleTimes, Strategy, System, SystemConfig};
use erpd_core::Error;
use erpd_geometry::stats::quantile;
use erpd_sim::{EntityKind, Scenario, ScenarioConfig, FRAME_PERIOD};

/// Configuration of one evaluation run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The scenario (kind, speed, connectivity, seed...).
    pub scenario: ScenarioConfig,
    /// Simulated duration, seconds.
    pub duration: f64,
    /// System parameters, the strategy under test included.
    pub system: SystemConfig,
}

impl RunConfig {
    /// A run with default system parameters.
    pub fn new(strategy: Strategy, scenario: ScenarioConfig) -> Self {
        RunConfig {
            scenario,
            duration: 15.0,
            system: SystemConfig::new(strategy),
        }
    }

    /// Returns the configuration with the simulated duration replaced.
    pub fn with_duration(mut self, duration: f64) -> Self {
        self.duration = duration;
        self
    }

    /// Returns the configuration with the system parameters replaced.
    /// The run's strategy wins: `system.strategy` is overwritten so the
    /// two cannot disagree.
    pub fn with_system(mut self, system: SystemConfig) -> Self {
        self.system = SystemConfig {
            strategy: self.system.strategy,
            ..system
        };
        self
    }
}

/// Aggregated outcome of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Neither protagonist was involved in any collision.
    pub safe_passage: bool,
    /// Minimum distance ever observed between the protagonists, metres
    /// (0 when they collided).
    pub min_distance: f64,
    /// Collisions anywhere in the world during the run.
    pub total_collisions: usize,
    /// Mean per-connected-vehicle upload bandwidth, Mbit/s.
    pub upload_mbps_per_vehicle: f64,
    /// Mean total dissemination bandwidth, Mbit/s.
    pub dissemination_mbps: f64,
    /// Mean number of ground-truth moving objects matched by a server
    /// detection per frame.
    pub detected_objects: f64,
    /// Mean number of predicted trajectories per frame.
    pub predicted_trajectories: f64,
    /// Delivered / expected uploads over the whole run (1 on an ideal
    /// network, lower when the fault layer loses uploads).
    pub delivery_ratio: f64,
    /// 95th percentile of served-object staleness, seconds (0 when nothing
    /// was ever coasted).
    pub staleness_p95: f64,
    /// Mean coasted (stale-served) objects per frame.
    pub coasted_objects: f64,
    /// Mean per-module times per frame, seconds (Fig. 14b); their
    /// `end_to_end()` is the mean end-to-end latency.
    pub module_times: ModuleTimes,
}

/// Runs one scenario under one strategy and aggregates the metrics.
///
/// # Errors
///
/// Propagates any [`Error`] from the per-frame pipeline (an invalid
/// [`crate::FaultModel`] is the common caller-facing case).
pub fn run(config: RunConfig) -> Result<RunResult, Error> {
    let mut scenario = Scenario::build(config.scenario);
    let mut system = System::builder(config.system).build(&scenario.world);

    let steps = (config.duration / FRAME_PERIOD).ceil() as usize;
    let mut min_distance = f64::INFINITY;
    let mut upload_bytes_sum = 0u64;
    let mut upload_samples = 0usize;
    let mut dissemination_bytes_sum = 0u64;
    let mut detected_sum = 0.0;
    let mut predicted_sum = 0.0;
    let mut times = ModuleTimes::default();
    let mut frames = 0usize;
    let mut expected_uploads = 0usize;
    let mut delivered_uploads = 0usize;
    let mut coasted_sum = 0usize;
    let mut staleness: Vec<f64> = Vec::new();

    for _ in 0..steps {
        let report = system.tick(&mut scenario.world)?;
        frames += 1;
        expected_uploads += report.expected_uploads;
        delivered_uploads += report.delivered_uploads;
        coasted_sum += report.staleness.len();
        staleness.extend_from_slice(&report.staleness);
        upload_bytes_sum += report.upload_bytes.iter().sum::<u64>();
        upload_samples += report.upload_bytes.len();
        dissemination_bytes_sum += report.dissemination_bytes;
        predicted_sum += report.predicted_trajectories as f64;
        times.add(&report.times());

        // Ground-truth match: how many moving entities did the server know?
        let moving: Vec<_> = scenario
            .world
            .entities()
            .into_iter()
            .filter(|e| {
                e.kind != EntityKind::Building && e.velocity.norm() > 0.3 && !e.connected
            })
            .collect();
        let matched = moving
            .iter()
            .filter(|e| {
                report
                    .detected_positions
                    .iter()
                    .any(|p| p.distance(e.position) <= 3.0)
            })
            .count();
        detected_sum += matched as f64;

        scenario.world.step();
        if let Some(d) = scenario.world.distance_between(scenario.ego, scenario.hazard) {
            min_distance = min_distance.min(d);
        }
    }

    let ego = scenario.ego;
    let hazard = scenario.hazard;
    let protagonist_collided = scenario
        .world
        .collisions()
        .iter()
        .any(|&(a, b)| a == ego || b == ego || a == hazard || b == hazard);
    if protagonist_collided {
        min_distance = 0.0;
    }

    let to_mbps = |bytes: f64, n: f64| {
        if n <= 0.0 {
            0.0
        } else {
            bytes / n * 8.0 / FRAME_PERIOD / 1e6
        }
    };
    let nf = frames.max(1) as f64;
    Ok(RunResult {
        safe_passage: !protagonist_collided,
        min_distance: if min_distance.is_finite() { min_distance } else { 0.0 },
        total_collisions: scenario.world.collisions().len(),
        upload_mbps_per_vehicle: to_mbps(upload_bytes_sum as f64, upload_samples as f64),
        dissemination_mbps: to_mbps(dissemination_bytes_sum as f64, nf),
        detected_objects: detected_sum / nf,
        predicted_trajectories: predicted_sum / nf,
        delivery_ratio: delivery_ratio(delivered_uploads, expected_uploads),
        staleness_p95: quantile(&mut staleness, 0.95),
        coasted_objects: coasted_sum as f64 / nf,
        module_times: times.scaled(1.0 / nf),
    })
}

/// Runs `seeds` runs and returns the fraction with safe passage plus the
/// mean of each metric — one point of a paper figure.
///
/// # Errors
///
/// The first [`Error`] any seed's run produces.
pub fn run_seeds(base: RunConfig, seeds: &[u64]) -> Result<AveragedResult, Error> {
    let mut results = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let mut cfg = base;
        cfg.scenario.seed = seed;
        results.push(run(cfg)?);
    }
    Ok(AveragedResult::from_runs(&results))
}

/// Seed-averaged metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AveragedResult {
    /// Fraction of runs with safe passage, in `[0, 1]`.
    pub safe_passage_rate: f64,
    /// Mean minimum protagonist distance, metres.
    pub min_distance: f64,
    /// Mean per-vehicle upload bandwidth, Mbit/s.
    pub upload_mbps_per_vehicle: f64,
    /// Mean dissemination bandwidth, Mbit/s.
    pub dissemination_mbps: f64,
    /// Mean detected moving objects per frame.
    pub detected_objects: f64,
    /// Mean upload delivery ratio.
    pub delivery_ratio: f64,
    /// Mean 95th-percentile staleness, seconds.
    pub staleness_p95: f64,
    /// Mean coasted objects per frame.
    pub coasted_objects: f64,
    /// Mean module breakdown, seconds.
    pub module_times: ModuleTimes,
}

impl AveragedResult {
    /// Averages a set of run results.
    pub(crate) fn from_runs(runs: &[RunResult]) -> Self {
        let n = runs.len().max(1) as f64;
        let mean = |f: &dyn Fn(&RunResult) -> f64| runs.iter().map(f).sum::<f64>() / n;
        let mut module_times = ModuleTimes::default();
        for r in runs {
            module_times.add(&r.module_times);
        }
        AveragedResult {
            safe_passage_rate: mean(&|r| if r.safe_passage { 1.0 } else { 0.0 }),
            min_distance: mean(&|r| r.min_distance),
            upload_mbps_per_vehicle: mean(&|r| r.upload_mbps_per_vehicle),
            dissemination_mbps: mean(&|r| r.dissemination_mbps),
            detected_objects: mean(&|r| r.detected_objects),
            delivery_ratio: mean(&|r| r.delivery_ratio),
            staleness_p95: mean(&|r| r.staleness_p95),
            coasted_objects: mean(&|r| r.coasted_objects),
            module_times: module_times.scaled(1.0 / n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erpd_sim::ScenarioKind;

    fn scenario_cfg(kind: ScenarioKind) -> ScenarioConfig {
        ScenarioConfig {
            kind,
            n_vehicles: 24, // smaller casts keep unit tests fast
            n_pedestrians: 6,
            seed: 11,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn single_is_unsafe_ours_is_safe() {
        let sc = scenario_cfg(ScenarioKind::UnprotectedLeftTurn);
        let single = run(RunConfig::new(Strategy::Single, sc)).unwrap();
        let ours = run(RunConfig::new(Strategy::Ours, sc)).unwrap();
        assert!(!single.safe_passage);
        assert_eq!(single.min_distance, 0.0);
        assert!(ours.safe_passage, "ours = {ours:?}");
        assert!(ours.min_distance > 0.5);
    }

    #[test]
    fn bandwidth_ordering_matches_paper() {
        let sc = scenario_cfg(ScenarioKind::RedLightViolation);
        let ours = run(RunConfig::new(Strategy::Ours, sc)).unwrap();
        let emp = run(RunConfig::new(Strategy::Emp, sc)).unwrap();
        let unlimited = run(RunConfig::new(Strategy::Unlimited, sc)).unwrap();
        // Upload: ours < emp < unlimited (Fig 12a).
        assert!(
            ours.upload_mbps_per_vehicle < emp.upload_mbps_per_vehicle,
            "ours {} vs emp {}",
            ours.upload_mbps_per_vehicle,
            emp.upload_mbps_per_vehicle
        );
        assert!(emp.upload_mbps_per_vehicle < unlimited.upload_mbps_per_vehicle);
        // Dissemination: ours < emp <= unlimited (Fig 13).
        assert!(ours.dissemination_mbps < emp.dissemination_mbps);
        assert!(emp.dissemination_mbps <= unlimited.dissemination_mbps + 1e-9);
    }

    #[test]
    fn seed_averaging() {
        let sc = scenario_cfg(ScenarioKind::UnprotectedLeftTurn);
        let avg = run_seeds(RunConfig::new(Strategy::Single, sc), &[1, 2]).unwrap();
        assert_eq!(avg.safe_passage_rate, 0.0);
        assert_eq!(avg.min_distance, 0.0);
    }

    #[test]
    fn ideal_network_has_unit_delivery_and_no_staleness() {
        let sc = scenario_cfg(ScenarioKind::UnprotectedLeftTurn);
        let cfg = RunConfig::new(Strategy::Ours, sc).with_duration(3.0);
        let r = run(cfg).unwrap();
        assert_eq!(r.delivery_ratio, 1.0);
        assert_eq!(r.staleness_p95, 0.0);
        assert_eq!(r.coasted_objects, 0.0);
    }

    #[test]
    fn lossy_channel_degrades_delivery_gracefully() {
        use crate::{FaultModel, NetworkConfig, ServerConfig};
        let sc = scenario_cfg(ScenarioKind::UnprotectedLeftTurn);
        let system = SystemConfig::new(Strategy::Ours)
            .with_network(
                NetworkConfig::default()
                    .with_fault(FaultModel::default().with_loss_prob(0.3).with_seed(7)),
            )
            .with_server(ServerConfig::default().with_coast_horizon(1.0));
        let cfg = RunConfig::new(Strategy::Ours, sc)
            .with_system(system)
            .with_duration(5.0);
        let r = run(cfg).unwrap();
        assert!(
            r.delivery_ratio > 0.4 && r.delivery_ratio < 0.95,
            "delivery_ratio = {}",
            r.delivery_ratio
        );
        assert!(r.coasted_objects > 0.0, "losses must force coasting");
        assert!(r.staleness_p95 > 0.0, "coasted objects must age");
    }

    #[test]
    fn invalid_fault_model_is_an_error_not_a_panic() {
        use crate::{FaultModel, NetworkConfig};
        let sc = scenario_cfg(ScenarioKind::UnprotectedLeftTurn);
        let system = SystemConfig::new(Strategy::Ours).with_network(
            NetworkConfig::default().with_fault(FaultModel::default().with_loss_prob(1.5)),
        );
        let cfg = RunConfig::new(Strategy::Ours, sc).with_system(system);
        assert!(matches!(run(cfg), Err(Error::InvalidConfig { .. })));
    }

    #[test]
    fn detected_objects_positive_for_sharing_strategies() {
        let sc = scenario_cfg(ScenarioKind::UnprotectedLeftTurn);
        let ours = run(RunConfig::new(Strategy::Ours, sc)).unwrap();
        assert!(ours.detected_objects > 0.5, "detected = {}", ours.detected_objects);
        let single = run(RunConfig::new(Strategy::Single, sc)).unwrap();
        assert_eq!(single.detected_objects, 0.0);
    }
}
