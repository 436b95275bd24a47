//! Contract tests of the fault-injection layer.
//!
//! The load-bearing property: a [`FaultModel`] whose impairment knobs are
//! all zero is *bit-identical* to the ideal network, for every scenario
//! seed and every fault seed. That is what lets the fault layer live on the
//! default code path — ideal-channel figures reproduce exactly, without an
//! `if faults_enabled` fork anywhere in the pipeline.
//!
//! The rest pins the degraded-mode behaviour: a lossy seeded run completes
//! with delivery/staleness metrics populated (no panics), reruns reproduce
//! the exact same fault pattern, and distinct fault seeds draw distinct
//! patterns.

use erpd::prelude::*;
use erpd_rand::proptest::prelude::*;
// Pin the name: both preludes export a `Strategy` (erpd's enum, proptest's
// trait); the explicit import resolves the glob-glob ambiguity in favour of
// the enum this file actually uses.
use erpd::edge::Strategy;

fn reports(scenario_seed: u64, fault: FaultModel, frames: usize) -> Vec<FrameReport> {
    let mut s = Scenario::build(
        ScenarioConfig::default()
            .with_kind(ScenarioKind::UnprotectedLeftTurn)
            .with_n_vehicles(16)
            .with_seed(scenario_seed),
    );
    let cfg = SystemConfig::new(Strategy::Ours)
        .with_network(NetworkConfig::default().with_fault(fault));
    let mut sys = System::builder(cfg).build(&s.world);
    (0..frames)
        .map(|_| {
            let r = sys.tick(&mut s.world).expect("valid configuration");
            s.world.step();
            r
        })
        .collect()
}

/// Everything except the `times` block (wall clock) must match.
fn identical(a: &FrameReport, b: &FrameReport) -> bool {
    a.upload_bytes == b.upload_bytes
        && a.dissemination_bytes == b.dissemination_bytes
        && a.assignments == b.assignments
        && a.alerted == b.alerted
        && a.detected_positions == b.detected_positions
        && a.predicted_trajectories == b.predicted_trajectories
        && a.expected_uploads == b.expected_uploads
        && a.delivered_uploads == b.delivered_uploads
        && a.lost_uploads == b.lost_uploads
        && a.late_uploads == b.late_uploads
        && a.truncated_uploads == b.truncated_uploads
        && a.staleness == b.staleness
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A zero-impairment fault model is transparent: same reports as a
    /// `NetworkConfig` that never mentions faults, whatever the fault seed
    /// (no draw may be consumed when every probability is zero) and
    /// whatever the scenario.
    #[test]
    fn zero_fault_model_is_bit_identical_to_ideal(
        scenario_seed in 0u64..6,
        fault_seed in 0u64..1000,
    ) {
        let ideal = reports(scenario_seed, FaultModel::default(), 25);
        let zero = reports(
            scenario_seed,
            FaultModel::default()
                .with_loss_prob(0.0)
                .with_jitter(0.0)
                .with_churn_prob(0.0)
                .with_truncate_prob(0.0)
                .with_seed(fault_seed),
            25,
        );
        for (k, (a, b)) in ideal.iter().zip(&zero).enumerate() {
            prop_assert!(identical(a, b), "frame {} diverged under a zero fault model", k);
        }
    }
}

#[test]
fn lossy_run_completes_with_metrics_populated() {
    let fault = FaultModel::default().with_loss_prob(0.2).with_seed(9);
    let system = SystemConfig::new(Strategy::Ours)
        .with_network(NetworkConfig::default().with_fault(fault))
        .with_server(ServerConfig::default().with_coast_horizon(1.0));
    let scenario =
        ScenarioConfig::default().with_kind(ScenarioKind::UnprotectedLeftTurn);
    let cfg = RunConfig::new(Strategy::Ours, scenario)
        .with_duration(5.0)
        .with_system(system);
    let r = run(cfg).expect("lossy run must complete without panicking");
    assert!(
        r.delivery_ratio > 0.5 && r.delivery_ratio < 1.0,
        "delivery ratio must reflect ~20% loss, got {}",
        r.delivery_ratio
    );
    assert!(r.coasted_objects > 0.0, "coasting must kick in under loss");
    assert!(r.staleness_p95 > 0.0, "staleness must be measured");
}

#[test]
fn same_fault_seed_reproduces_the_exact_loss_pattern() {
    let fault = FaultModel::default()
        .with_loss_prob(0.25)
        .with_truncate_prob(0.15)
        .with_seed(3);
    let a = reports(1, fault, 30);
    let b = reports(1, fault, 30);
    for (k, (x, y)) in a.iter().zip(&b).enumerate() {
        assert!(identical(x, y), "frame {k}: rerun diverged");
    }
    assert!(
        a.iter().any(|r| r.lost_uploads > 0),
        "a 25% loss run must actually lose uploads"
    );
}

#[test]
fn different_fault_seeds_draw_different_patterns() {
    let base = FaultModel::default().with_loss_prob(0.3);
    let a = reports(1, base.with_seed(0), 30);
    let b = reports(1, base.with_seed(1), 30);
    let losses = |rs: &[FrameReport]| rs.iter().map(|r| r.lost_uploads).collect::<Vec<_>>();
    assert_ne!(
        losses(&a),
        losses(&b),
        "independent fault seeds should not replay the same loss pattern"
    );
}
