//! Safety figures: Fig. 10(a) safe passage vs. speed, Fig. 10(b) safe
//! passage vs. connectivity, Fig. 11 minimum inter-vehicle distance.

use crate::table::strategy_name;
use crate::{f1, f3, HarnessConfig, Table};
use erpd_edge::{
    run_seeds, AveragedResult, Error, FaultModel, NetworkConfig, RunConfig, ServerConfig,
    Strategy, SystemConfig,
};
use erpd_sim::{ScenarioConfig, ScenarioKind};

/// The strategies compared by the safety figures.
pub(crate) const STRATEGIES: [Strategy; 4] = [
    Strategy::Single,
    Strategy::Emp,
    Strategy::Ours,
    Strategy::Unlimited,
];

fn scenario_name(k: ScenarioKind) -> &'static str {
    match k {
        ScenarioKind::UnprotectedLeftTurn => "left_turn",
        ScenarioKind::RedLightViolation => "red_light",
        ScenarioKind::OccludedPedestrian => "demo",
    }
}

/// Runs one figure point.
fn point(
    cfg: &HarnessConfig,
    kind: ScenarioKind,
    strategy: Strategy,
    speed_kmh: f64,
    connected_fraction: f64,
) -> Result<AveragedResult, Error> {
    let scenario = ScenarioConfig::default()
        .with_kind(kind)
        .with_speed_kmh(speed_kmh)
        .with_connected_fraction(connected_fraction);
    let rc = RunConfig::new(strategy, scenario).with_duration(cfg.duration);
    run_seeds(rc, &cfg.seeds)
}

/// Fig. 10(a) + Fig. 11: sweep speed at 30 % connectivity; returns
/// `(safe-passage table, min-distance table)`.
pub fn sweep_speed(cfg: &HarnessConfig) -> Result<(Table, Table), Error> {
    let mut safety = Table::new(
        "fig10a_safe_passage_vs_speed",
        &["scenario", "speed_kmh", "strategy", "safe_passage_pct"],
    );
    let mut distance = Table::new(
        "fig11_min_distance_vs_speed",
        &["scenario", "speed_kmh", "strategy", "min_distance_m"],
    );
    for kind in [ScenarioKind::UnprotectedLeftTurn, ScenarioKind::RedLightViolation] {
        for &speed in &cfg.speeds_kmh {
            for strategy in STRATEGIES {
                let avg = point(cfg, kind, strategy, speed, 0.3)?;
                safety.push_row(vec![
                    scenario_name(kind).into(),
                    f1(speed),
                    strategy_name(strategy).into(),
                    f1(avg.safe_passage_rate * 100.0),
                ]);
                distance.push_row(vec![
                    scenario_name(kind).into(),
                    f1(speed),
                    strategy_name(strategy).into(),
                    f3(avg.min_distance),
                ]);
            }
        }
    }
    Ok((safety, distance))
}

/// Fig. 10(b): sweep connectivity at 30 km/h (Single has no connectivity
/// axis, so it is omitted as in the paper).
pub fn sweep_connectivity(cfg: &HarnessConfig) -> Result<Table, Error> {
    let mut table = Table::new(
        "fig10b_safe_passage_vs_connectivity",
        &["scenario", "connected_pct", "strategy", "safe_passage_pct"],
    );
    for kind in [ScenarioKind::UnprotectedLeftTurn, ScenarioKind::RedLightViolation] {
        for &frac in &cfg.connectivity {
            for strategy in [Strategy::Emp, Strategy::Ours, Strategy::Unlimited] {
                let avg = point(cfg, kind, strategy, 30.0, frac)?;
                table.push_row(vec![
                    scenario_name(kind).into(),
                    f1(frac * 100.0),
                    strategy_name(strategy).into(),
                    f1(avg.safe_passage_rate * 100.0),
                ]);
            }
        }
    }
    Ok(table)
}

/// Fault-layer figure: sweep the upload loss probability under `Ours` with
/// a 1 s coast horizon, reporting the graceful-degradation metrics.
pub fn sweep_loss(cfg: &HarnessConfig) -> Result<Table, Error> {
    let mut table = Table::new(
        "faults_safety_vs_loss",
        &[
            "loss_pct",
            "delivery_pct",
            "staleness_p95_s",
            "coasted_per_frame",
            "safe_passage_pct",
        ],
    );
    for &loss in &[0.0, 0.1, 0.2, 0.4] {
        let fault = FaultModel::default().with_loss_prob(loss).with_seed(7);
        let system = SystemConfig::new(Strategy::Ours)
            .with_network(NetworkConfig::default().with_fault(fault))
            .with_server(ServerConfig::default().with_coast_horizon(1.0));
        let scenario =
            ScenarioConfig::default().with_kind(ScenarioKind::UnprotectedLeftTurn);
        let rc = RunConfig::new(Strategy::Ours, scenario)
            .with_duration(cfg.duration)
            .with_system(system);
        let avg = run_seeds(rc, &cfg.seeds)?;
        table.push_row(vec![
            f1(loss * 100.0),
            f1(avg.delivery_ratio * 100.0),
            f3(avg.staleness_p95),
            f1(avg.coasted_objects),
            f1(avg.safe_passage_rate * 100.0),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single shared quick sweep exercises the full safety pipeline.
    #[test]
    fn quick_speed_sweep_has_paper_shape() {
        let mut cfg = HarnessConfig::quick();
        cfg.seeds = vec![0];
        cfg.speeds_kmh = vec![25.0];
        let (safety, distance) = sweep_speed(&cfg).unwrap();
        assert_eq!(safety.rows.len(), 2 * STRATEGIES.len());
        // Single is always 0 %, Ours is 100 % at 25 km/h.
        for row in &safety.rows {
            match row[2].as_str() {
                "Single" => assert_eq!(row[3], "0.0", "{row:?}"),
                "Ours" => assert_eq!(row[3], "100.0", "{row:?}"),
                _ => {}
            }
        }
        // Ours keeps a larger clearance than Single (= 0).
        for row in &distance.rows {
            if row[2] == "Ours" {
                assert!(row[3].parse::<f64>().unwrap() > 0.3, "{row:?}");
            }
            if row[2] == "Single" {
                assert_eq!(row[3], "0.000");
            }
        }
    }

    /// A seeded lossy run completes with the degradation metrics populated.
    #[test]
    fn quick_loss_sweep_degrades_gracefully() {
        let mut cfg = HarnessConfig::quick();
        cfg.seeds = vec![0];
        cfg.duration = 5.0;
        let t = sweep_loss(&cfg).unwrap();
        assert_eq!(t.rows.len(), 4);
        // Loss 0: full delivery. (Coasting may still trigger: with a
        // nonzero horizon the server also bridges occlusion gaps.)
        assert_eq!(t.rows[0][1], "100.0");
        // Loss 20 %: delivery visibly below 100 %, degradation metrics
        // populated.
        let delivery: f64 = t.rows[2][1].parse().unwrap();
        assert!(delivery < 95.0, "delivery {delivery}");
        let stale: f64 = t.rows[2][2].parse().unwrap();
        assert!(stale > 0.0, "staleness {stale}");
        let coasted: f64 = t.rows[2][3].parse().unwrap();
        assert!(coasted > 0.0, "coasted {coasted}");
    }
}
