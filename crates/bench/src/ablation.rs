//! Ablation experiments for the design choices DESIGN.md calls out:
//!
//! * greedy vs. exact-DP knapsack (optimality gap and runtime),
//! * the follower decay factor α,
//! * the relevance definition (combined vs. ci-only vs. ttc-only vs. the
//!   point-Gaussian baseline).

use crate::{f1, f3, HarnessConfig, Table};
use erpd_core::{dp_knapsack, greedy_knapsack, KnapsackItem, RelevanceConfig, RelevanceMode};
use erpd_edge::{run_seeds, Error, RunConfig, ServerConfig, Strategy, SystemConfig};
use erpd_sim::{ScenarioConfig, ScenarioKind};
use erpd_rand::rngs::StdRng;
use erpd_rand::{Rng, SeedableRng};
use std::time::Instant;

/// Synthesises a dissemination-shaped knapsack instance: relevance values
/// in `[0, 1]`, sizes like merged object clouds (hundreds of bytes to a few
/// kB).
pub(crate) fn dissemination_instance(n: usize, seed: u64) -> (Vec<KnapsackItem>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let items = (0..n)
        .map(|_| KnapsackItem {
            value: rng.gen_range(0.0..1.0),
            weight: rng.gen_range(300..6000),
        })
        .collect();
    // A budget that binds: roughly a third of the total weight.
    let budget = (n as u64) * 3150 / 3;
    (items, budget)
}

/// Greedy vs. exact DP: value ratio and runtimes across instance sizes.
pub fn knapsack_ablation(cfg: &HarnessConfig) -> Table {
    let mut t = Table::new(
        "ablation_knapsack_greedy_vs_dp",
        &[
            "pairs",
            "greedy_value_ratio",
            "greedy_us",
            "dp_us",
            "dp_budget_used_pct",
        ],
    );
    for &n in &[20usize, 50, 100, 200, 400] {
        let mut ratio = 0.0;
        let mut g_us = 0.0;
        let mut d_us = 0.0;
        let mut used = 0.0;
        for &seed in &cfg.seeds {
            let (items, budget) = dissemination_instance(n, seed);
            let t0 = Instant::now();
            let g = greedy_knapsack(&items, budget);
            g_us += t0.elapsed().as_secs_f64() * 1e6;
            let t1 = Instant::now();
            let d = dp_knapsack(&items, budget, 50);
            d_us += t1.elapsed().as_secs_f64() * 1e6;
            ratio += if d.total_value > 0.0 {
                g.total_value / d.total_value
            } else {
                1.0
            };
            used += d.total_weight as f64 / budget as f64 * 100.0;
        }
        let s = cfg.seeds.len().max(1) as f64;
        t.push_row(vec![
            n.to_string(),
            f3(ratio / s),
            f1(g_us / s),
            f1(d_us / s),
            f1(used / s),
        ]);
    }
    t
}

/// The follower decay factor α: rear-end safety as α varies.
pub fn alpha_ablation(cfg: &HarnessConfig) -> Result<Table, Error> {
    let mut t = Table::new(
        "ablation_alpha_sweep",
        &["alpha", "safe_passage_pct", "min_distance_m"],
    );
    for &alpha in &[0.2, 0.5, 0.8, 1.0] {
        let scenario = ScenarioConfig::default().with_kind(ScenarioKind::UnprotectedLeftTurn);
        let rc = RunConfig::new(Strategy::Ours, scenario)
            .with_duration(cfg.duration)
            .with_system(
                SystemConfig::default().with_server(ServerConfig::default().with_alpha(alpha)),
            );
        let avg = run_seeds(rc, &cfg.seeds)?;
        // Both columns are seed averages from run_seeds: the safe-passage
        // share and the protagonists' minimum distance, metres (0 when
        // they collided).
        t.push_row(vec![
            f1(alpha),
            f1(avg.safe_passage_rate * 100.0),
            f3(avg.min_distance),
        ]);
    }
    Ok(t)
}

/// The relevance definition: combined vs. single-term vs. Gaussian.
pub fn relevance_mode_ablation(cfg: &HarnessConfig) -> Result<Table, Error> {
    let mut t = Table::new(
        "ablation_relevance_mode",
        &["mode", "safe_passage_pct", "dissemination_mbps"],
    );
    for (name, mode) in [
        ("combined", RelevanceMode::Combined),
        ("ci_only", RelevanceMode::CiOnly),
        ("ttc_only", RelevanceMode::TtcOnly),
        ("gaussian", RelevanceMode::Gaussian),
    ] {
        let scenario = ScenarioConfig::default().with_kind(ScenarioKind::UnprotectedLeftTurn);
        let rc = RunConfig::new(Strategy::Ours, scenario)
            .with_duration(cfg.duration)
            .with_system(SystemConfig::default().with_server(
                ServerConfig::default().with_relevance(RelevanceConfig::default().with_mode(mode)),
            ));
        let avg = run_seeds(rc, &cfg.seeds)?;
        t.push_row(vec![
            name.into(),
            f1(avg.safe_passage_rate * 100.0),
            f3(avg.dissemination_mbps),
        ]);
    }
    Ok(t)
}

/// Edge-assisted vs. infrastructure-less sharing: the V2V extension
/// (AUTOCAST-style broadcasts, no edge server) against the paper's system,
/// on safety and channel usage.
pub fn v2v_comparison(cfg: &HarnessConfig) -> Result<Table, Error> {
    let mut t = Table::new(
        "ablation_v2v_vs_edge",
        &[
            "strategy",
            "safe_passage_pct",
            "min_distance_m",
            "share_channel_mbps",
        ],
    );
    for (name, strategy) in [("Ours_edge", Strategy::Ours), ("V2V", Strategy::V2v)] {
        let scenario = ScenarioConfig::default().with_kind(ScenarioKind::UnprotectedLeftTurn);
        let rc = RunConfig::new(strategy, scenario).with_duration(cfg.duration);
        let avg = run_seeds(rc, &cfg.seeds)?;
        t.push_row(vec![
            name.into(),
            f1(avg.safe_passage_rate * 100.0),
            f3(avg.min_distance),
            f3(avg.dissemination_mbps),
        ]);
    }
    Ok(t)
}

/// The scalability claim of paper §II-D: Rules 1–3 track a handful of
/// representatives instead of every object. Reports predicted-trajectory
/// counts against the ground-truth object count per connectivity level.
pub fn rules_reduction(cfg: &HarnessConfig) -> Result<Table, Error> {
    use erpd_edge::System;
    use erpd_sim::Scenario;
    let mut t = Table::new(
        "ablation_rules_reduction",
        &["connected_pct", "objects_in_world", "predicted_trajectories"],
    );
    for &frac in &cfg.connectivity {
        let mut predicted = 0.0;
        let mut objects = 0.0;
        let mut frames = 0.0;
        for &seed in &cfg.seeds {
            let mut s = Scenario::build(
                ScenarioConfig::default()
                    .with_kind(ScenarioKind::UnprotectedLeftTurn)
                    .with_connected_fraction(frac)
                    .with_seed(seed),
            );
            let mut sys = System::builder(SystemConfig::new(Strategy::Ours)).build(&s.world);
            for _ in 0..40 {
                let r = sys.tick(&mut s.world)?;
                s.world.step();
                predicted += r.predicted_trajectories as f64;
                objects +=
                    (s.world.vehicles().len() + s.world.pedestrians().len()) as f64;
                frames += 1.0;
            }
        }
        t.push_row(vec![
            f1(frac * 100.0),
            f1(objects / frames),
            f1(predicted / frames),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_predict_far_fewer_than_everything() {
        let mut cfg = HarnessConfig::quick();
        cfg.seeds = vec![0];
        cfg.connectivity = vec![0.3];
        let t = rules_reduction(&cfg).unwrap();
        let objects: f64 = t.rows[0][1].parse().unwrap();
        let predicted: f64 = t.rows[0][2].parse().unwrap();
        assert!(
            predicted < objects / 2.0,
            "rules must cut prediction load: {predicted} vs {objects}"
        );
    }

    #[test]
    fn greedy_is_near_optimal_on_dissemination_instances() {
        let mut cfg = HarnessConfig::quick();
        cfg.seeds = vec![0, 1, 2];
        let t = knapsack_ablation(&cfg);
        for row in &t.rows {
            let ratio: f64 = row[1].parse().unwrap();
            assert!(
                ratio > 0.9,
                "greedy should be near-optimal on relevance-like instances, got {ratio}"
            );
            // The DP runs on weights rounded up to the 50-byte granularity,
            // so greedy can slightly *exceed* it; it stays in the vicinity.
            assert!(ratio <= 1.1, "ratio {ratio} suspiciously above the DP");
        }
    }

    #[test]
    fn greedy_is_much_faster_than_dp_at_scale() {
        let mut cfg = HarnessConfig::quick();
        cfg.seeds = vec![0];
        let t = knapsack_ablation(&cfg);
        let last = t.rows.last().unwrap();
        let g_us: f64 = last[2].parse().unwrap();
        let d_us: f64 = last[3].parse().unwrap();
        assert!(g_us < d_us, "greedy {g_us}us vs dp {d_us}us");
    }

    #[test]
    fn combined_mode_is_safe() {
        let mut cfg = HarnessConfig::quick();
        cfg.seeds = vec![0];
        let t = relevance_mode_ablation(&cfg).unwrap();
        let combined = t.rows.iter().find(|r| r[0] == "combined").unwrap();
        assert_eq!(combined[1], "100.0");
    }
}
