//! Bandwidth and latency figures: Fig. 12(a) upload bandwidth, Fig. 12(b)
//! detected objects, Fig. 13 dissemination bandwidth, Fig. 14(a)
//! end-to-end latency, Fig. 14(b) per-module runtime breakdown.
//!
//! All five come from the same connectivity sweep, so one pass computes
//! them together.

use crate::table::strategy_name;
use crate::{f1, f3, HarnessConfig, Table};
use erpd_edge::{run_seeds, AveragedResult, Error, RunConfig, Strategy};
use erpd_sim::{ScenarioConfig, ScenarioKind};

/// The full set of bandwidth/latency tables.
#[derive(Debug, Clone)]
pub struct BandwidthTables {
    /// Fig. 12(a): per-vehicle upload bandwidth.
    pub upload: Table,
    /// Fig. 12(b): moving objects detected from the uploads.
    pub detected: Table,
    /// Fig. 13: total dissemination bandwidth.
    pub dissemination: Table,
    /// Fig. 14(a): end-to-end latency of our system.
    pub latency: Table,
    /// Fig. 14(b): module breakdown of our system at 20 % connectivity.
    pub breakdown: Table,
}

impl BandwidthTables {
    /// All tables as a vector (for uniform writing).
    pub fn into_vec(self) -> Vec<Table> {
        vec![
            self.upload,
            self.detected,
            self.dissemination,
            self.latency,
            self.breakdown,
        ]
    }
}

/// Runs the connectivity sweep behind Figs. 12–14 on the red-light
/// scenario (the one whose waiting trucks exercise static-object removal).
pub fn sweep(cfg: &HarnessConfig) -> Result<BandwidthTables, Error> {
    let mut upload = Table::new(
        "fig12a_upload_bandwidth",
        &["connected_pct", "strategy", "upload_mbps_per_vehicle"],
    );
    let mut detected = Table::new(
        "fig12b_detected_objects",
        &["connected_pct", "strategy", "detected_moving_objects"],
    );
    let mut dissemination = Table::new(
        "fig13_dissemination_bandwidth",
        &["connected_pct", "strategy", "dissemination_mbps"],
    );
    let mut latency = Table::new(
        "fig14a_end_to_end_latency",
        &["connected_pct", "latency_ms"],
    );
    let mut breakdown = Table::new("fig14b_module_breakdown", &["module", "time_ms"]);

    let mut ours_at_lowest: Option<AveragedResult> = None;
    for &frac in &cfg.connectivity {
        for strategy in [Strategy::Ours, Strategy::Emp, Strategy::Unlimited] {
            let scenario = ScenarioConfig::default()
                .with_kind(ScenarioKind::RedLightViolation)
                .with_connected_fraction(frac);
            let rc = RunConfig::new(strategy, scenario).with_duration(cfg.duration);
            let avg = run_seeds(rc, &cfg.seeds)?;
            let pct = f1(frac * 100.0);
            upload.push_row(vec![
                pct.clone(),
                strategy_name(strategy).into(),
                f3(avg.upload_mbps_per_vehicle),
            ]);
            detected.push_row(vec![
                pct.clone(),
                strategy_name(strategy).into(),
                f1(avg.detected_objects),
            ]);
            dissemination.push_row(vec![
                pct.clone(),
                strategy_name(strategy).into(),
                f3(avg.dissemination_mbps),
            ]);
            if strategy == Strategy::Ours {
                latency.push_row(vec![pct.clone(), f1(avg.module_times.end_to_end() * 1e3)]);
                if ours_at_lowest.is_none() {
                    ours_at_lowest = Some(avg);
                }
            }
        }
    }

    if let Some(avg) = ours_at_lowest {
        let m = avg.module_times;
        for (name, val) in [
            ("moving_object_extraction", m.extraction),
            ("upload_transmission", m.upload_tx),
            ("traffic_map_building", m.map_build),
            ("trajectory_prediction", m.prediction),
            ("perception_dissemination", m.dissemination),
            ("downlink_transmission", m.downlink_tx),
        ] {
            breakdown.push_row(vec![name.into(), f3(val * 1e3)]);
        }
    }

    Ok(BandwidthTables {
        upload,
        detected,
        dissemination,
        latency,
        breakdown,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(t: &Table, pct: &str, strategy: &str, col: usize) -> f64 {
        t.rows
            .iter()
            .find(|r| r[0] == pct && r[1] == strategy)
            .unwrap_or_else(|| panic!("missing row {pct}/{strategy}"))[col]
            .parse()
            .unwrap()
    }

    #[test]
    fn quick_sweep_has_paper_shapes() {
        let mut cfg = HarnessConfig::quick();
        cfg.seeds = vec![0];
        cfg.connectivity = vec![0.2];
        let t = sweep(&cfg).unwrap();

        // Fig 12a shape: Ours < EMP < Unlimited.
        let up_ours = cell(&t.upload, "20.0", "Ours", 2);
        let up_emp = cell(&t.upload, "20.0", "EMP", 2);
        let up_unl = cell(&t.upload, "20.0", "Unlimited", 2);
        assert!(up_ours < up_emp && up_emp < up_unl, "{up_ours} {up_emp} {up_unl}");

        // Fig 13 shape: Ours lowest.
        let d_ours = cell(&t.dissemination, "20.0", "Ours", 2);
        let d_unl = cell(&t.dissemination, "20.0", "Unlimited", 2);
        assert!(d_ours < d_unl);

        // Fig 14: latency recorded, breakdown has 6 modules and extraction
        // dominates the server-side entries.
        assert_eq!(t.latency.rows.len(), 1);
        assert_eq!(t.breakdown.rows.len(), 6);
        let get = |name: &str| -> f64 {
            t.breakdown
                .rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap()[1]
                .parse()
                .unwrap()
        };
        assert!(get("moving_object_extraction") > get("perception_dissemination"));
    }
}
