//! Crowd clustering vs. DBSCAN on a synthetic crosswalk scene — the
//! algorithm of paper §II-D (Rule 3) and the comparison behind Fig. 4.
//!
//! ```bash
//! cargo run --release --example crowd_clustering
//! ```

use erpd::prelude::*;
use erpd_rand::rngs::StdRng;
use erpd_rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// Two opposing pedestrian streams on one crosswalk, as in the paper's
/// Fig. 4(a).
fn crosswalk_scene(n: usize, seed: u64) -> Vec<Pedestrian> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let northbound = i % 2 == 0;
            Pedestrian {
                id: ObjectId(i as u64),
                position: Vec2::new(
                    rng.gen_range(-4.0..4.0),
                    if northbound { rng.gen_range(-1.0..0.0) } else { rng.gen_range(0.0..1.0) },
                ),
                orientation: if northbound {
                    PI / 2.0 + rng.gen_range(-0.05..0.05)
                } else {
                    -PI / 2.0 + rng.gen_range(-0.05..0.05)
                },
                speed: rng.gen_range(1.1..1.5),
            }
        })
        .collect()
}

fn main() {
    // The paper's thresholds: beta = 2 m, gamma = 5 degrees.
    let horizon = 8.0; // walk for 8 s, then measure the spread

    println!("pedestrians on one crosswalk, two opposing streams (Fig. 4 setting)\n");
    println!(
        "{:>6} | {:>14} {:>10} | {:>14} {:>10}",
        "peds", "ours clusters", "dev (m)", "dbscan clusters", "dev (m)"
    );
    for n in [10usize, 20, 30, 40, 50, 60] {
        let peds = crosswalk_scene(n, 99);
        let ours = cluster_crowds(&peds);
        let base = cluster_dbscan(&peds, CROWD_LOCATION_EPS, 1);
        let dev_ours = mean_final_deviation(&peds, &ours, horizon);
        let dev_base = mean_final_deviation(&peds, &base, horizon);
        println!(
            "{:>6} | {:>14} {:>10.2} | {:>14} {:>10.2}",
            n,
            ours.len(),
            dev_ours,
            base.len(),
            dev_base
        );
    }
    println!("\nexpected: DBSCAN merges the opposing streams into one cluster whose members end");
    println!("up far apart; our algorithm splits by orientation and keeps deviations small,");
    println!("while still predicting only one trajectory per cluster.");
}
