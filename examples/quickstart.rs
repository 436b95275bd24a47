//! Quickstart: run the paper's headline experiment once and print what
//! happened.
//!
//! Builds the *unprotected left turn* scenario (40 vehicles, 30 % connected,
//! 30 km/h), runs it under `Single` (no sharing) and under the paper's
//! system (`Ours`), and prints the safety and bandwidth outcomes.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use erpd::prelude::*;

fn main() -> Result<(), Error> {
    let scenario = ScenarioConfig::default()
        .with_kind(ScenarioKind::UnprotectedLeftTurn)
        .with_n_vehicles(40)
        .with_connected_fraction(0.3)
        .with_speed_kmh(30.0)
        .with_seed(42);

    println!("scenario: unprotected left turn, 40 vehicles, 30% connected, 30 km/h\n");

    for strategy in [Strategy::Single, Strategy::Ours] {
        let result = run(RunConfig::new(strategy, scenario))?;
        println!("--- {strategy:?} ---");
        println!("  safe passage:        {}", result.safe_passage);
        println!("  min distance:        {:.2} m", result.min_distance);
        println!("  collisions in world: {}", result.total_collisions);
        println!(
            "  upload bandwidth:    {:.2} Mbit/s per connected vehicle",
            result.upload_mbps_per_vehicle
        );
        println!(
            "  dissemination:       {:.2} Mbit/s total",
            result.dissemination_mbps
        );
        println!(
            "  end-to-end latency:  {:.1} ms",
            result.module_times.end_to_end() * 1e3
        );
        println!();
    }

    println!("expected: Single collides; Ours passes safely at a fraction of the bandwidth.");
    Ok(())
}
