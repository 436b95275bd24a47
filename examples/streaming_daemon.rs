//! Serve the edge pipeline over real sockets: spawn an [`EdgeDaemon`] on
//! an ephemeral port, replay one scenario's vehicle uploads against it
//! from TCP clients, and print the upload→plan latency each vehicle saw.
//!
//! The daemon runs the exact [`ServingCore`] the in-process [`System`]
//! uses — the only difference is that every upload and plan crosses the
//! versioned v1 wire codec and a socket. For the full capacity sweep
//! (hundreds of clients, a p50/p95 table per client count) use the
//! `erpd-loadgen` binary instead.
//!
//! ```bash
//! cargo run --release --example streaming_daemon
//! ```

use erpd::prelude::*;
use erpd_edge::capacity::{build_corpus, measure_against, LoadgenConfig};
use erpd_sim::IntersectionMap;

fn main() -> std::io::Result<()> {
    let system = SystemConfig::new(Strategy::Ours);
    let scenario = ScenarioConfig::default()
        .with_kind(ScenarioKind::UnprotectedLeftTurn)
        .with_n_vehicles(12);

    println!("building the upload corpus (one scenario pass)...");
    let config = LoadgenConfig {
        scenario,
        system,
        clients: 16,
        frames: 30,
    };
    let corpus = build_corpus(scenario, &system, config.frames);
    println!(
        "corpus: {} frames, {} uploads/frame",
        corpus.frames.len(),
        corpus.frames[0].len()
    );

    let mut daemon = EdgeDaemon::spawn(
        DaemonConfig::new(system),
        corpus.map.clone(),
        "127.0.0.1:0",
    )?;
    println!("daemon listening on {}", daemon.addr());

    let point = measure_against(&config, &corpus, daemon.addr())?;
    println!(
        "\n{} clients x {} frames against one daemon:",
        point.clients, point.frames_per_client
    );
    println!("  p50 latency    {:>8.2} ms", point.p50_ms);
    println!("  p95 latency    {:>8.2} ms", point.p95_ms);
    println!("  delivery ratio {:>8.3}", point.delivery_ratio);
    println!("  frames served  {:>8}", daemon.frames_served());
    daemon.shutdown();

    // The same daemon also serves a default map for standalone use:
    let standalone = EdgeDaemon::spawn(
        DaemonConfig::new(system),
        IntersectionMap::default(),
        "127.0.0.1:0",
    )?;
    println!(
        "\na standalone daemon (default map) is one call away: {}",
        standalone.addr()
    );
    Ok(())
}
