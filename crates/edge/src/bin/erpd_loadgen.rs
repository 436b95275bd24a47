//! `erpd-loadgen` — replay synthetic vehicle clients against an edge
//! daemon and print what each client count sustained.
//!
//! ```text
//! erpd-loadgen [--clients 8,16,32,64,128] [--frames 50] [--vehicles 12]
//!              [--addr HOST:PORT]
//! ```
//!
//! Without `--addr` each client count gets a fresh in-process daemon on an
//! ephemeral port. With `--addr` the first client count is replayed
//! against an external `erpd-daemon` instead. The table is a diagnostic,
//! not a perf record: the committed measurement of the daemon path is the
//! `daemon_rtt` workload of `benchmark/run.sh`.

use erpd_edge::capacity::{build_corpus, measure_against, measure_point, LoadgenConfig};
use erpd_edge::SystemConfig;
use erpd_sim::ScenarioConfig;

fn main() {
    let mut counts: Vec<usize> = vec![8, 16, 32, 64, 128];
    let mut frames: u64 = 50;
    let mut vehicles: usize = 12;
    let mut addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match a.as_str() {
            "--clients" => {
                counts = value("--clients")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--clients wants integers"))
                    .collect()
            }
            "--frames" => frames = value("--frames").parse().expect("--frames wants an integer"),
            "--vehicles" => {
                vehicles = value("--vehicles").parse().expect("--vehicles wants an integer")
            }
            "--addr" => addr = Some(value("--addr")),
            "--help" | "-h" => {
                println!(
                    "erpd-loadgen [--clients N,N,...] [--frames N] [--vehicles N] \
                     [--addr HOST:PORT]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let base = LoadgenConfig {
        scenario: ScenarioConfig {
            n_vehicles: vehicles,
            ..ScenarioConfig::default()
        },
        system: SystemConfig::default(),
        clients: counts[0],
        frames,
    };
    eprintln!(
        "erpd-loadgen: building corpus ({} source vehicles, {} frames)",
        vehicles, frames
    );
    let corpus = build_corpus(base.scenario, &base.system, frames);
    eprintln!("erpd-loadgen: corpus has {} frames", corpus.frames.len());

    println!("clients  frames  p50_ms   p95_ms   delivery  frames_served");
    let target = addr.map(|a| a.parse().expect("--addr wants HOST:PORT"));
    let counts = if target.is_some() { &counts[..1] } else { &counts[..] };
    for &clients in counts {
        let cfg = LoadgenConfig { clients, ..base.clone() };
        let p = match target {
            Some(t) => measure_against(&cfg, &corpus, t),
            None => measure_point(&cfg, &corpus),
        }
        .expect("loadgen run failed");
        println!(
            "{:>7}  {:>6}  {:>7.2}  {:>7.2}  {:>8.3}  {:>13}",
            p.clients, p.frames_per_client, p.p50_ms, p.p95_ms, p.delivery_ratio, p.frames_served
        );
    }
}
