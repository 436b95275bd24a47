//! `erpd-daemon` — the streaming edge daemon as a standalone process.
//!
//! ```text
//! erpd-daemon [--addr 127.0.0.1:7071] [--strategy ours|emp|unlimited]
//! ```
//!
//! Binds the address, serves the v1 wire protocol (see
//! `erpd_edge::wire`), and prints a status line every few seconds. Stop
//! with Ctrl-C. Drive it with `erpd-loadgen --addr <the address>`.

use erpd_edge::{DaemonConfig, EdgeDaemon, Strategy, SystemConfig};
use erpd_sim::IntersectionMap;
use std::time::Duration;

fn parse_strategy(s: &str) -> Strategy {
    match s {
        "ours" => Strategy::Ours,
        "emp" => Strategy::Emp,
        "unlimited" => Strategy::Unlimited,
        other => {
            eprintln!("unknown strategy {other:?} (want ours|emp|unlimited)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut addr = "127.0.0.1:7071".to_string();
    let mut strategy = Strategy::Ours;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = args.next().expect("--addr needs a value"),
            "--strategy" => {
                strategy = parse_strategy(&args.next().expect("--strategy needs a value"))
            }
            "--help" | "-h" => {
                println!("erpd-daemon [--addr HOST:PORT] [--strategy ours|emp|unlimited]");
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let config = DaemonConfig::new(SystemConfig::new(strategy));
    let handle = match EdgeDaemon::spawn(config, IntersectionMap::default(), addr.as_str()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("erpd-daemon: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("erpd-daemon listening on {} (strategy {strategy:?})", handle.addr());
    let mut last = 0u64;
    loop {
        std::thread::sleep(Duration::from_secs(5));
        let served = handle.frames_served();
        println!(
            "erpd-daemon: {} vehicles connected, {} frames served (+{}); \
             {} uploads rejected, {} frames dropped, {} connections retired",
            handle.connected_vehicles(),
            served,
            served - last,
            handle.rejected_uploads(),
            handle.dropped_frames(),
            handle.retired_connections()
        );
        last = served;
    }
}
