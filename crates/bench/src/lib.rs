//! Paper-figure harness: regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md §5 for the experiment index), plus the
//! ablations of §6. Per-layer timing lives in `benchmark/`
//! (`benchmark/run.sh --trace 1`), not here.
//!
//! The `experiments` binary drives everything:
//!
//! ```bash
//! cargo run --release -p erpd-bench --bin experiments          # everything
//! cargo run --release -p erpd-bench --bin experiments -- fig10 # one figure
//! cargo run --release -p erpd-bench --bin experiments -- --quick
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod bandwidth;
pub mod fig04;
mod harness;
pub mod safety;
mod table;

pub use harness::HarnessConfig;
pub use table::{f1, f3, Table};
