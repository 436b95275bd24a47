//! Regenerates every figure of the paper's evaluation.
//!
//! ```bash
//! cargo run --release -p erpd-bench --bin experiments              # all figures, 5 seeds
//! cargo run --release -p erpd-bench --bin experiments -- --quick   # smoke-test sweep
//! cargo run --release -p erpd-bench --bin experiments -- fig04 fig12
//! ```
//!
//! CSVs land in `results/`; the regenerated series are printed as markdown.
//! Per-stage timings are not measured here: `benchmark/run.sh` is the
//! repository's one performance record.

use erpd_bench::{ablation, bandwidth, fig04, safety, HarnessConfig, Table};
use erpd_edge::Error;
use std::path::PathBuf;
use std::time::Instant;

fn main() -> Result<(), Error> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<&str> = args.iter().filter(|a| !a.starts_with("--")).map(|s| s.as_str()).collect();
    let cfg = if quick { HarnessConfig::quick() } else { HarnessConfig::default() };
    let want = |name: &str| selected.is_empty() || selected.contains(&name);
    let results = PathBuf::from("results");

    let mut tables: Vec<Table> = Vec::new();
    let t_start = Instant::now();

    if want("fig04") {
        eprintln!("[fig04] crowd clustering vs DBSCAN ...");
        tables.push(fig04::run(&cfg));
    }
    if want("fig10") || want("fig11") {
        eprintln!("[fig10a/fig11] safety & distance vs speed ({} points) ...",
                  2 * cfg.speeds_kmh.len() * 4 * cfg.seeds.len());
        let (safety_t, distance_t) = safety::sweep_speed(&cfg)?;
        tables.push(safety_t);
        tables.push(distance_t);
        eprintln!("[fig10b] safety vs connectivity ...");
        tables.push(safety::sweep_connectivity(&cfg)?);
    }
    if want("faults") {
        eprintln!("[faults] safety & staleness vs upload loss ...");
        tables.push(safety::sweep_loss(&cfg)?);
    }
    if want("fig12") || want("fig13") || want("fig14") {
        eprintln!("[fig12/13/14] bandwidth & latency sweep ...");
        tables.extend(bandwidth::sweep(&cfg)?.into_vec());
    }
    if want("ablation") {
        eprintln!("[ablation] knapsack / alpha / relevance-mode ...");
        tables.push(ablation::knapsack_ablation(&cfg));
        tables.push(ablation::alpha_ablation(&cfg)?);
        tables.push(ablation::relevance_mode_ablation(&cfg)?);
        tables.push(ablation::rules_reduction(&cfg)?);
        tables.push(ablation::v2v_comparison(&cfg)?);
    }

    for table in &tables {
        if let Err(e) = table.write_csv(&results) {
            eprintln!("warning: could not write {}: {e}", table.name);
        }
        println!("{}", table.to_markdown());
    }
    update_experiments_md(&tables);
    eprintln!(
        "done: {} tables in {:.1} s (CSVs in {})",
        tables.len(),
        t_start.elapsed().as_secs_f64(),
        results.display()
    );
    Ok(())
}

/// Injects the regenerated tables into EXPERIMENTS.md between its
/// `<!-- BEGIN:TAG -->` / `<!-- END:TAG -->` markers, when the file exists.
fn update_experiments_md(tables: &[Table]) {
    let path = PathBuf::from("EXPERIMENTS.md");
    let Ok(mut text) = std::fs::read_to_string(&path) else {
        return;
    };
    let tag_of = |name: &str| -> Option<&'static str> {
        Some(match name {
            "fig04c_clustering_deviation" => "FIG04C",
            "fig10a_safe_passage_vs_speed" => "FIG10A",
            "fig10b_safe_passage_vs_connectivity" => "FIG10B",
            "fig11_min_distance_vs_speed" => "FIG11",
            "fig12a_upload_bandwidth" => "FIG12A",
            "fig12b_detected_objects" => "FIG12B",
            "fig13_dissemination_bandwidth" => "FIG13",
            "fig14a_end_to_end_latency" => "FIG14A",
            "fig14b_module_breakdown" => "FIG14B",
            n if n.starts_with("ablation_") => "ABLATION",
            _ => return None,
        })
    };
    // Group tables per tag (the ablations share one block).
    let mut blocks: std::collections::BTreeMap<&str, String> = std::collections::BTreeMap::new();
    for t in tables {
        if let Some(tag) = tag_of(&t.name) {
            blocks.entry(tag).or_default().push_str(&t.to_markdown());
        }
    }
    for (tag, block) in blocks {
        let begin = format!("<!-- BEGIN:{tag} -->");
        let end = format!("<!-- END:{tag} -->");
        if let (Some(b), Some(e)) = (text.find(&begin), text.find(&end)) {
            if b < e {
                let head = &text[..b + begin.len()];
                let tail = &text[e..];
                text = format!("{head}\n{block}{tail}");
            }
        }
    }
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("warning: could not update EXPERIMENTS.md: {e}");
    }
}
