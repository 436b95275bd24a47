//! The repository's benchmark: four workloads over the vehicle → edge →
//! vehicle frame, seven end-to-end metrics, and a per-layer trace. Driven
//! through `benchmark/run.sh`; see `benchmark/README.md`.
//!
//! Two ways to run it:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//!   this process and prints, as the last line of standard output, one
//!   JSON object `{"correct", "attempted", "failed", "metrics"}` — the
//!   end-to-end metrics with `--trace 0`, the per-layer ones with
//!   `--trace 1`.
//! * without `--workload` (or with `--aa`) it runs the set: every workload
//!   in a process of its own, untraced then traced, prints every metric as
//!   `workload metric value unit`, then one JSON document.

mod gen;
mod json;
mod metrics;
mod recompose;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::Run;

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--aa] [--smoke] [--manifest]";

/// Length of a `--smoke` run: all checks on, timing bounds off.
const SMOKE_SECONDS: f64 = 1.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    aa: bool,
    smoke: bool,
    manifest: bool,
    out_dir: PathBuf,
}

impl Args {
    /// `--seconds`, or the length `BENCHMARK.json` names (1 s for `--smoke`).
    fn run_seconds(&self) -> f64 {
        match (self.seconds, self.smoke) {
            (Some(s), _) => s,
            (None, true) => SMOKE_SECONDS,
            (None, false) => RUN_SECONDS as f64,
        }
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: None,
        trace: None,
        aa: false,
        smoke: false,
        manifest: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name}; known: {}",
                        known.join(", ")
                    ));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--out-dir" => parsed.out_dir = PathBuf::from(value("a directory")?),
            "--aa" => parsed.aa = true,
            "--smoke" => parsed.smoke = true,
            "--manifest" => parsed.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest().render_pretty());
        return ExitCode::SUCCESS;
    }
    let ok = match &args.workload {
        Some(workload) if !args.aa => run_one(workload, &args),
        _ => run_set(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process and prints its result line.
fn run_one(workload: &str, args: &Args) -> bool {
    let traced = args.trace.unwrap_or(false);
    let seconds = args.run_seconds();
    let mut run = Run::new(args.seed, seconds, traced);
    run.smoke = args.smoke;
    if let Err(e) = workloads::run(workload, &mut run) {
        run.attempted = run.attempted.max(1);
        run.fail(format!("the workload stopped on an error: {e}"));
    }

    let (table, values): (&[Metric], _) = if traced {
        (&PER_LAYER, run.per_layer())
    } else {
        (&END_TO_END, run.end_to_end())
    };
    println!(
        "# {workload} seed={} seconds={seconds} trace={} units={} samples={} par.threads={} \
         bench.gen_share={:.4} {}",
        args.seed,
        u8::from(traced),
        run.units,
        run.frame_ms.len(),
        erpd_par::max_threads(),
        run.gen_share(),
        run.notes.join(" "),
    );
    for why in &run.failures {
        println!("# FAILED {why}");
    }
    let mut metrics = Vec::with_capacity(table.len());
    for m in table {
        let value = *values
            .get(m.name)
            .unwrap_or_else(|| panic!("{workload} did not measure {}", m.name));
        println!("{workload} {} {value} {}", m.name, m.unit);
        metrics.push((
            m.name,
            Json::object([("value", Json::num(value)), ("unit", Json::str(m.unit))]),
        ));
    }

    if traced {
        let path = args.out_dir.join(format!("trace-{workload}.json"));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, run.trace.to_json(workload).render()));
        match written {
            Ok(()) => println!(
                "# {} spans written to {}",
                run.trace.spans().len(),
                path.display()
            ),
            Err(e) => run.fail(format!("could not write {}: {e}", path.display())),
        }
    }

    let correct = run.failed == 0 && run.attempted > 0;
    let result = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(run.attempted.max(1) as f64)),
        ("failed", Json::num(run.failed as f64)),
        ("metrics", Json::object(metrics)),
    ]);
    println!("{}", result.render());
    correct
}

/// What one child process reported: its metric lines and whether it
/// exited cleanly.
struct ChildRun {
    workload: &'static str,
    traced: bool,
    ok: bool,
    values: BTreeMap<String, (f64, String)>,
}

/// Runs `workload` in a process of its own, echoing its output.
fn spawn_run(workload: &'static str, args: &Args, seconds: f64, traced: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("the benchmark's own path");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .args(args.smoke.then_some("--smoke"))
        .output()
        .expect("spawning the benchmark for one workload");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut values = BTreeMap::new();
    for line in stdout.lines() {
        // The last line is the child's own JSON; the set prints one document.
        if line.starts_with('{') {
            continue;
        }
        println!("{line}");
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [w, name, value, unit] = fields[..] {
            if w == workload {
                if let Ok(v) = value.parse::<f64>() {
                    values.insert(name.to_string(), (v, unit.to_string()));
                }
            }
        }
    }
    ChildRun {
        workload,
        traced,
        ok: output.status.success(),
        values,
    }
}

/// Runs the set: each workload in its own process, untraced then traced;
/// with `--aa` the untraced set twice, compared against the bounds.
fn run_set(args: &Args) -> bool {
    let seconds = args.run_seconds();
    let selected: Vec<&'static str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload.as_deref().is_none_or(|w| w == *name))
        .collect();
    let mut runs = Vec::new();
    let passes = if args.aa { 2 } else { 1 };
    for _ in 0..passes {
        for &w in &selected {
            if args.trace != Some(true) {
                runs.push(spawn_run(w, args, seconds, false));
            }
        }
    }
    if args.trace != Some(false) {
        for &w in &selected {
            // The traced run does each frame several times over; a quarter
            // of the length still gives every layer hundreds of samples.
            runs.push(spawn_run(w, args, seconds / 4.0, true));
        }
    }
    let mut ok = runs.iter().all(|r| r.ok);
    for r in runs.iter().filter(|r| !r.ok) {
        println!(
            "# FAILED {} (trace {}) did not exit cleanly",
            r.workload,
            u8::from(r.traced)
        );
    }

    let mut aa = Vec::new();
    if args.aa {
        println!("# A/A: workload metric first second relative_difference bound");
        for &w in &selected {
            let pair: Vec<&ChildRun> = runs
                .iter()
                .filter(|r| r.workload == w && !r.traced)
                .collect();
            let [first, second] = pair[..] else { continue };
            for m in &END_TO_END {
                let (Some(&(a, _)), Some(&(b, _))) =
                    (first.values.get(m.name), second.values.get(m.name))
                else {
                    continue;
                };
                let diff = stats::ratio((b - a).abs(), a.abs());
                let bound = m.bound.expect("end-to-end metrics carry bounds");
                let within = args.smoke || diff <= bound;
                println!(
                    "# A/A {w} {} {a} {b} {diff:.5} {bound}{}",
                    m.name,
                    if within { "" } else { " EXCEEDED" }
                );
                ok &= within;
                aa.push(Json::object([
                    ("workload", Json::str(w)),
                    ("metric", Json::str(m.name)),
                    ("first", Json::num(a)),
                    ("second", Json::num(b)),
                    ("relative_difference", Json::num(diff)),
                    ("bound", Json::num(bound)),
                ]));
            }
        }
    }

    let document = Json::object([
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(seconds)),
        ("ok", Json::Bool(ok)),
        (
            "runs",
            Json::Array(
                runs.iter()
                    .map(|r| {
                        Json::object([
                            ("workload", Json::str(r.workload)),
                            ("trace", Json::num(f64::from(u8::from(r.traced)))),
                            ("ok", Json::Bool(r.ok)),
                            (
                                "metrics",
                                Json::object(r.values.iter().map(|(name, (v, unit))| {
                                    (
                                        name.clone(),
                                        Json::object([
                                            ("value", Json::num(*v)),
                                            ("unit", Json::str(unit)),
                                        ]),
                                    )
                                })),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("aa", Json::Array(aa)),
    ]);
    println!("{}", document.render());
    ok
}
