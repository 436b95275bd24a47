#!/usr/bin/env bash
# Reproduces the full evaluation: tests, every paper figure, the benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== building (release) =="
cargo build --offline --workspace --release

echo "== test suite =="
cargo test --offline --workspace 2>&1 | tee test_output.txt

echo "== regenerating every figure (CSVs in results/, tables in EXPERIMENTS.md) =="
cargo run --offline --release -p erpd-bench --bin experiments

echo "== benchmark: four workloads, untraced then traced (results in benchmark/out/) =="
benchmark/run.sh

echo "done; see EXPERIMENTS.md, results/, test_output.txt, benchmark/out/"
