#!/usr/bin/env bash
# The repository's benchmark, one command: builds the benchmark package
# (std-only, --offline) and runs it.
#
#   benchmark/run.sh                       # the set: 4 workloads, untraced then traced
#   benchmark/run.sh --aa                  # the untraced set twice, compared against the bounds
#   benchmark/run.sh --smoke               # the set at ~1/20 length, checks on, timing bounds off
#   benchmark/run.sh --workload fleet_wire --seed 7 --seconds 20 --trace 0
#                                          # one run; last line is the JSON result
#
# See benchmark/README.md for the workloads and metrics.

set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: standard output carries results only.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/erpd-benchmark" --out-dir "$here/out" "$@"
