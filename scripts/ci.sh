#!/usr/bin/env bash
# Local CI: exactly what a PR must pass, in the order a failure is cheapest.
#
#   scripts/ci.sh            # build + tests + docs + clippy
#   scripts/ci.sh --quick    # skip clippy (e.g. while iterating)
#
# The tier-1 gate is the first two steps; clippy is kept at -D warnings so
# lint debt cannot accumulate. Every step runs --offline: the workspace is
# hermetic (no crates.io dependencies), so touching the network is a bug.

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

# Path dependencies only: `cargo metadata` must name no package (or
# dependency edge) with a non-null source — registry, sparse index or git.
hermetic() {
    local meta
    meta="$(cargo metadata --offline --format-version 1 "$@")"
    if grep -o '"source":"[^"]*"' <<<"$meta" | sort -u | grep .; then
        echo "hermeticity: the sources above are not in this tree" >&2
        exit 1
    fi
}

echo "==> hermeticity: no package from a registry (workspace, benchmark/)"
hermetic
hermetic --manifest-path benchmark/Cargo.toml

echo "==> cargo build --release --offline"
cargo build --release --offline

# benchmark/ compiles against this workspace's public API: a removed or
# renamed item it imports fails here, before the long test steps.
echo "==> benchmark compile surface: cargo build --release --offline --manifest-path benchmark/Cargo.toml"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> cargo build --release --offline --workspace --bins"
cargo build --release --offline --workspace --bins

# The tier-1 line above ran the facade package; this is every other
# member's unit, integration and doc tests (erpd-par's grain boundary, the
# daemon, the differential and steady-state-allocation suites, ...), with
# the facade excluded so its suites run once.
echo "==> cargo test -q --offline --workspace --exclude erpd"
cargo test -q --offline --workspace --exclude erpd

echo "==> smoke capacity check (8 clients x 20 frames)"
./target/release/erpd-loadgen --clients 8 --frames 20

echo "==> benchmark unit tests (its compile surface is this workspace's public API)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark/run.sh --smoke"
benchmark/run.sh --smoke

echo "==> scripts/ab.sh parses and answers --help"
bash -n scripts/ab.sh
scripts/ab.sh --help >/dev/null

echo "==> cargo doc --no-deps --offline --workspace (dangling doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

if [ "$quick" -eq 0 ]; then
    echo "==> cargo clippy --workspace --all-targets --offline -- -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings
fi

echo "ok"
