#!/usr/bin/env bash
# A/B of benchmark workloads between a parent revision and the working
# tree, in alternating pairs on one machine.
#
#   scripts/ab.sh [--trace] <parent-rev> <workload> <pairs>
#   scripts/ab.sh [--trace] <parent-rev> all <pairs>
#   scripts/ab.sh --help
#
# `all` runs every workload of BENCHMARK.json, in its order, and prints
# one table per workload; the exit status covers them all.
#
# Builds benchmark/ once per side, each from its own source tree into its
# own target directory under target/ab/: the parent from `git archive
# <parent-rev>`, the change from the working tree. Pair i runs both sides at
# `--workload <workload> --seed i --seconds 20 --trace 0`, the parent first
# in odd pairs and second in even ones. With --trace the runs are traced
# (`--trace 1`), so the table compares the per-layer metrics
# (`pointcloud.merge_ms`, `edge.transport.serve_ms`, ...) instead of the
# end-to-end ones. Prints, per metric, each side's median [q1, q3] over
# the pairs, the change/parent ratio of the medians and the pairs the
# change won (direction from BENCHMARK.json), then exits 1 after flagging
#   * a byte or relevance metric whose printed value differs between the
#     two runs of a pair by even one digit; when the workload counts those
#     metrics over its first COUNTED_UNITS units (a constant in
#     benchmark/src/workloads/<workload>.rs) and a run of the pair finished
#     fewer, the flag says so ("the parent run finished 5 of 8 counted
#     units"): such a pair counted different frames,
#   * a multi_edge change run that got through more units than every
#     parent run of the round (past the last unit lies the scenario with
#     no strip crossing, which fails the run; one slow parent run alone
#     raises no flag),
#   * a run that did not end `"correct": true` with `"failed": 0`.
# Before the first pair it prints the box's parallel headroom: `nproc`,
# ERPD_THREADS, and the speed-up of two concurrent single-thread CPU loops
# over one (about 2 with two free cores, about 1 where the cores are
# shared), with whether a thread fan-out could have paid on that box.
# The raw outputs stay in target/ab/runs/<workload>/.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() { sed -n '2,/^set -e/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//'; }
trace=0
case "${1:-}" in
    -h | --help) usage; exit 0 ;;
    --trace) trace=1; shift ;;
esac
if [ $# -ne 3 ]; then
    usage >&2
    exit 2
fi
parent_rev=$1 workload=$2 pairs=$3
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
    echo "pairs must be a positive integer, not '$pairs'" >&2
    exit 2
fi
git rev-parse --verify --quiet "$parent_rev^{commit}" >/dev/null || {
    echo "not a revision: $parent_rev" >&2
    exit 2
}

work=$PWD/target/ab
rm -rf "$work/parent-src" "$work/runs"
mkdir -p "$work/parent-src" "$work/runs"
git archive "$parent_rev" | tar -x -C "$work/parent-src"
for side in parent change; do
    src=$PWD
    [ "$side" = parent ] && src=$work/parent-src
    echo "==> building the $side benchmark" >&2
    CARGO_TARGET_DIR=$work/$side-target cargo build --release --offline --quiet \
        --manifest-path "$src/benchmark/Cargo.toml" >&2
done

# Runs the pairs of one workload and prints its table; returns 1 after
# flagging.
compare() {
    local workload=$1 runs=() i side order
    local dir=$work/runs/$workload counted
    mkdir -p "$dir"
    # Empty when the workload counts every unit it finishes.
    counted=$(sed -n 's/^const COUNTED_UNITS: u64 = \([0-9][0-9]*\);.*/\1/p' \
        "benchmark/src/workloads/$workload.rs" 2>/dev/null | head -n 1)
    for i in $(seq 1 "$pairs"); do
        order="parent change"
        [ $((i % 2)) -eq 0 ] && order="change parent"
        for side in $order; do
            echo "==> $workload pair $i: $side" >&2
            # A failed run exits non-zero; it is flagged below, not fatal here.
            "$work/$side-target/release/erpd-benchmark" --out-dir "$dir/out-$side" \
                --workload "$workload" --seed "$i" --seconds 20 --trace "$trace" \
                >"$dir/$side-$i.txt" 2>"$dir/$side-$i.err" || true
            runs+=("$dir/$side-$i.txt")
        done
    done

    # Each metric's direction comes from the "name"/"better" pairs of
    # BENCHMARK.json; the runs are the `workload metric value unit` lines.
    awk -v pairs="$pairs" -v workload="$workload" -v dir="${dir#"$PWD/"}" -v counted="$counted" '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        # Nearest rank, as erpd_geometry::stats::quantile.
        function rank(a, n, p,    k) { k = int(p * n); if (k < p * n) k++; if (k < 1) k = 1; return a[k] }
        function summary(side, m,    a, n, i) {
            n = 0
            for (i = 1; i <= pairs; i++) if ((side, i, m) in val) a[++n] = val[side, i, m] + 0
            if (n == 0) return "-"
            sort(a, n)
            med[side, m] = rank(a, n, 0.5)
            return sprintf("%.6g [%.6g, %.6g]", med[side, m], rank(a, n, 0.25), rank(a, n, 0.75))
        }
        # Why pair i may count different frames: a run short of the counted units.
        function short(i,    s, side, why) {
            if (counted == "") return ""
            for (s = 0; s < 2; s++) {
                side = s ? "change" : "parent"
                if ((side, i) in units && units[side, i] < counted + 0)
                    why = why sprintf("; the %s run finished %d of %d counted units", side, units[side, i], counted)
            }
            return why
        }
        FILENAME ~ /BENCHMARK.json$/ {
            if (match($0, /"name": "[^"]*"/)) name = substr($0, RSTART + 9, RLENGTH - 10)
            if (match($0, /"better": "[^"]*"/)) better[name] = substr($0, RSTART + 11, RLENGTH - 12)
            next
        }
        FNR == 1 {
            side = FILENAME; sub(/.*\//, "", side); sub(/\.txt$/, "", side)
            pair = side; sub(/.*-/, "", pair); sub(/-.*/, "", side)
            done[side, pair] = 0
        }
        /^# / && $2 == workload { for (f = 3; f <= NF; f++) if ($f ~ /^units=/) units[side, pair] = substr($f, 7) + 0 }
        $1 == workload && NF == 4 && !/^#/ {
            if (!($2 in seen)) { seen[$2] = 1; order[++metrics] = $2 }
            val[side, pair, $2] = $3
        }
        /^\{"correct"/ { done[side, pair] = /"correct": true/ && /"failed": 0[,}]/ }
        END {
            printf "%-26s %-36s %-36s %7s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "won"
            for (k = 1; k <= metrics; k++) {
                m = order[k]
                p = summary("parent", m); c = summary("change", m)
                won = 0; both = 0
                for (i = 1; i <= pairs; i++) {
                    if (!(("parent", i, m) in val) || !(("change", i, m) in val)) continue
                    both++
                    d = val["change", i, m] - val["parent", i, m]
                    if ((better[m] == "lower" && d < 0) || (better[m] == "higher" && d > 0)) won++
                    # As printed: compared as strings, not as numbers.
                    if (m ~ /bytes_per_frame$|relevance_per_frame$/ && (val["change", i, m] "") != (val["parent", i, m] ""))
                        flag[++flags] = sprintf("pair %d: %s %s -> %s (must repeat exactly%s)", i, m, val["parent", i, m], val["change", i, m], short(i))
                }
                ratio = (med["parent", m] != 0) ? sprintf("%.4f", med["change", m] / med["parent", m]) : "-"
                printf "%-26s %-36s %-36s %7s %d/%d %s\n", m, p, c, ratio, won, both, better[m]
            }
            # The most units any parent run of the round finished.
            most = -1
            for (i = 1; i <= pairs; i++) if (("parent", i) in units && units["parent", i] > most) most = units["parent", i]
            for (i = 1; i <= pairs; i++) {
                for (s = 0; s < 2; s++) {
                    side = s ? "change" : "parent"
                    if (!done[side, i]) flag[++flags] = sprintf("pair %d: the %s run is not correct (see %s/%s-%d.txt)", i, side, dir, side, i)
                }
                if (workload == "multi_edge" && ("change", i) in units && units["change", i] > most)
                    flag[++flags] = sprintf("pair %d: multi_edge units %d (no parent run finished more than %d: the change reached a later scenario unit)", i, units["change", i], most)
            }
            for (f = 1; f <= flags; f++) print "FLAG " flag[f]
            exit (flags > 0)
        }
    ' BENCHMARK.json "${runs[@]}"
}

# Two single-thread loops at once against one alone: 2 × (one's time) /
# (both's time) is the work per second two threads get over one.
spin() { awk 'BEGIN { for (i = 0; i < 2e7; i++) s += i; exit s < 0 }'; }
t0=$(date +%s%N)
spin
t1=$(date +%s%N)
spin &
spin &
wait
t2=$(date +%s%N)
awk -v one=$((t1 - t0)) -v both=$((t2 - t1)) -v nproc="$(nproc)" \
    -v threads="${ERPD_THREADS:-unset}" 'BEGIN {
    speedup = 2 * one / both
    verdict = speedup >= 1.5 ? "yes" : "no: two threads run about as fast as one"
    printf "%-24s %s\n", "parallel headroom", "value"
    printf "%-24s %s\n", "nproc", nproc
    printf "%-24s %s\n", "ERPD_THREADS", threads
    printf "%-24s %.2fx\n", "2-loop speed-up", speedup
    printf "%-24s %s\n", "fan-out could pay", verdict
}'

if [ "$workload" = all ]; then
    # The "name"s of BENCHMARK.json's "workloads" array, in order.
    workloads=$(awk '/"workloads"/ { on = 1 } on && /\]/ { exit }
        on && match($0, /"name": "[^"]*"/) { print substr($0, RSTART + 9, RLENGTH - 10) }' BENCHMARK.json)
else
    workloads=$workload
fi
status=0
for w in $workloads; do
    echo "=== $w"
    compare "$w" || status=1
done
exit "$status"
