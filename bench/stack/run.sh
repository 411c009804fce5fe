#!/usr/bin/env bash
# Builds stackbench once and runs full traced sets of the four workloads.
#
#   bench/stack/run.sh all [seed]   one set (default seed 42) into out/all/
#   bench/stack/run.sh aa           two sets of seeds 42 and 43 into out/aa/,
#                                   every end-to-end metric compared between
#                                   the sets against its bound (exit 1 on a
#                                   breach), and out/aa/history.json written
#                                   in the shape of history/NNNN.json
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
out="$here/out"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
bin="$CARGO_TARGET_DIR/release/stackbench"
workloads="wire-2k dense-100k scatter-2n mixed-rw"

build() {
    cargo build --release --offline --manifest-path "$here/Cargo.toml"
}

# run_set <dir> <seed>: the four workloads, traced, one process each (as
# the driver runs them); stdout kept as run.txt.
run_set() {
    mkdir -p "$1"
    : >"$1/run.txt"
    for workload in $workloads; do
        (cd "$root" && "$bin" --workload "$workload" --trace --seed "$2" --out "$1") |
            tee -a "$1/run.txt" | grep -E '^(workload|attempted|failed) ' || true
    done
}

# compare <dir_a> <dir_b>: relative difference of every end-to-end
# metric of every workload, against the metric's bound.
compare() {
    "$bin" --bounds >"$out/bounds.txt"
    awk '
        FILENAME == ARGV[1] { bound[$1] = $4; next }
        $1 == "workload" { workload = $2; next }
        !($1 in bound) { next }
        FILENAME == ARGV[2] { a[workload " " $1] = $2; next }
        {
            key = workload " " $1
            diff = ($2 - a[key]) / a[key]
            breach = (diff > bound[$1] || -diff > bound[$1])
            printf "%-12s %-18s a %14.4f  b %14.4f  diff %+7.2f%%  bound %4.0f%%%s\n",
                workload, $1, a[key], $2, 100 * diff, 100 * bound[$1], breach ? "  BREACH" : ""
            breaches += breach
        }
        END { exit breaches > 0 }
    ' "$out/bounds.txt" "$1/run.txt" "$2/run.txt"
}

# history <dir>...: one JSON document holding every per-workload report.
history() {
    printf '{\n  "issue": 11,\n  "commit": "%s",\n  "nproc": %s,\n  "rustc": "%s",\n  "runs": [\n' \
        "$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)" "$(nproc)" "$(rustc -V)"
    first=1
    for dir in "$@"; do
        for workload in $workloads; do
            [ "$first" = 1 ] || printf ',\n'
            first=0
            printf '{"set": "%s", "report":\n' "$(basename "$dir")"
            cat "$dir/$workload.json"
            printf '}'
        done
    done
    printf '\n  ]\n}\n'
}

case "${1:-}" in
all)
    build
    run_set "$out/all" "${2:-42}"
    ;;
aa)
    build
    status=0
    for seed in 42 43; do
        run_set "$out/aa/a-$seed" "$seed"
        run_set "$out/aa/b-$seed" "$seed"
    done
    for seed in 42 43; do
        echo "--- seed $seed: set a against set b"
        compare "$out/aa/a-$seed" "$out/aa/b-$seed" || status=1
    done
    history "$out/aa/a-42" "$out/aa/a-43" "$out/aa/b-42" "$out/aa/b-43" >"$out/aa/history.json"
    echo "wrote $out/aa/history.json"
    exit "$status"
    ;;
*)
    sed -n '2,10p' "$0"
    exit 2
    ;;
esac
