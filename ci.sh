#!/usr/bin/env bash
# Tier-1 verification gate. Run before every merge.
#
#   ./ci.sh                # full gate: fmt, clippy, release build, tests
#   ./ci.sh --fast         # skip the release build (debug build via tests)
#   ./ci.sh --subset       # fast perf tier: gate only the representative
#                          # workload subset from charmap.json
#   ./ci.sh --bench-check  # with --fast: also diff simulated perf vs
#                          # BENCH_RESULTS.json (the full gate always does)
set -euo pipefail
cd "$(dirname "$0")"

fast=0
bench_check=0
subset=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        --bench-check) bench_check=1 ;;
        --subset) subset=1 ;;
        *) echo "usage: $0 [--fast] [--subset] [--bench-check]" >&2; exit 2 ;;
    esac
done

run() {
    echo "== $* =="
    "$@"
}

# Benchmark lock guard (every tier): the repo benchmark builds
# perfbench/ with `--locked`, and perfbench/Cargo.lock pins the
# dependency graph of every crate it builds. A manifest change in one
# of those crates (a dependency added or dropped) makes the benchmark
# fail with "cannot update the lock file"; catch it here instead.
echo "== cargo metadata --locked --manifest-path perfbench/Cargo.toml =="
if ! cargo metadata --offline --locked --format-version 1 \
        --manifest-path perfbench/Cargo.toml >/dev/null; then
    echo "ci: perfbench/Cargo.lock is stale: a manifest change in a crate the" \
         "benchmark builds breaks its --locked build; revert the manifest" \
         "change or regenerate the lock in a benchmark change" >&2
    exit 1
fi

# The `reproduce` binary owns its artifacts and gates: every file goes
# through one writer that exits non-zero on a failed or empty write,
# and every pass checks its own invariants in-process. So this script
# runs passes and the cross-process determinism diff; it names no
# artifact file except chaos_report.json. The file lists and the
# --slo/--tsdb byte-diffs are checked by crates/bench/tests/cli.rs.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
reproduce() {
    run cargo run --release -q -p bdb-bench --bin reproduce -- "$@"
}

if [ "$subset" -eq 1 ]; then
    # Representative-subset fast tier: run only the workloads the
    # characterization map selected (one per cluster, committed in
    # charmap.json) against the committed BENCH_RESULTS.json. This is
    # the cheap per-PR perf gate; the full gate re-derives the map and
    # enforces the subset stability rule. With --bench-subset, the SLO
    # pass observes the representative serving workload (Nutch when
    # the subset holds none), and the chaos and tsdb passes run
    # shortened campaigns and scrapes.
    reproduce --fraction 0.02 --bench-baseline BENCH_RESULTS.json \
        --bench-subset charmap.json --slo "$tmp/slo" --chaos 7 "$tmp/chaos" \
        --tsdb "$tmp/tsdb"
    echo "ci: subset tier passed"
    exit 0
fi

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets -- -D warnings
if [ "$fast" -eq 0 ]; then
    run cargo build --workspace --release
fi
run cargo test --workspace -q

if [ "$fast" -eq 0 ]; then
    # The benchmark package is its own workspace, so the line above
    # does not reach its tests (statistics, /proc parsers, metric list).
    run cargo test -q --manifest-path perfbench/Cargo.toml

    # Fault-injection smoke: WordCount with an injected spill error,
    # map-task panic and straggler must match the fault-free run.
    reproduce --faults 42

    # Profiling smoke: the binary enforces WordCount critical-path
    # coverage >= 90% and a blame table that partitions the path.
    reproduce --fraction 0.1 --profile "$tmp/profile"

    # Characterization map at the committed fraction, validated against
    # the committed charmap.json under the subset stability rule (same
    # k, exactly one committed representative per fresh cluster) and
    # the retained-variance target.
    reproduce --fraction 0.02 --charmap "$tmp/charmap" --charmap-baseline charmap.json

    # Vectorized-engine gate: the columnar kernels must equal the row
    # oracle exactly (values, row order, float bits) on random tables,
    # and strictly beat it on simulated instructions AND DRAM bytes for
    # all three query workloads; then the regenerated perf numbers must
    # match the committed BENCH_RESULTS.json within tolerance.
    run cargo test --release -q -p bdb-integration \
        --test columnar_differential --test columnar_vs_row_sim
    reproduce --fraction 0.02 --bench-baseline BENCH_RESULTS.json

    # Chaos-campaign gate: three fixed seeds under seeded fault
    # schedules; the binary exits nonzero if any invariant checker
    # fails or the OLTP campaign forced no failover or read-repair.
    # Two runs of seed 7 must write byte-identical reports.
    for seed in 7 21 1337; do
        reproduce --chaos "$seed" "$tmp/chaos-$seed"
    done
    reproduce --chaos 7 "$tmp/chaos-7-again"
    if ! cmp -s "$tmp/chaos-7/chaos_report.json" "$tmp/chaos-7-again/chaos_report.json"; then
        echo "ci: chaos_report.json is not byte-deterministic for seed 7" >&2
        exit 1
    fi
elif [ "$bench_check" -eq 1 ]; then
    # The full tier already ran this gate above. Regenerate the
    # simulated perf numbers at the committed baseline's fraction and
    # fail on drift beyond tolerance. Only deterministic simulator
    # metrics are gated; wall-clock never is.
    reproduce --fraction 0.02 --bench-baseline BENCH_RESULTS.json
fi

echo "ci: all gates passed"
