#!/usr/bin/env bash
# Tier-1 verification gate. Run before every merge.
#
#   ./ci.sh                # full gate: fmt, clippy, release build, tests
#   ./ci.sh --fast         # skip the release build (debug build via tests)
#   ./ci.sh --subset       # fast perf tier: gate only the representative
#                          # workload subset from charmap.json
#   ./ci.sh --bench-check  # also diff simulated perf vs BENCH_RESULTS.json
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

if [ "$subset" -eq 1 ]; then
    # Representative-subset fast tier: run only the workloads the
    # characterization map selected (one per cluster, committed in
    # charmap.json) against the committed BENCH_RESULTS.json. This is
    # the cheap per-PR perf gate; the full gate re-derives the map and
    # enforces the subset stability rule.
    # The SLO pass rides along for the representative serving workload
    # only (the committed subset holds no serving workload, so the pass
    # falls back to Nutch); the binary gates the burn-rate alert and
    # chain reconstruction in-process.
    # One shortened chaos campaign rides along (--bench-subset makes
    # --chaos pick the short fault schedules); the binary gates every
    # invariant checker plus forced failover/read-repair in-process.
    # A shortened time-series scrape rides along too (--bench-subset
    # makes --tsdb shrink the traced-write run and both serving
    # phases); the binary gates chain completeness, stored-vs-live
    # quantile agreement and the recording-rule replay in-process.
    slodir="$(mktemp -d)"
    chaosdir="$(mktemp -d)"
    tsdbdir="$(mktemp -d)"
    trap 'rm -rf "$slodir" "$chaosdir" "$tsdbdir"' EXIT
    run cargo run --release -q -p bdb-bench --bin reproduce -- \
        --fraction 0.02 --bench-baseline BENCH_RESULTS.json \
        --bench-subset charmap.json --slo "$slodir" --chaos 7 "$chaosdir" \
        --tsdb "$tsdbdir"
    if [ ! -s "$slodir/slo_report.json" ]; then
        echo "ci: missing or empty slo_report.json in subset tier" >&2
        exit 1
    fi
    if [ ! -s "$chaosdir/chaos_report.json" ]; then
        echo "ci: missing or empty chaos_report.json in subset tier" >&2
        exit 1
    fi
    if [ ! -s "$tsdbdir/tsdb_snapshot.bin" ] || [ ! -s "$tsdbdir/timeline.txt" ]; then
        echo "ci: missing or empty tsdb artifacts in subset tier" >&2
        exit 1
    fi
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
    run cargo run --release -q -p bdb-bench --bin reproduce -- --faults 42

    # Profiling smoke: every traced workload must emit its flamegraph,
    # critical-path and utilization artifacts (the binary itself
    # additionally enforces WordCount critical-path coverage >= 90%).
    profdir="$(mktemp -d)"
    trap 'rm -rf "$profdir"' EXIT
    run cargo run --release -q -p bdb-bench --bin reproduce -- \
        --fraction 0.1 --profile "$profdir"
    for stem in wordcount sort pagerank connectedcomponents kmeans \
                nutchserver cloudoltp joinquery; do
        for suffix in folded critpath.txt util.txt; do
            f="$profdir/$stem.$suffix"
            if [ ! -s "$f" ]; then
                echo "ci: missing or empty profile artifact: $f" >&2
                exit 1
            fi
        done
    done
    echo "ci: profile artifacts present for all traced workloads"

    # Characterization-map smoke: recompute the workload map at the
    # committed fraction and validate it against the committed
    # charmap.json under the subset stability rule (same k, exactly
    # one committed representative per fresh cluster). The binary also
    # gates the retained-variance target in-process.
    charmapdir="$(mktemp -d)"
    trap 'rm -rf "$profdir" "$charmapdir"' EXIT
    run cargo run --release -q -p bdb-bench --bin reproduce -- \
        --fraction 0.02 --charmap "$charmapdir" \
        --charmap-baseline charmap.json
    for f in "$charmapdir/charmap.txt" "$charmapdir/charmap.json"; do
        if [ ! -s "$f" ]; then
            echo "ci: missing or empty charmap artifact: $f" >&2
            exit 1
        fi
    done
    echo "ci: charmap artifacts present and subset stable"

    # Online-observability smoke: the serving tier's SLO pass must
    # write the report plus a dashboard, Prometheus exposition and
    # chain trace per service. The binary gates alert firing, chain
    # completeness and tail agreement in-process; here we gate the
    # artifacts' presence.
    slodir="$(mktemp -d)"
    trap 'rm -rf "$profdir" "$charmapdir" "$slodir"' EXIT
    run cargo run --release -q -p bdb-bench --bin reproduce -- \
        --slo "$slodir"
    if [ ! -s "$slodir/slo_report.json" ]; then
        echo "ci: missing or empty slo_report.json" >&2
        exit 1
    fi
    for stem in nutch-server olio-server rubis-server; do
        for suffix in dash.txt slo.prom.txt slo.trace.json; do
            f="$slodir/$stem.$suffix"
            if [ ! -s "$f" ]; then
                echo "ci: missing or empty SLO artifact: $f" >&2
                exit 1
            fi
        done
    done
    echo "ci: SLO artifacts present for all serving workloads"

    # Vectorized-engine gate: the columnar kernels must equal the row
    # oracle exactly (values, row order, float bits) on random tables,
    # and strictly beat it on simulated instructions AND DRAM bytes for
    # all three query workloads; then the regenerated perf numbers must
    # match the committed BENCH_RESULTS.json within tolerance.
    run cargo test --release -q -p bdb-integration \
        --test columnar_differential --test columnar_vs_row_sim
    run cargo run --release -q -p bdb-bench --bin reproduce -- \
        --fraction 0.02 --bench-baseline BENCH_RESULTS.json
    echo "ci: columnar engine differential + perf gates passed"

    # Chaos-campaign gate: three fixed seeds run the full Cloud-OLTP,
    # WordCount and serving campaigns under seeded fault schedules. The
    # binary exits nonzero if any invariant checker fails or the OLTP
    # campaign did not force at least one failover and one read-repair;
    # here we additionally gate the report artifact and its
    # byte-determinism (two runs of the same seed must diff clean).
    chaosdir="$(mktemp -d)"
    trap 'rm -rf "$profdir" "$charmapdir" "$slodir" "$chaosdir"' EXIT
    for seed in 7 21 1337; do
        run cargo run --release -q -p bdb-bench --bin reproduce -- \
            --chaos "$seed" "$chaosdir/seed-$seed"
        if [ ! -s "$chaosdir/seed-$seed/chaos_report.json" ]; then
            echo "ci: missing or empty chaos_report.json for seed $seed" >&2
            exit 1
        fi
    done
    run cargo run --release -q -p bdb-bench --bin reproduce -- \
        --chaos 7 "$chaosdir/seed-7-again"
    if ! cmp -s "$chaosdir/seed-7/chaos_report.json" \
                "$chaosdir/seed-7-again/chaos_report.json"; then
        echo "ci: chaos_report.json is not byte-deterministic for seed 7" >&2
        exit 1
    fi
    echo "ci: chaos campaigns passed for seeds 7, 21, 1337 (deterministic)"

    # Time-series gate: the tsdb pass scrapes a traced cluster run and
    # a shaped serving overload into the embedded store. The binary
    # gates span-chain completeness, stored-vs-live p99 agreement and
    # the recording-rule replay in-process; here we gate the artifacts
    # and the snapshot's byte-determinism across two identical-seed
    # runs.
    tsdbdir="$(mktemp -d)"
    trap 'rm -rf "$profdir" "$charmapdir" "$slodir" "$chaosdir" "$tsdbdir"' EXIT
    for tag in a b; do
        run cargo run --release -q -p bdb-bench --bin reproduce -- \
            --tsdb "$tsdbdir/$tag"
    done
    for f in tsdb_snapshot.bin timeline.txt serving.dash.txt \
             node-0.dash.txt node-1.dash.txt node-2.dash.txt node-3.dash.txt; do
        if [ ! -s "$tsdbdir/a/$f" ]; then
            echo "ci: missing or empty tsdb artifact: $f" >&2
            exit 1
        fi
    done
    if ! cmp -s "$tsdbdir/a/tsdb_snapshot.bin" "$tsdbdir/b/tsdb_snapshot.bin"; then
        echo "ci: tsdb_snapshot.bin is not byte-deterministic" >&2
        exit 1
    fi
    echo "ci: tsdb snapshot deterministic, dashboards and timeline present"
fi

if [ "$bench_check" -eq 1 ]; then
    # Regenerate the simulated perf numbers at the committed baseline's
    # fraction and fail on drift beyond tolerance. Only deterministic
    # simulator metrics are gated; wall-clock never is.
    run cargo run --release -q -p bdb-bench --bin reproduce -- \
        --fraction 0.02 --bench-baseline BENCH_RESULTS.json
fi

echo "ci: all gates passed"
