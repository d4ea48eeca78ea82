#!/usr/bin/env bash
#
# Profiler-overhead gate: the default build carries the profiler
# hook compiled in but disabled (one predictable branch per event)
# plus the parallel-execution flight recorder (DESIGN.md §14). That
# must cost no more than 5% of bench wall time against the notrace
# build, where PCIESIM_PROFILING=0 removes the hook and the
# recorder entirely. Two gates:
#
#   bench_fig9a   the single-queue event core (profiler hook only);
#                 all records counted
#   bench_kernel  only the mdev/tN records are counted — the
#                 --threads sweep where the engine telemetry block
#                 (window classification, mailbox counters, barrier
#                 accounting) is live on the measured path (ISSUE 10
#                 acceptance). The non-engine records (churn,
#                 linkpair, dd) never execute the recorder, so their
#                 default-vs-notrace deltas are pure code-layout
#                 noise; measured swings of +-10-25% in both
#                 directions across otherwise-identical builds would
#                 drown a 5% budget.
#
# Runs are interleaved and compared by median so a single scheduler
# hiccup cannot fail the gate.
#
# Expects ./build to be built and ./build-notrace to be configured
# (cmake --preset notrace); the gate rebuilds the two notrace benches
# itself so it never times stale binaries, and exits 2 (skipped)
# when the notrace tree is not configured.
# Usage: scripts/profiler_overhead_gate.sh [runs]

set -euo pipefail

cd "$(dirname "$0")/.."

runs=${1:-5}

if [ ! -f build-notrace/CMakeCache.txt ]; then
    echo "profiler_overhead_gate: build-notrace is not configured" \
        "(cmake --preset notrace)" >&2
    exit 2
fi
cmake --build build-notrace -j 4 --target bench_fig9a bench_kernel \
    >/dev/null

# One run's cost: the sum of wall_ms across the bench's records,
# optionally restricted to configs matching a prefix ($2).
measure() {
    "$1" --json | python3 -c '
import json, sys
prefix = sys.argv[1]
recs = [json.loads(l) for l in sys.stdin if l.strip()]
print(sum(r["wall_ms"] for r in recs
          if r["config"].startswith(prefix)))' "${2:-}"
}

# gate <label> <with-hook-bin> <without-hook-bin> [config-prefix]:
# medians of $runs interleaved runs must differ by <= 5%.
gate() {
    local label=$1 with_hook=$2 without_hook=$3 prefix=${4:-}
    local bin
    for bin in "$with_hook" "$without_hook"; do
        if [ ! -x "$bin" ]; then
            echo "profiler_overhead_gate: missing $bin" \
                "(build first)" >&2
            exit 2
        fi
    done

    local a=() b=()
    for _ in $(seq "$runs"); do
        a+=("$(measure "$with_hook" "$prefix")")
        b+=("$(measure "$without_hook" "$prefix")")
    done

    python3 - "$label" "${a[@]}" -- "${b[@]}" <<'EOF'
import statistics
import sys

label = sys.argv[1]
argv = sys.argv[2:]
split = argv.index("--")
hook = statistics.median(map(float, argv[:split]))
nohook = statistics.median(map(float, argv[split + 1:]))
overhead = (hook - nohook) / nohook * 100.0
print(f"profiler_overhead_gate[{label}]: disabled-profiler median "
      f"{hook:.1f} ms vs notrace {nohook:.1f} ms "
      f"({overhead:+.2f}% overhead, limit +5%)")
sys.exit(0 if overhead <= 5.0 else 1)
EOF
}

gate fig9a ./build/bench/bench_fig9a ./build-notrace/bench/bench_fig9a
gate kernel ./build/bench/bench_kernel \
    ./build-notrace/bench/bench_kernel mdev
