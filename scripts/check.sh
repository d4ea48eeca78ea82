#!/usr/bin/env bash
#
# The full correctness gauntlet, in cheapest-first order:
#
#   1. gem5_lint.py over src/ bench/ tests/   (style, seconds)
#   2. pciesim_analyze.py over src/ + fixture corpus (semantics:
#      layering, determinism, domain safety; seconds)
#   3. run-tidy                               (clang-tidy, if present)
#   4. default preset: build + tier-1 ctest
#      (includes golden_stats_test: stats dumps vs tests/golden/)
#   5. determinism gates: in-process seeded-rerun test plus the
#      bench-level byte-identical-JSON ctests (stats.json included)
#   6. pciesim-report self-smoke: a diff of identical stats.json
#      dumps must exit 0
#   7. perfbench traced run: python3 perfbench/run.py --seconds 2
#      --trace 1 must exit 0, i.e. every workload correct with its
#      profiled event time attributed and within 110% of run_s
#   8. asan-ubsan preset: build + tier-1 ctest (pool poisoning live)
#   9. tsan preset: bench_kernel --threads 4 --smoke,
#      bench_fabric on multi_device.json at --threads 4 (five cut
#      links on four workers; the storage fabric has one device
#      domain and no longer builds an engine),
#      bench_fabric on tree3.json at --threads 2 (seven link
#      domains, so windows keep fanning out after the first and
#      real links hand packets between locked and unlocked
#      windows), bench_fabric on faulty_multi_device.json at
#      --threads 4 (bit errors, NAK and AER: the error path's
#      keyed messages on concurrent workers), the parallel engine
#      unit tests (16 domains on 8
#      workers included), the parallel telemetry unit tests and
#      the t0/t1/t4 determinism gate (its t4 legs send keyed
#      deliveries over every cut wire at once) under
#      ThreadSanitizer (the engine's data-race gate)
#  10. profiler overhead gate: the default build (profiler compiled
#      in, disabled; parallel flight recorder live) within 5% of
#      the notrace build (hook and recorder removed) — bench_fig9a
#      for the event core, bench_kernel for the telemetry-on
#      mdev thread sweep
#
# Any finding or failure exits nonzero. The audit preset is covered
# by `ctest --preset audit` and is not part of this quick gate; run
# scripts/check.sh --with-audit to include it.

set -euo pipefail

cd "$(dirname "$0")/.."

with_audit=0
for arg in "$@"; do
    case "$arg" in
      --with-audit) with_audit=1 ;;
      *) echo "usage: scripts/check.sh [--with-audit]" >&2; exit 2 ;;
    esac
done

jobs=$(nproc 2>/dev/null || echo 4)

echo "== [1/10] gem5_lint =="
python3 tools/gem5_lint.py src bench tests

echo "== [2/10] pciesim_analyze (semantic checks + fixtures) =="
python3 tools/pciesim_analyze.py --tree src
python3 tools/analyze_fixtures_test.py

echo "== [3/10] clang-tidy (run-tidy) =="
cmake --preset default >/dev/null
cmake --build build --target run-tidy -j "$jobs"

echo "== [4/10] default build + tier-1 ctest (incl. golden stats) =="
cmake --build build -j "$jobs"
ctest --test-dir build -LE tier2 -j "$jobs" --output-on-failure

echo "== [5/10] determinism gates =="
ctest --test-dir build -R 'determinism' -j "$jobs" \
    --output-on-failure
# Resilience gate: the error-containment smoke (degradation ladder
# + surprise unplug) must run clean and emit valid JSON.
ctest --test-dir build -R 'bench_smoke_bench_resilience' \
    -j "$jobs" --output-on-failure
# Fabric gate: the declarative builder must construct and drive a
# 1024-endpoint topology (beyond the 255-bus enumeration ceiling)
# with valid JSON output (ISSUE 9 acceptance).
ctest --test-dir build -R 'fabric_smoke' \
    -j "$jobs" --output-on-failure

echo "== [6/10] pciesim-report diff self-smoke =="
./build/bench/bench_fig9a --smoke --json --no-timing \
    --stats-json=build/check_stats.json >/dev/null
./build/tools/pciesim-report diff build/check_stats.json \
    build/check_stats.json

echo "== [7/10] perfbench traced run =="
python3 perfbench/run.py --seconds 2 --trace 1

echo "== [8/10] asan-ubsan build + tier-1 ctest =="
cmake --preset asan-ubsan >/dev/null
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan -LE tier2 -j "$jobs" --output-on-failure

echo "== [9/10] tsan bench smokes + parallel engine tests =="
cmake --preset tsan >/dev/null
cmake --build build-tsan -j "$jobs" --target bench_kernel \
    bench_fabric parallel_engine_test \
    parallel_telemetry_test parallel_determinism_test
./build-tsan/bench/bench_kernel --smoke --json >/dev/null
./build-tsan/bench/bench_fabric --smoke \
    --topology=examples/topologies/multi_device.json --threads 4 \
    >/dev/null
./build-tsan/bench/bench_fabric --smoke \
    --topology=examples/topologies/tree3.json --threads 2 >/dev/null
./build-tsan/bench/bench_fabric --smoke \
    --topology=examples/topologies/faulty_multi_device.json \
    --threads 4 >/dev/null
./build-tsan/tests/parallel_engine_test
./build-tsan/tests/parallel_telemetry_test
./build-tsan/tests/parallel_determinism_test

echo "== [10/10] profiler overhead gate (vs notrace) =="
cmake --preset notrace >/dev/null
scripts/profiler_overhead_gate.sh

if [ "$with_audit" = 1 ]; then
    echo "== [extra] audit build + tier-1 ctest =="
    cmake --preset audit >/dev/null
    cmake --build build-audit -j "$jobs"
    ctest --test-dir build-audit -LE tier2 -j "$jobs" \
        --output-on-failure
fi

echo "check.sh: all gates passed"
