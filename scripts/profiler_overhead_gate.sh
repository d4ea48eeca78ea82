#!/usr/bin/env bash
#
# Profiler-overhead gate: the default build carries the profiler
# hook compiled in but disabled (one predictable branch per event)
# plus the parallel-execution flight recorder (DESIGN.md §14). That
# must cost no more than 5% against the notrace build, where
# PCIESIM_PROFILING=0 removes the hook and the recorder entirely.
# Two gates:
#
#   bench_fig9a   the single-queue event core (profiler hook only);
#                 the whole run counts
#   bench_kernel  only its mdev/tN records count: the --threads
#                 sweep where the engine telemetry block (window
#                 classification, mailbox counters, barrier
#                 accounting) is live on the measured path. The
#                 records before it (churn, linkpair, dd) never
#                 execute the recorder, so their default-vs-notrace
#                 deltas are code-layout noise of +-10-25% that
#                 would drown a 5% budget.
#
# Each gate measures user+sys CPU time, not wall clock: CPU time
# leaves out the time a process waits for a CPU on a shared host.
# A fig9a run counts the child's whole CPU time (os.wait4). A kernel
# run counts the CPU time the child used after its last record
# before the sweep: the records arrive one per line as each workload
# finishes, the child's CPU time is read from
# /proc/<pid>/schedstat when that record arrives (only the main
# thread exists then), and the sweep's share is the os.wait4 total
# less that reading.
#
# The two builds run in interleaved pairs, at least 10 of them,
# which alternate which build goes first, and each gate compares the
# median of the per-pair CPU-time ratios, so a slow stretch of the
# host weighs on both sides of a pair. A fig9a run is one thread:
# both runs of a pair are pinned to one CPU, and successive pairs
# take the allowed CPUs in turn, since the host's CPUs change speed
# one by one, for seconds at a time. The kernel sweep runs up to 8
# threads, so its runs are not pinned.
#
# Expects ./build to be built and ./build-notrace to be configured
# (cmake --preset notrace); the gate rebuilds the two notrace benches
# itself so it never times stale binaries, and exits 2 (skipped)
# when the notrace tree is not configured or a bench is missing. A
# failed gate (exit 1) is never masked by a skipped one.
# Usage: scripts/profiler_overhead_gate.sh [pairs]   (default 10)

set -euo pipefail

cd "$(dirname "$0")/.."

pairs=${1:-10}
if [ "$pairs" -lt 10 ]; then
    echo "profiler_overhead_gate: needs at least 10 pairs" >&2
    exit 2
fi

if [ ! -f build-notrace/CMakeCache.txt ]; then
    echo "profiler_overhead_gate: build-notrace is not configured" \
        "(cmake --preset notrace)" >&2
    exit 2
fi
cmake --build build-notrace -j 4 --target bench_fig9a bench_kernel \
    >/dev/null

# gate <label> <with-hook-bin> <without-hook-bin> <whole|mdev>: over
# $pairs interleaved pairs, the median of the with-hook /
# without-hook CPU time ratios must be at most 1.05.
gate() {
    python3 - "$pairs" "$@" <<'PY'
import json
import os
import statistics
import subprocess
import sys

pairs = int(sys.argv[1])
label, with_hook, without_hook, part = sys.argv[2:6]
for path in (with_hook, without_hook):
    if not os.access(path, os.X_OK):
        print(f"profiler_overhead_gate: missing {path} (build first)",
              file=sys.stderr)
        sys.exit(2)


def wait_cpu(child, path):
    """User+sys CPU seconds of @child, once it has exited."""
    _, status, usage = os.wait4(child.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"profiler_overhead_gate: {path} failed")
    return usage.ru_utime + usage.ru_stime


def whole_run(path, cpu):
    """CPU seconds of one --json run of the bench, pinned to @cpu."""
    child = subprocess.Popen(
        [path, "--json"], stdout=subprocess.DEVNULL,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    return wait_cpu(child, path)


def mdev_sweep(path, cpu):
    """CPU seconds one --json run of bench_kernel spent in its mdev/tN
    records (@cpu unused: the sweep's threads are not pinned)."""
    child = subprocess.Popen([path, "--json"], stdout=subprocess.PIPE,
                             text=True)
    start, swept = None, 0
    for line in child.stdout:
        if json.loads(line)["config"].startswith("mdev"):
            swept += 1
        elif swept == 0:
            with open(f"/proc/{child.pid}/schedstat") as f:
                start = int(f.read().split()[0]) / 1e9
    total = wait_cpu(child, path)
    if start is None or swept == 0:
        sys.exit(f"profiler_overhead_gate: {path} printed no mdev "
                 "records after another record")
    return total - start


measure = whole_run if part == "whole" else mdev_sweep
cpus = sorted(os.sched_getaffinity(0))
hook, nohook, ratios = [], [], []
for i in range(pairs):
    cpu = cpus[i % len(cpus)]
    if i % 2 == 0:
        hook.append(measure(with_hook, cpu))
        nohook.append(measure(without_hook, cpu))
    else:
        nohook.append(measure(without_hook, cpu))
        hook.append(measure(with_hook, cpu))
    ratios.append(hook[-1] / nohook[-1])
overhead = (statistics.median(ratios) - 1.0) * 100.0
print(f"profiler_overhead_gate[{label}]: {pairs} pairs; median CPU "
      f"time {statistics.median(hook):.3f} s disabled-profiler vs "
      f"{statistics.median(nohook):.3f} s notrace; median pair ratio "
      f"{overhead:+.2f}% (limit +5%)")
sys.exit(0 if overhead <= 5.0 else 1)
PY
}

# Run both gates. Exit 1 if either failed, else 2 if either was
# skipped, else 0.
rc=0
note() {
    if [ "$1" -ne 2 ]; then
        rc=1
    elif [ "$rc" -eq 0 ]; then
        rc=2
    fi
}
gate fig9a ./build/bench/bench_fig9a \
    ./build-notrace/bench/bench_fig9a whole || note $?
gate kernel ./build/bench/bench_kernel \
    ./build-notrace/bench/bench_kernel mdev || note $?
exit "$rc"
