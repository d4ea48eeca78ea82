#!/usr/bin/env python3
"""pciesim benchmark: three workloads, each at 4 threads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the repository root. The first call builds the runner
(perfbench/CMakeLists.txt) into .bench_build/; later calls reuse it.
The default, --workload all, runs every workload in turn; --seconds
defaults to run_seconds in BENCHMARK.json.

Workloads (inputs are topology JSONs written from --seed):
  storage_dd   the paper's Sec. VI-A fabric: root complex -Gen2 x4-
               switch -Gen2 x1- IDE disk, a fault-free dd through the
               kernel IDE driver, cut into 3 link domains.
  storage_ber  the same dd with bit error rate 1e-6, NAK and AER on;
               fault_seed comes from --seed. Runs on one event queue.
  fabric256    256 posted-write traffic generators under two switch
               levels (300 link domains), driven directly.

Each run first runs the workload for two seconds untimed, then
repeats set-up and workload for --seconds. It reports the fastest
workload iteration, because every iteration does the same simulated
work and interference from other work on the host only ever adds
time, and the median of the same iterations' set-up times. The dd
workloads move 256 KB per iteration, so that a run holds many
iterations for the fastest one to be found among. The host's CPUs
change speed one by one, for seconds at a time, so a workload that
runs on one event queue (storage_ber) has its workload call pinned
to each allowed CPU in turn, one iteration each, rather than left on
one CPU that may stay slow for the whole run; multi-threaded
workloads run unpinned. --trace 0 prints the end-to-end
metrics of BENCHMARK.json, measured with the host profiler off.
--trace 1 splits --seconds between an untraced and a profiled run and
prints the per-layer metrics; profiled event time, less the cost of
timing it, is charged to the layer of the object that fired the
event, calls into other layers included. Every run checks the
simulated outputs; a failed check, a crash or a hang of the runner
marks all ops failed and makes the command exit 1. The last stdout
line of each workload is one JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
RUNNER = os.path.join(BUILD, "pciesim_perf")
THREADS = 4
CHILD_TIMEOUT_S = 170
# fabric256: generators, and ports per switch of its two-level tree.
ENDPOINTS = 256
FAN = 7
# The IDE driver moves at most 64 KB per DMA command.
IDE_CMD_BYTES = 64 << 10
# A traced run fails when it attributes less than 90% of its run_s
# to layers, or profiles more than 110% of it.
MAX_UNATTRIBUTED = 0.10
MAX_PROFILED = 1.10


def storage_desc(seed, threads, faults):
    config = {
        "gen": 2,
        "upstream_link_width": 4,
        "downstream_link_width": 1,
        "threads": threads,
        "fault_seed": seed + 1,
    }
    if faults:
        config.update({
            "link_bit_error_rate": 1e-6,
            "enable_nak": True,
            "aer_enabled": True,
        })
    return {
        "system_stats": True,
        "config": config,
        "nodes": [
            {"name": "switch", "kind": "switch",
             "link": {"name": "upLink"}},
            {"name": "disk", "kind": "ide_disk", "parent": "switch",
             "link": {"name": "downLink"}},
        ],
    }


def fabric256_desc(seed, threads):
    """A balanced two-level tree: 6 root switches, 37 leaf switches
    of 7 ports, and the generators spread round-robin over them."""
    leaves = -(-ENDPOINTS // FAN)
    tops = -(-leaves // FAN)
    nodes = [{"name": "sw0_%d" % i, "kind": "switch", "ports": FAN}
             for i in range(tops)]
    nodes += [{"name": "sw1_%d" % i, "kind": "switch", "ports": FAN,
               "parent": "sw0_%d" % (i % tops)} for i in range(leaves)]
    nodes += [{"name": "tgen%d" % i, "kind": "traffic_gen",
               "parent": "sw1_%d" % (i % leaves)}
              for i in range(ENDPOINTS)]
    return {
        "enumerate": False,
        "config": {
            "gen": 3,
            "link_propagation_ns": 500,
            "replay_timeout_scale": 100,
            "threads": threads,
            "fault_seed": seed + 1,
        },
        "traffic_gen": {"posted_writes": True},
        "nodes": nodes,
    }


def dd(nbytes):
    """Runner arguments and DMA transfers of one dd of nbytes."""
    return ["--dd-bytes", str(nbytes)], -(-nbytes // IDE_CMD_BYTES)


def writes(burst_bytes):
    """Runner arguments and DMA transfers of one burst per generator."""
    return ["--bursts", "1", "--burst-bytes", str(burst_bytes)], ENDPOINTS


# name -> (topology maker, (runner arguments, DMA transfers per
#          iteration), the same for the shortened run)
WORKLOADS = {
    "storage_dd": (lambda s, t: storage_desc(s, t, False),
                   dd(256 << 10), dd(64 << 10)),
    "storage_ber": (lambda s, t: storage_desc(s, t, True),
                    dd(256 << 10), dd(64 << 10)),
    "fabric256": (fabric256_desc, writes(2048), writes(512)),
}


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_units(kind):
    """(name, unit) of every metric BENCHMARK.json lists under kind."""
    return [(m["name"], m["unit"]) for m in benchmark()[kind]]


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "topo",
                                       "fabric_builder.hh")):
        sys.exit("perfbench: simulator sources (src/) not found under "
                 + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(THREADS)],
                   stdout=sys.stderr, check=True)


def write_input(workload, seed, threads):
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "%s-s%d-t%d.json" %
                        (workload, seed, threads))
    with open(path, "w") as f:
        json.dump(WORKLOADS[workload][0](seed, threads), f, indent=1)
    return path


def run_child(topology, args, seconds, extra=(), timeout=CHILD_TIMEOUT_S):
    """The runner's record, or None when it fails or hangs."""
    cmd = [RUNNER, "--topology", topology, "--work-dir", WORK,
           "--seconds", str(seconds)] + list(args) + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: runner timed out after %d s" % timeout,
              file=sys.stderr)
        return None
    # The runner repeats the fabric's warnings every iteration; pass
    # each distinct line on once.
    for line in dict.fromkeys(proc.stderr.splitlines()):
        print(line, file=sys.stderr)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def e2e_metrics(rec):
    run_s = min(rec["run_s"])
    return {
        "run_s": run_s,
        "events_per_sec": rec["events"] / run_s,
        "sim_us_per_s": rec["sim_s"] * 1e6 / run_s,
        "setup_s": statistics.median(rec["setup_s"]),
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def layer_metrics(untraced, traced):
    lay = dict(traced["layers"])
    run_s = min(traced["run_s"])
    lay["topo.parse_s"] = statistics.median(traced["parse_s"])
    lay["topo.build_s"] = statistics.median(traced["build_s"])
    lay["pci.boot_s"] = statistics.median(traced["boot_s"])
    tlps = lay["pcie.link.tlps"]
    lay["pcie.link.useful_frac"] = (
        1.0 - lay["pcie.link.replayed"] / tlps if tlps else 1.0)
    lay["trace.run_s"] = run_s
    lay["trace.overhead"] = run_s / min(untraced["run_s"]) - 1.0
    return lay


def run_workload(name, seed, seconds, trace):
    """Run one workload, print its metrics and return its result."""
    topology = write_input(name, seed, THREADS)
    args, ops = WORKLOADS[name][1]
    if trace:
        # Both runs together must end within CHILD_TIMEOUT_S.
        half = CHILD_TIMEOUT_S / 2
        untraced = run_child(topology, args, seconds / 2, timeout=half)
        traced = untraced and run_child(topology, args, seconds / 2,
                                        ["--trace"], half)
        recs = [untraced, traced]
    else:
        untraced = run_child(topology, args, seconds)
        recs = [untraced]
    if None in recs:
        print("perfbench: %s: the runner failed" % name, file=sys.stderr)
        return {"correct": False, "attempted": ops, "failed": ops,
                "metrics": {}}
    failures = []
    for r in recs:
        failures += r["failures"]
    if trace:
        if traced["sim_digest"] != untraced["sim_digest"]:
            failures.append("tracing changed the simulated results")
        metrics = layer_metrics(untraced, traced)
        if metrics["trace.unattributed_frac"] > MAX_UNATTRIBUTED:
            failures.append("traced run leaves %.1f%% of run_s "
                            "unattributed"
                            % (100 * metrics["trace.unattributed_frac"]))
        if metrics["trace.profiled_frac"] > MAX_PROFILED:
            failures.append("traced run profiles %.1f%% of run_s"
                            % (100 * metrics["trace.profiled_frac"]))
        units = metric_units("per_layer")
    else:
        metrics = e2e_metrics(untraced)
        units = metric_units("end_to_end")

    for f in failures:
        print("perfbench: %s: check failed: %s" % (name, f),
              file=sys.stderr)
    for metric, unit in units:
        print("%-36s %16.6g %s" % (metric, metrics[metric], unit))
    print("%-36s %16.6g %s" % ("sim_gbps", untraced["sim_gbps"], "Gbit/s"))
    print("%-36s %16s" % ("sim_digest", untraced["sim_digest"]))
    print("%-36s %16d" % ("iterations", untraced["iterations"]))
    attempted = sum(r["ops"] for r in recs)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted if failures else 0,
        "metrics": {m: {"value": metrics[m], "unit": u}
                    for m, u in units},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=list(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    build()
    seconds = (benchmark()["run_seconds"] if a.seconds is None
               else a.seconds)
    names = list(WORKLOADS) if a.workload == "all" else [a.workload]
    ok = True
    for name in names:
        print("== " + name)
        result = run_workload(name, a.seed, seconds, a.trace)
        print(json.dumps(result))
        ok = ok and result["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
