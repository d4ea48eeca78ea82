#!/usr/bin/env python3
"""Digest test: a shortened run of each workload must produce the same
simulated-result digest twice at 4 threads and once at 1 thread, so
the thread count changes only wall time.

    python3 perfbench/selftest.py
"""

import sys

import run


def main():
    run.build()
    bad = 0
    for name, (_, _, (short_args, _)) in run.WORKLOADS.items():
        digests = []
        for threads in (4, 4, 1):
            topology = run.write_input(name, 1, threads)
            rec = run.run_child(topology, short_args, 0,
                                ["--warmup", "0", "--min-iters", "2"])
            if rec is None or rec["failures"]:
                print("%s: runner failed at %d threads: %s"
                      % (name, threads, rec and rec["failures"]))
                bad += 1
                break
            digests.append(rec["sim_digest"])
        ok = len(digests) == 3 and len(set(digests)) == 1
        print("%-12s %s %s" % (name, "ok  " if ok else "FAIL",
                               " ".join(digests)))
        bad += 0 if ok else 1
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
