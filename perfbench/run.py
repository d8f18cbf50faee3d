#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a cqlopt checkout.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload query-flights --seed 1 --seconds 30 --trace 0

builds perfbench/main.exe with dune, runs it, and passes its output and exit
code through; the last line of standard output is the JSON result.

Repeat mode runs one workload several times with seeds 1..N and prints, for
every end-to-end metric, the median, the quartiles and the spread (the
distance between the quartiles over the median) against the metric's bound
from BENCHMARK.json:

    python3 perfbench/run.py --repeat 10 --workload serve-mix [--seconds 30]
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    # the benchmark links the program's libraries: it needs the whole
    # checkout, not just its own directory
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the root of a cqlopt checkout (%s is missing)" % need)
    r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


# A run measures for --seconds and then finishes its round; one that is
# still going after this long is stopped, and the run fails.
RUN_LIMIT_S = 170


def run_child(cmd, capture):
    """Run [cmd] to its end and return (exit code, stdout or None).  The
    child is killed and waited for if it outlives RUN_LIMIT_S, or if this
    process is told to stop."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None, text=True)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    previous = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = child.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("%s did not finish within %d s" % (" ".join(cmd), RUN_LIMIT_S))
    finally:
        for s, h in previous.items():
            signal.signal(s, h)
    return child.returncode, out


def run_once(workload, seed, seconds, trace, capture):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    code, out = run_child(cmd, capture)
    if not capture:
        return code
    sys.stderr.write(out)
    if code != 0:
        fail("seed %d exited with %d" % (seed, code))
    return json.loads(out.strip().splitlines()[-1])


def repeat(workload, n, seconds):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = [run_once(workload, seed, seconds, 0, True) for seed in range(1, n + 1)]
    shares = {(r["failed"], r["attempted"]) for r in results}
    print("%s: %d runs, correct=%s, failed/attempted=%s" % (
        workload, n, all(r["correct"] for r in results), sorted(shares)))
    print("%-20s %12s %12s %12s %8s %8s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < bound / 3 else "  <- above a third of the bound"
        print("%-20s %12.4f %12.4f %12.4f %8.4f %8.2f%s" % (name, q1, med, q3, spread, bound, flag))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--repeat", type=int)
    a = ap.parse_args()
    build()
    if a.repeat:
        seconds = a.seconds
        if seconds is None:
            with open("BENCHMARK.json") as f:
                seconds = json.load(f)["run_seconds"]
        repeat(a.workload, a.repeat, seconds)
        return 0
    if a.seconds is None:
        fail("--seconds is required")
    return run_once(a.workload, a.seed, a.seconds, a.trace, False)


if __name__ == "__main__":
    sys.exit(main())
