#!/usr/bin/env python3
"""Build snslpd and the benchmark from this checkout, then run it.

    python3 perfbench/run.py --workload cold-kernels --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first form builds bin/snslpd.exe and perfbench/perfbench.exe with
dune, then runs one workload (see perfbench/perfbench.ml) pinned to one
CPU; the last line of its output is the JSON result.  The workloads are
cold-kernels and warm-edit, which BENCHMARK.json lists, and cold-tu (the
full-benchmark translation units), which it leaves out: on a shared
2-core VM its runs spread too widely to gate a change, but it is the
workload that shows size-dependent costs.

--self-test runs a small version of every workload and checks the
benchmark itself: every metric of BENCHMARK.json is printed with its
unit, no request fails, every request lands on its intended cache status
(warm-edit shows hits of both kinds, misses and evictions), and a
corrupted reply is counted as failed.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "_build", "default")
BENCH = os.path.join(BUILD, "perfbench", "perfbench.exe")
DAEMON = os.path.join(BUILD, "bin", "snslpd.exe")

# Sources the build needs beyond the benchmark's own directory.
SOURCES = ("dune-project", "bin/snslpd.ml", "lib/service/server.ml")

# Small versions of the workloads: requests per run.  warm-edit runs
# with a small cache, so its edits push it past capacity.
SMALL = {"cold-kernels": 60, "cold-tu": 21, "warm-edit": 600}
SMALL_CAPACITY = 32


def build():
    missing = [f for f in SOURCES if not os.path.isfile(os.path.join(ROOT, f))]
    if missing:
        sys.exit("perfbench: not a full checkout, missing " + ", ".join(missing))
    # The shared dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ROOT, "bin/snslpd.exe", "perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def run(args, stderr=None):
    done = subprocess.run([BENCH, "--daemon", DAEMON] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=stderr, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("perfbench: %s exited %d" % (" ".join(args), done.returncode))
    return json.loads(lines[-1]), lines[:-1]


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in SMALL:
        small = ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--requests", str(SMALL[workload])]
        if workload == "warm-edit":
            small += ["--capacity", str(SMALL_CAPACITY)]
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            result, lines = run(small + ["--trace", trace])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append("%s trace %s: metrics differ from BENCHMARK.json: %s"
                                % (workload, trace, sorted(set(got.items()) ^ set(want.items()))))
            for name, unit in want.items():
                if not any(re.fullmatch(r"metric %s +\S+ %s" % (re.escape(name), re.escape(unit)), l)
                           for l in lines):
                    problems.append("%s trace %s: %s is not printed with its unit" % (workload, trace, name))
                else:
                    print("%-12s %s" % (workload, next(l for l in lines if l.split()[:2] == ["metric", name])))
            if result["failed"] or not result["correct"]:
                problems.append("%s trace %s: %d of %d requests failed, correct=%s"
                                % (workload, trace, result["failed"], result["attempted"],
                                   result["correct"]))
            statuses = {tuple(l.split()[2:3]) for l in lines if l.startswith("status ")}
            want_statuses = ({("hit-textual",), ("hit-semantic",), ("miss",)}
                             if workload == "warm-edit" else {("miss",)})
            if statuses != want_statuses:
                problems.append("%s trace %s: reply statuses %s, expected %s"
                                % (workload, trace, sorted(statuses), sorted(want_statuses)))
            evictions = [int(l.split()[2]) for l in lines if l.startswith("daemon evictions ")]
            if workload == "warm-edit" and not (evictions and evictions[0] > 0):
                problems.append("warm-edit trace %s: no evictions" % trace)
        # The failure this run reports on stderr is the expected one.
        corrupted, _ = run(small + ["--trace", "0", "--corrupt", "3"], stderr=subprocess.DEVNULL)
        if corrupted["failed"] != 1 or corrupted["correct"]:
            problems.append("%s: a corrupted reply was not counted as failed" % workload)
    for p in problems:
        print("FAIL " + p)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def pin():
    """Run the client and the daemon on one CPU.  Only one of them is busy
    at a time, and the machine-speed reference the client times (see
    perfbench.ml) then runs where the daemon does."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    build()
    pin()
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    os.execv(BENCH, [BENCH, "--daemon", DAEMON] + sys.argv[1:])


if __name__ == "__main__":
    main()
