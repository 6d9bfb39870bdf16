#!/usr/bin/env python3
"""Self-tests of the uasim-perf benchmark.

    python3 uasim-perf/selftest.py

1. Builds and runs uasim_perf_selftest: the digest check catches a
   single flipped counter, and a different seed changes every trace key.
2. Runs every workload of BENCHMARK.json for one second with --trace 0
   and --trace 1. It checks that every metric name there matches
   [A-Za-z0-9_.-]+, is printed by the command with its unit, and that
   the result line has the contract's keys.

Exit code 0 when everything passes.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build step)

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def main():
    failures = []

    if subprocess.run([run.build("uasim_perf_selftest")]).returncode:
        failures.append("uasim_perf_selftest failed")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    groups = {"0": bench["end_to_end"], "1": bench["per_layer"]}
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not NAME.match(m["name"]):
            failures.append("bad metric name %r" % m["name"])
    for w in bench["workloads"]:
        if not NAME.match(w["name"]):
            failures.append("bad workload name %r" % w["name"])
        for trace, metrics in groups.items():
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 w["name"], "--seed", "7", "--seconds", "1", "--trace",
                 trace], cwd=ROOT, stdout=subprocess.PIPE, text=True)
            where = "%s --trace %s" % (w["name"], trace)
            lines = p.stdout.strip().splitlines()
            if p.returncode or not lines:
                failures.append("%s: exit %d" % (where, p.returncode))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                failures.append("%s: result keys %s" % (where, sorted(result)))
            if not result["correct"] or result["failed"]:
                failures.append("%s: output check failed" % where)
            for m in metrics:
                got = result["metrics"].get(m["name"])
                if got is None:
                    failures.append("%s: %s not printed" % (where, m["name"]))
                elif got.get("unit") != m["unit"]:
                    failures.append("%s: %s unit %r, want %r" %
                                    (where, m["name"], got.get("unit"),
                                     m["unit"]))

    for f in failures:
        print("FAIL:", f)
    print("uasim-perf selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
