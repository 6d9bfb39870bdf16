#!/usr/bin/env python3
"""Run the benchmark repeatedly and report each metric's spread.

    python3 uasim-perf/spread.py [--runs 10] [--first-seed 1]
        [--workloads a,b] [--trace 0|1] [--out FILE] [--against FILE]

Each run gets its own seed (first-seed, first-seed + 1, ...). For every
end-to-end metric it prints the median over the runs, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread above a third of the
bound is flagged. With --trace 1 it reports the per-layer metrics the
same way (they have no bound). --out writes every value as JSON, the
form the trajectory files under uasim-perf/trajectory/ take.
--against reads such a file from an earlier set and flags every
end-to-end median that is worse than the earlier one by more than the
metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode or not lines:
        sys.stderr.write(p.stderr[-2000:])
        sys.exit("run failed: %s seed %s (exit %d)" %
                 (workload, seed, p.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out")
    p.add_argument("--against")
    a = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower"
                    for m in bench["end_to_end"]}
    earlier = {}
    if a.against:
        with open(a.against) as f:
            earlier = json.load(f)["workloads"]
    report = {"runs": a.runs, "first_seed": a.first_seed,
              "seconds": bench["run_seconds"], "trace": a.trace,
              "workloads": {}}
    worst = 0.0
    for w in a.workloads.split(","):
        results = [run_once(w, a.first_seed + i, bench["run_seconds"],
                            a.trace) for i in range(a.runs)]
        assert all(r["correct"] and r["failed"] == 0 for r in results)
        print("%s (%d runs)" % (w, a.runs))
        rows = report["workloads"][w] = {}
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4)
                         if len(vals) > 1 else (med, med, med))
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                if spread > bound / 3:
                    flag = "  <-- above a third of the bound"
            print("  %-34s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %6.3f%s%s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else " (bound %.2f)" % bound, flag))
            before = earlier.get(w, {}).get(name)
            if bound is not None and before and before["median"]:
                change = (med - before["median"]) / abs(before["median"])
                worse = change if lower_better[name] else -change
                worst = max(worst, worse / bound)
                print("  %-34s earlier median %-12.6g worse by %6.3f%s" %
                      ("", before["median"], worse,
                       "  <-- beyond the bound" if worse > bound else ""))
            rows[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": vals}
    if a.out:
        with open(a.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    print("worst spread (or change) / bound: %.3f" % worst)


if __name__ == "__main__":
    main()
