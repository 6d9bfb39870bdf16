#!/usr/bin/env python3
"""uasim-perf: build the benchmark from source, then run one workload.

    python3 uasim-perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds
the library and uasim_perf under .bench_build/uasim-perf (Release);
later calls only rebuild what changed. Build output goes to stderr, so
the last line of stdout is uasim_perf's JSON result. With --trace 1 the
trace-event JSON of the traced run is written under
.bench_build/uasim-perf/traces/. The exit code is uasim_perf's: 0 only
when every output check passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "uasim-perf")


def build(target):
    """Configure (once) and build @target; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "sweep.hh")):
        sys.exit("uasim-perf: no uasim source tree next to the benchmark")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            sys.exit("uasim-perf: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--write-digest", action="store_true",
                   help="rewrite the committed digest (default seed only)")
    a = p.parse_args()

    binary = build("uasim_perf")
    cmd = [binary, "--workload", a.workload, "--seed", a.seed,
           "--seconds", a.seconds, "--trace", a.trace]
    if a.write_digest:
        cmd.append("--write-digest")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
