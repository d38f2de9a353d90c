#!/usr/bin/env python3
"""Build the HC3I benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload ring_10x100 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The harness (perfbench/CMakeLists.txt)
compiles the library sources under src/ into .bench_build/perfbench; the
first call configures and builds, later calls rebuild only what changed.
The harness prints one line per metric and, as its last line, the JSON
result object.  With --trace 1 it also writes its host-time spans to
.bench_build/perfbench/spans-<workload>-seed<n>.json.

Exit status: the harness's, or 1 when the build fails (for instance in a
directory that holds the benchmark but not the simulator sources).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configure once, then build; returns False on any failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", BUILD, "--target", "hc3i_perfbench",
                   "-j", "4"]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "hc3i_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans-out", os.path.join(
            BUILD, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
