#!/usr/bin/env bash
# Cross-check of the harness's layer attribution against gprof.
#
#   bash perfbench/gprof_check.sh [workload] [seconds]
#
# Builds the harness with -pg in its own directory (.bench_build/perfbench-pg,
# nothing of the repository's build changes), runs one untraced (--trace 0)
# invocation of the workload (default ring_10x100) so the profile covers the
# simulations alone, and prints the profile's self time by layer.  Compare
# with the *.share_pct lines of `run.py --workload <w> --trace 1`; the last
# recorded comparison is in perfbench/README.md.
set -euo pipefail

workload=${1:-ring_10x100}
seconds=${2:-20}
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build/perfbench-pg"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPERFBENCH_GPROF=ON >&2
cmake --build "$build" --target hc3i_perfbench -j 4 >&2

run_dir="$build/run-$workload"
mkdir -p "$run_dir/bench"
# gmon.out lands in the working directory; the harness reads the goldens
# relative to it, so give it a copy of them.
cp "$root"/bench/golden_counters*.txt "$run_dir/bench/"
(cd "$run_dir" && "$build/hc3i_perfbench" --workload "$workload" --seed 1 \
    --seconds "$seconds" --trace 0 >&2)
gprof -b -p "$build/hc3i_perfbench" "$run_dir/gmon.out" |
    python3 "$here/gprof_layers.py"
