#!/usr/bin/env python3
"""Sum a gprof flat profile by simulator layer.

    gprof -b -p <binary> gmon.out | python3 perfbench/gprof_layers.py

A function belongs to the layer of the first hc3i namespace in its name
(so std::vector<hc3i::proto::ClcRecord>::... is proto): sim, net, core
(reported as hc3i), proto, storage, fault, batch, driver, obs, and the
modules the harness does not attribute (app, fed, stats, config, util).
Functions of the harness itself are "perfbench"; everything else (libc,
libstdc++ internals) is "other".  Prints each layer's share of the
simulator's self time, largest first: the harness's own time (above all its
reference kernel, which an untraced run calls around every pass) is printed
on a line of its own and left out of the shares.
"""

import re
import sys

NAMESPACE = re.compile(r"hc3i::([a-z_]+)::")
RENAME = {"core": "hc3i"}
MODULES = {"sim", "net", "core", "proto", "storage", "fault", "batch",
           "driver", "obs", "app", "fed", "stats", "config", "baselines"}


def layer_of(name):
    if "perfbench::" in name:
        return "perfbench"
    m = NAMESPACE.search(name)
    if m and m.group(1) in MODULES:
        return RENAME.get(m.group(1), m.group(1))
    if "hc3i::" in name:
        return "util"
    return "other"


def main():
    totals = {}
    for line in sys.stdin:
        fields = line.split(None, 3)
        if len(fields) < 4:
            continue
        try:
            float(fields[0])
            self_s = float(fields[2])
        except ValueError:
            continue
        # Lines with call counts carry three more numeric columns.
        rest = fields[3].split(None, 3)
        name = rest[3] if len(rest) == 4 and rest[0].isdigit() else fields[3]
        layer = layer_of(name.strip())
        totals[layer] = totals.get(layer, 0.0) + self_s
    harness = totals.pop("perfbench", 0.0)
    total = sum(totals.values())
    if total <= 0:
        print("no samples", file=sys.stderr)
        return 1
    print("%-10s %9s %7s" % ("layer", "self_s", "share"))
    for layer, s in sorted(totals.items(), key=lambda kv: -kv[1]):
        print("%-10s %9.2f %6.1f%%" % (layer, s, 100.0 * s / total))
    print("%-10s %9.2f  (harness, not in the shares)" % ("perfbench", harness))
    return 0


if __name__ == "__main__":
    sys.exit(main())
