#!/usr/bin/env python3
"""Checks nexus_bench's deterministic counts against a committed golden.

    python3 bench/check_counts.py GOLDEN DIR
    python3 bench/check_counts.py --update GOLDEN DIR

DIR holds one `untraced-<workload>.out` per workload: the stdout of

    python3 nexus_bench/run.py --workload <workload> --seed 1 --seconds 1 \
        --trace 0 --quick

The second-to-last line of that output is the benchmark's report; its
`counts` object holds the counted round's counts, a fixed unit of work,
so they repeat from run to run. Integers must match exactly and the
SimClock seconds (`*_sim_s`) to a relative 1e-9. Every difference is
printed as `workload layer.count: golden -> now`, so the layer that moved
is named. Exits 1 on any difference or missing output.

`--update` rewrites GOLDEN from DIR's outputs instead. A change that
means to move a count regenerates the file, so the diff shows the moved
layer.
"""
import json
import math
import os
import sys

WORKLOADS = ("clone", "bigfile", "db", "rescan")
SIM_SUFFIX = "_sim_s"
SIM_REL_TOL = 1e-9


def read_counts(path):
    """The `report.counts` object of one nexus_bench stdout capture."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("%s: fewer than two output lines" % path)
    return json.loads(lines[-2])["report"]["counts"]


def same(name, golden, now):
    if name.endswith(SIM_SUFFIX):
        return math.isclose(golden, now, rel_tol=SIM_REL_TOL, abs_tol=0.0)
    return type(golden) is type(now) and golden == now


def main(argv):
    update = "--update" in argv
    args = [a for a in argv if a != "--update"]
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    golden_path, out_dir = args

    def out_path(workload):
        return os.path.join(out_dir, "untraced-%s.out" % workload)

    if update:
        golden = {w: read_counts(out_path(w)) for w in WORKLOADS}
        with open(golden_path, "w") as f:
            json.dump(golden, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote %s" % golden_path)
        return 0

    with open(golden_path) as f:
        golden = json.load(f)
    diffs = []
    for workload, expected in sorted(golden.items()):
        try:
            counts = read_counts(out_path(workload))
        except (OSError, ValueError, KeyError) as err:
            diffs.append("%s: no counts (%s)" % (workload, err))
            continue
        for name in sorted(set(expected) | set(counts)):
            if name not in counts:
                diffs.append("%s %s: %r -> missing"
                             % (workload, name, expected[name]))
            elif name not in expected:
                diffs.append("%s %s: not in the golden -> %r"
                             % (workload, name, counts[name]))
            elif not same(name, expected[name], counts[name]):
                diffs.append("%s %s: %r -> %r"
                             % (workload, name, expected[name], counts[name]))
    for line in diffs:
        print(line)
    if diffs:
        print("%d count(s) differ from %s" % (len(diffs), golden_path))
        return 1
    print("every count matches %s (%d workloads)"
          % (golden_path, len(golden)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
