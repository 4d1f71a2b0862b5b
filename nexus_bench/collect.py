#!/usr/bin/env python3
"""Runs the benchmark over several seeds and keeps every run's output.

    python3 nexus_bench/collect.py --out DIR [--seeds 1,2,3,4,5]
        [--workloads clone,db] [--seconds S] [--trace 0|1|0,1]

Each run's stdout lands in DIR/<workload>-seed<N>.txt (traced runs add
-trace); bench_compare.py reads those files. Workloads (and, with
--trace 0,1, untraced and traced runs) alternate within each seed, so
slow drift on a shared host spreads over all of them.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", choices=["0", "1", "0,1"], default="0")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    failures = 0
    for seed in args.seeds.split(","):
        for workload in args.workloads.split(","):
            for trace in args.trace.split(","):
                name = "%s-seed%s%s.txt" % (workload, seed,
                                            "-trace" if trace == "1" else "")
                cmd = ["python3", os.path.join(HERE, "run.py"), "--workload",
                       workload, "--seed", seed, "--seconds",
                       str(args.seconds), "--trace", trace]
                with open(os.path.join(args.out, name), "w") as out:
                    code = subprocess.call(cmd, stdout=out, cwd=ROOT)
                print("%s: exit %d" % (name, code), file=sys.stderr)
                failures += code != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
