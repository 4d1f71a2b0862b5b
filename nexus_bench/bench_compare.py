#!/usr/bin/env python3
"""Compares result sets of the full-stack benchmark.

    python3 nexus_bench/bench_compare.py A [B] [--json OUT]

A and B are directories of run outputs (collect.py writes them; each file
is one run's stdout). For every workload x end-to-end metric the script
prints the median and quartiles of each set and the spread (quartile
distance over median). With B it also prints B's change against A and
flags it when B is worse by more than the metric's BENCHMARK.json bound,
and flags a metric as NOISY when its spread in either set exceeds its
bound. Raw throughput, latency percentiles and MiB/s from the report
line are printed the same way but not gated: op_time_rtt is the gated
wall-clock figure, taken against the host-speed reference, and on a
shared host the raw figures spread too widely for a bound, so a change
in them alone is unresolved.

Counts of the counted round (the report line's "counts") are a function
of the seed. For every seed run in both sets, B's counts must equal A's
exactly. Counts that repeat across every run of A (at least 5 runs) are
marked seed-independent, and every run of B must reproduce those too.

Traced runs in A (collect.py --trace 0,1 interleaves them with untraced
ones) are summarised apart: their per-layer medians, the probe overhead
on throughput (the median, over seeds, of each traced run against the
untraced run of its seed, both taken against the host-speed reference),
and bench.unattributed_s as a share of timed wall time. --json writes all of it to OUT. Exits 1 on any
regression or count drift.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_DETERMINISM_RUNS = 5


def load(directory):
    """({workload: [(report, result)]} untraced, the same for traced)."""
    runs = ({}, {})
    for path in sorted(glob.glob(os.path.join(directory, "*.txt"))):
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.startswith("{")]
        if len(lines) < 2:
            sys.exit("%s: no result line" % path)
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit("%s: run reported incorrect output" % path)
        config = report["config"]
        runs[1 if config["trace"] else 0].setdefault(config["workload"], []).append(
            (report, result))
    return runs


def summary(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0], values[0], values[0]))
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}


def metric_values(runs, name):
    return [r["metrics"][name]["value"] for _, r in runs if name in r["metrics"]]


# Ungated figures from the report line: (label, key path, better).
REPORT_FIGURES = [("ops_per_s", ("ops_per_s",), "higher"),
                  ("ref_rtt_us", ("ref_rtt_us",), "lower"),
                  ("write_p50_ms", ("latency", "write_p50_ms"), "lower"),
                  ("write_mib_s", ("latency", "write_mib_s"), "higher"),
                  ("read_p50_ms", ("latency", "read_p50_ms"), "lower"),
                  ("read_mib_s", ("latency", "read_mib_s"), "higher")]


def report_values(runs, path):
    values = []
    for rep, _ in runs:
        for key in path:
            rep = rep[key]
        values.append(rep)
    return values


def seed_independent_counts(runs):
    if len(runs) < MIN_DETERMINISM_RUNS:
        return {}
    first = runs[0][0]["counts"]
    return {k: v for k, v in first.items()
            if all(rep["counts"].get(k) == v for rep, _ in runs)}


def count_drift(runs_a, runs_b):
    """Counts of B that differ from A's for the same seed, or from A's
    seed-independent value."""
    by_seed = {rep["config"]["seed"]: rep["counts"] for rep, _ in runs_a}
    fixed = seed_independent_counts(runs_a)
    drift = set()
    for rep, _ in runs_b:
        expected = dict(fixed)
        expected.update(by_seed.get(rep["config"]["seed"], {}))
        drift |= {"seed %s %s: %s != %s" % (rep["config"]["seed"], k,
                                            rep["counts"].get(k), v)
                  for k, v in expected.items() if rep["counts"].get(k) != v}
    return sorted(drift)


def fmt(s):
    if s is None:
        return "%-34s" % "-"
    return "%-34s" % ("%.4g [%.4g, %.4g] %4.1f%%" %
                      (s["median"], s["q1"], s["q3"], 100 * s["spread"]))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("a")
    parser.add_argument("b", nargs="?")
    parser.add_argument("--json")
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)

    set_a, traced = load(args.a)
    set_b = load(args.b)[0] if args.b else {}
    problems = []
    out = {"end_to_end": {}, "report_figures": {}, "seed_independent_counts": {},
           "traced": {}}

    print("%-8s %-20s %-34s %-34s %s" % ("workload", "metric",
          "A median [q1, q3] spread", "B median [q1, q3] spread", "change"))
    for w in [x["name"] for x in bench["workloads"]]:
        for m in bench["end_to_end"]:
            sa = summary(metric_values(set_a.get(w, []), m["name"]))
            sb = summary(metric_values(set_b.get(w, []), m["name"])) if args.b else None
            note = ""
            if sa and sb:
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * (sb["median"] - sa["median"]) / sa["median"]
                note = "%+.1f%% worse" % (100 * worse) if worse > 0 else \
                       "%.1f%% better" % (-100 * worse)
                if worse > m["bound"]:
                    note += "  REGRESSION (bound %g)" % m["bound"]
                    problems.append("%s %s" % (w, m["name"]))
            for s in (sa, sb):
                if s and s["spread"] > m["bound"]:
                    note += "  NOISY (spread > bound %g)" % m["bound"]
                    break
            print("%-8s %-20s %s %s %s" % (w, m["name"], fmt(sa), fmt(sb), note))
            out["end_to_end"].setdefault(w, {})[m["name"]] = {"a": sa, "b": sb}
        for label, path, better in REPORT_FIGURES:
            va = [v for v in report_values(set_a.get(w, []), path) if v is not None]
            vb = [v for v in report_values(set_b.get(w, []), path) if v is not None]
            sa, sb = summary(va), summary(vb)
            if sa and sa["median"]:
                # Unresolved unless every run of B lies on one side of A.
                worse = vb and ((min(vb) > max(va)) if better == "lower"
                                else (max(vb) < min(va)))
                note = "  worse in every run" if worse else ""
                print("%-8s %-20s %s %s (not gated)%s" % (w, label, fmt(sa), fmt(sb), note))
                out["report_figures"].setdefault(w, {})[label] = {"a": sa, "b": sb}

    for w, runs in sorted(set_a.items()):
        fixed = seed_independent_counts(runs)
        out["seed_independent_counts"][w] = fixed
        seeds_a = {rep["config"]["seed"] for rep, _ in runs}
        paired = sum(rep["config"]["seed"] in seeds_a for rep, _ in set_b.get(w, []))
        drift = count_drift(runs, set_b.get(w, []))
        print("%-8s %d of %d counts seed-independent; %d runs of B paired by seed%s" % (
            w, len(fixed), len(runs[0][0]["counts"]), paired,
            ("; DRIFT in B: " + "; ".join(drift)) if drift else ""))
        if drift:
            problems.append("%s counts" % w)

    if traced:
        for w, runs in sorted(traced.items()):
            layer = {m["name"]: summary(metric_values(runs, m["name"]))
                     for m in bench["per_layer"]}
            # Each traced run against the untraced run of its seed, which
            # collect.py ran just before it, both in reference round trips
            # per op, so drift of the host cancels.
            def op_rtts(rep):
                return rep["op_time_ms"] * 1e3 / rep["ref_rtt_us"]
            untraced = {rep["config"]["seed"]: op_rtts(rep)
                        for rep, _ in set_a.get(w, [])}
            pairs = [1 - untraced[rep["config"]["seed"]] / op_rtts(rep)
                     for rep, _ in runs if rep["config"]["seed"] in untraced]
            overhead = statistics.median(pairs) if pairs else None
            unattributed = statistics.median(
                [r["metrics"]["bench.unattributed_s"]["value"] / rep["timed_s"]
                 for rep, r in runs])
            print("\n%s traced (%d runs): probe overhead on throughput %s, "
                  "unattributed %.2f%% of timed wall" % (
                      w, len(runs),
                      "%.1f%% (pairs %s)" % (100 * overhead, " ".join(
                          "%+.1f%%" % (100 * p) for p in pairs))
                      if overhead is not None else "n/a",
                      100 * unattributed))
            for name, s in layer.items():
                if s is not None:
                    print("  %-38s %.6g" % (name, s["median"]))
            out["traced"][w] = {
                "runs": len(runs),
                "probe_overhead": overhead,
                "probe_overhead_pairs": pairs,
                "unattributed_share_of_wall": unattributed,
                "per_layer_median": {k: (s["median"] if s else None)
                                     for k, s in layer.items()},
                "config": runs[0][0]["config"],
            }

    if args.json:
        with open(args.json, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")
    if problems:
        print("\nFAIL: " + ", ".join(problems))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
