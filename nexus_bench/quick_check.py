#!/usr/bin/env python3
"""Smoke test of the full-stack benchmark (ctest label `bench`).

    quick_check.py NEXUS_BENCH TRACE_CHECK BENCHMARK_JSON WORKDIR

Runs every workload with --quick sizes twice, untraced and traced, with
the same seed, and requires:
  * exit 0 and "correct": true (every read-back byte-identical),
  * every BENCHMARK.json metric present with a numeric value,
  * identical counts between the two runs (the probes are transparent),
  * bench.unattributed_s at most 5% of the traced run's timed wall time,
  * trace_check accepting the traced run's Chrome trace.
"""
import json
import os
import subprocess
import sys

UNATTRIBUTED_LIMIT = 0.05


def run(binary, workload, trace, trace_out=None):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", trace, "--quick"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError("%s trace=%s exited %d: %s" % (
            workload, trace, proc.returncode, proc.stderr.strip()))
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_metrics(result, specs, what):
    for spec in specs:
        value = result["metrics"].get(spec["name"], {}).get("value")
        if not isinstance(value, (int, float)):
            raise AssertionError("%s: metric %s missing" % (what, spec["name"]))
        if result["metrics"][spec["name"]]["unit"] != spec["unit"]:
            raise AssertionError("%s: metric %s has the wrong unit" % (what, spec["name"]))


def main():
    binary, trace_check, bench_json, workdir = sys.argv[1:5]
    with open(bench_json) as f:
        bench = json.load(f)
    os.makedirs(workdir, exist_ok=True)
    for workload in [w["name"] for w in bench["workloads"]]:
        plain_report, plain = run(binary, workload, "0")
        trace_file = os.path.join(workdir, "trace-%s.json" % workload)
        traced_report, traced = run(binary, workload, "1", trace_file)
        for result, what in ((plain, "untraced"), (traced, "traced")):
            if not result["correct"] or result["failed"] != 0:
                raise AssertionError("%s %s: incorrect output" % (workload, what))
        check_metrics(plain, bench["end_to_end"], workload + " untraced")
        check_metrics(traced, bench["per_layer"], workload + " traced")
        if plain_report["counts"] != traced_report["counts"]:
            diff = {k: (v, traced_report["counts"].get(k))
                    for k, v in plain_report["counts"].items()
                    if traced_report["counts"].get(k) != v}
            raise AssertionError("%s: probes changed counts %s" % (workload, diff))
        share = (traced["metrics"]["bench.unattributed_s"]["value"] /
                 traced_report["timed_s"])
        if share > UNATTRIBUTED_LIMIT:
            raise AssertionError("%s: unattributed %.1f%% of wall" % (workload, 100 * share))
        subprocess.run([trace_check, trace_file], check=True,
                       stdout=subprocess.DEVNULL)
        print("%s: ok (unattributed %.2f%%)" % (workload, 100 * share))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, subprocess.CalledProcessError) as e:
        print("FAIL: %s" % e, file=sys.stderr)
        sys.exit(1)
