#!/usr/bin/env python3
"""Builds and runs the full-stack NEXUS benchmark.

    python3 nexus_bench/run.py --workload clone|bigfile|db|rescan \
        --seed N --seconds S --trace 0|1 [--quick] [--trace-out PATH]

Run from the repository root. The first call configures and builds
nexus_bench, nexusd and trace_check (Release) under .bench_build/; later
calls rebuild only what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. A traced run writes its
Chrome trace beside the build unless --trace-out names a path. Exits
non-zero, without a result, when the repository's sources are missing or
the build fails.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "nexus_bench")


def build():
    """Configures (once) and builds the bench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no src/ beside nexus_bench/; nothing to build",
              file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return None
    if subprocess.call(["cmake", "--build", BUILD, "--target", "nexus_bench",
                        "-j", "4"], stdout=sys.stderr) != 0:
        return None
    return os.path.join(BUILD, "nexus_bench")


def source_digest():
    """Identifies the code under test by a hash of src/, which works in a
    checkout without .git as well as in a repository with local edits."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    binary = build()
    if binary is None:
        return 1
    args = sys.argv[1:]
    if "--trace-out" not in args and "--workload" in args[:-1]:
        workload = args[args.index("--workload") + 1]
        args += ["--trace-out", os.path.join(BUILD, "trace-%s.json" % workload)]
    sys.stdout.flush()
    return subprocess.call([binary, "--commit", source_digest()] + args)


if __name__ == "__main__":
    sys.exit(main())
