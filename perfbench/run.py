#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload inproc_estimator --seed 7 \
        --seconds 15 --trace 0

`--workload all` runs the three workloads in turn.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and its output to stderr, so the last line of standard output is the
benchmark's JSON result. Exits non-zero when the build fails, the run fails
or the run overstays its time limit.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ["inproc_estimator", "tcp_fanout", "hot_ingest"]


def build():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, base, "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release", *generator],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "fra_perfbench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args:
        at = args.index("--workload") + 1
        if at < len(args) and args[at] == "all":
            runs = [args[:at] + [name] + args[at + 1:] for name in WORKLOADS]
    code = 0
    for run_args in runs:
        try:
            result = subprocess.run([binary, *run_args],
                                    timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            result = 1
        code = code or result
    return code

if __name__ == "__main__":
    sys.exit(main())
