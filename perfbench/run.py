#!/usr/bin/env python3
"""Build and run the service benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Configures and builds perfbench/ (which
compiles the sintra libraries from src/) into the directory named by
CARGO_TARGET_DIR, or .bench_build when unset, then runs the benchmark
program and passes its output through.  The last line of standard output
is the program's JSON result; the exit status is the program's (non-zero
when an output failed its check), or 3 when the build or the run itself
fails.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(3)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", build_dir, "--target", "service_bench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "service_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.tsv")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as expired:
        partial = expired.stdout or ""
        if isinstance(partial, bytes):  # TimeoutExpired keeps raw bytes
            partial = partial.decode(errors="replace")
        sys.stdout.write(partial)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = result.stdout.rstrip("\n").splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    if result.returncode not in (0, 1) or not lines:
        fail(f"service_bench exited with status {result.returncode}")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("service_bench printed no JSON result")
    print(json.dumps(report))
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
