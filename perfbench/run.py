#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve_step1 --seed 1 --seconds 20 \\
        --trace 0
    python3 perfbench/run.py --selftest

Configures perfbench/CMakeLists.txt in Release into .bench_build (or
$CARGO_TARGET_DIR when set), builds rpe_cli and the perfbench program, and
runs it. Its stdout is passed through; the last line is the result JSON,
which this script checks against BENCHMARK.json (exactly the end-to-end
metrics with --trace 0, exactly the per-layer ones with --trace 1) before
exiting 0. Build output goes to stderr, and temporary files stay in the
build directory. Any failure (missing sources, build error, failed output
check, malformed result) exits non-zero without a result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir, env):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("repository sources (CMakeLists.txt, src/) not found next to "
             "perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "rpe_cli", "perfbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def check_result(line, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON: " + line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are " + str(sorted(result)))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    if sorted(result["metrics"]) != sorted(units):
        fail("result metrics differ from BENCHMARK.json: "
             + str(sorted(result["metrics"])))
    for name, metric in result["metrics"].items():
        if metric.get("unit") != units[name]:
            fail("unit of " + name + " differs from BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    build(build_dir, env)
    program = os.path.join(build_dir, "perfbench")
    if args.selftest:
        sys.exit(subprocess.run([program, "--selftest"], env=env).returncode)

    log_dir = os.path.join(build_dir, "perfbench_logs")
    os.makedirs(log_dir, exist_ok=True)
    cmd = [
        program,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cli", os.path.join(build_dir, "rpe", "rpe_cli"),
        "--log-dir", log_dir,
        "--digest-file", os.path.join(HERE, args.workload + ".digest"),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          env=env)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("perfbench exited with code %d" % proc.returncode)
    check_result(proc.stdout.rstrip("\n").split("\n")[-1], args.trace == 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
