#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the SIFT libraries and the perfbench
binary from source into .bench_build/perfbench (first run only), runs one
workload, checks the result line against BENCHMARK.json and prints it as
the last line of stdout. Exits non-zero, without a result line, when the
build fails or the sources are missing, and non-zero with "correct": false
when a correctness check fails. See perfbench/README.md for the workloads
and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("fleet-inproc", "gateway-durable", "cohort-train")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def checkout_env():
    """Environment that keeps compiler temporaries inside the checkout."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no SIFT sources under %s/src; nothing to benchmark" % ROOT)
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = checkout_env()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               env=env) != 0:
                log("build failed: %s (see %s)" % (" ".join(cmd), log_path))
                return False
    return os.path.isfile(BINARY)


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 2
    scratch = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.relpath(scratch, ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True,
                              env=checkout_env())
    except subprocess.TimeoutExpired:
        log("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        log("perfbench printed no result (exit %d)" % proc.returncode)
        return proc.returncode or 4
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("unparseable result line: %r" % lines[-1])
        return 4
    for line in lines[:-1]:
        print(line)
    if result.get("correct") is True and proc.returncode == 0:
        want = expected_metrics(args.trace == 1)
        have = list(result["metrics"])
        if sorted(want) != sorted(have):
            log("metric set differs from BENCHMARK.json: missing %s, extra %s"
                % (sorted(set(want) - set(have)), sorted(set(have) - set(want))))
            result = {"correct": False, "attempted": result["attempted"],
                      "failed": result["attempted"], "metrics": {}}
            print(json.dumps(result))
            return 5
    print(json.dumps(result))
    if result.get("correct") is not True:
        return proc.returncode or 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
