#!/usr/bin/env python3
"""UPMBench entry point.

    python3 upmbench/run.py --workload serve|uvm_oversub|rodinia \
        --seed N --seconds S --trace 0|1

Builds the harness binary (and libupm from ../src) into .bench_build/upmbench
on first use, runs one workload, and prints the harness's output with
the last line rewritten as the result object: every end-to-end metric
(--trace 0) or every per-layer metric (--trace 1) of BENCHMARK.json,
each with its unit. A per-layer metric of a layer the workload does
not drive reads 0. Exits non-zero, printing no result, if the build,
the run or the metric set is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "upmbench")
EXE = os.path.join(BUILD, "upmbench")

# Layers (metric-name prefixes) each workload drives.
LAYERS = {
    "serve": {"serve", "core", "hip", "audit", "mem", "sched", "trace",
              "bench"},
    "uvm_oversub": {"uvm", "policy", "trace", "bench"},
    "rodinia": {"core", "hip", "mem", "sched", "workloads", "exec",
                "trace", "bench"},
}

RUN_TIMEOUT_S = 170


def fail(msg):
    print("upmbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "upmbench"])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(LAYERS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--break", dest="break_", action="store_true",
                    help="test hook: violate one invariant per pass")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.json" % (args.workload, args.seed))]
    if args.break_:
        cmd.append("--break")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("harness exited with %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("harness printed no result line")

    measured = result["metrics"]
    layers = LAYERS[args.workload]
    names = {m["name"] for m in wanted}
    extra = sorted(set(measured) - names)
    if extra:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(extra))
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in measured:
            value = measured[name]
        elif args.trace and name.split(".")[0] not in layers:
            value = 0  # a layer this workload does not drive
        else:
            fail("harness did not report " + name)
        metrics[name] = {"value": value, "unit": m["unit"]}

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
