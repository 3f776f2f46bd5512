#!/usr/bin/env python3
"""Tests of UPMBench itself, at minimum run length.

    python3 upmbench/tests/test_upmbench.py

Each test drives upmbench/run.py the way an automated runner would and
checks the result contract: every metric of BENCHMARK.json with its
unit, working failure accounting, seed semantics, and equal simulated
digests with and without tracing. The first run builds the harness.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("serve", "uvm_oversub", "rodinia")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

_cache = {}


def run(workload, seed=1, trace=0, broken=False, cwd=ROOT):
    """Run once per argument set; returns (returncode, stdout)."""
    key = (workload, seed, trace, broken, cwd)
    if key not in _cache:
        cmd = [sys.executable, RUN, "--workload", workload, "--seed",
               str(seed), "--seconds", "1", "--trace", str(trace)]
        if broken:
            cmd.append("--break")
        p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=900)
        _cache[key] = (p.returncode, p.stdout)
    return _cache[key]


def result(workload, **kw):
    code, out = run(workload, **kw)
    assert code == 0, "run failed: %s %s" % (workload, kw)
    return json.loads(out.strip().split("\n")[-1])


def digest(workload, **kw):
    code, out = run(workload, **kw)
    assert code == 0
    for line in out.split("\n"):
        if line.startswith("sim_digest: "):
            return line.split()[2]
    raise AssertionError("no sim_digest line")


class ContractTest(unittest.TestCase):
    def test_every_metric_with_unit_for_each_workload(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    r = result(w, trace=trace)
                    self.assertEqual(set(r), {"correct", "attempted",
                                              "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for k, v in r["metrics"].items():
                            self.assertGreater(v["value"], 0, k)

    def test_violated_invariant_counts_as_failed_op(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = result(w, broken=True)
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)
                self.assertLessEqual(r["failed"], r["attempted"])

    def test_seed_changes_outputs_not_metric_set(self):
        for w in ("serve", "uvm_oversub"):
            with self.subTest(workload=w):
                self.assertNotEqual(digest(w, seed=1), digest(w, seed=2))
                self.assertEqual(set(result(w, seed=1)["metrics"]),
                                 set(result(w, seed=2)["metrics"]))
        # The Rodinia ports fix their own inputs: the seed is ignored.
        self.assertEqual(digest("rodinia", seed=1),
                         digest("rodinia", seed=2))

    def test_traced_and_untraced_digests_match(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(digest(w, trace=0), digest(w, trace=1))

    def test_traced_counters(self):
        serve = {k: v["value"]
                 for k, v in result("serve", trace=1)["metrics"].items()}
        self.assertEqual(serve["audit.violations"], 0)
        self.assertGreater(serve["audit.share"], 0)
        uvm = {k: v["value"]
               for k, v in result("uvm_oversub", trace=1)["metrics"].items()}
        self.assertGreater(uvm["policy.ops"], 0)
        self.assertGreater(uvm["uvm.evictions"], 0)
        rod = {k: v["value"]
               for k, v in result("rodinia", trace=1)["metrics"].items()}
        self.assertEqual(rod["workloads.checksum_ok"], 7)

    def test_without_sources_fails_without_result(self):
        # Only BENCHMARK.json and the benchmark's own directory.
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "upmbench"))
        p = subprocess.run(
            [sys.executable, "upmbench/run.py", "--workload", "serve",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn("\"metrics\"", p.stdout)


if __name__ == "__main__":
    unittest.main()
