#!/usr/bin/env python3
"""Short-mode self-test of the benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload for a few seconds, untraced and traced, and checks:
the result line has exactly the contract's keys; every metric named in
BENCHMARK.json is reported with its unit; the output checks ran and
passed; in the traced run, the layer self times of each request, recomputed
here from the written spans, add up to the request's wall time; and the
counts that should be deterministic repeat exactly across two traced runs.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
SEED = 7
DETERMINISTIC = ("bolt.run.splitk_convs", "bolt.graph.nodes",
                 "cpukernels.launches_per_run", "device.sim_latency_us",
                 "profiler.sim_tune_s")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# The tracked workloads plus mlp_serve, which run.py keeps runnable.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["mlp_serve"]


def run(workload, trace, seed=SEED):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    return r.returncode, lines


def self_times(spans):
    """Self time per layer, recomputed independently of the C++ code."""
    by_id = {s["id"]: s for s in spans}
    covered = {s["id"]: [] for s in spans}
    for s in spans:
        p = by_id.get(s["parent"])
        if p is not None:
            lo = max(s["start_us"], p["start_us"])
            hi = min(s["end_us"], p["end_us"])
            if hi > lo:
                covered[p["id"]].append((lo, hi))
    out = {}
    for s in spans:
        union, end = 0.0, float("-inf")
        for lo, hi in sorted(covered[s["id"]]):
            lo = max(lo, end)
            if hi > lo:
                union += hi - lo
                end = hi
        layer = s["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + max(
            0.0, s["end_us"] - s["start_us"] - union)
    return out


class BenchmarkTest(unittest.TestCase):
    def check_result(self, workload, trace):
        code, lines = run(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines[-5:]))
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        stamp = [l for l in lines if l.startswith("# env ")]
        self.assertEqual(len(stamp), 1)
        env = json.loads(stamp[0][len("# env "):])
        for key in ("isa", "cpu_threads", "nproc", "l1_bytes", "l2_bytes",
                    "l3_bytes", "commit", "seed"):
            self.assertIn(key, env)
        return result

    def check_spans(self, workload):
        path = os.path.join(ROOT, ".bench_build", "traces",
                            "%s-seed%d.json" % (workload, SEED))
        with open(path) as f:
            spans = json.load(f)["spans"]
        requests = {}
        for s in spans:
            requests.setdefault(s["request"], []).append(s)
        self.assertGreater(len(requests), 0)
        for rid, rs in requests.items():
            wall = sum(s["end_us"] - s["start_us"] for s in rs
                       if s["parent"] < 0)
            total = sum(self_times(rs).values())
            self.assertLessEqual(abs(total - wall), 0.03 * wall,
                                 "request %d" % rid)

    def test_untraced_workloads(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_result(w, 0)

    def test_traced_workloads(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result = self.check_result(w, 1)
                self.check_spans(w)
                self.assertLess(result["metrics"]["trace.self_sum_err"]
                                ["value"], 0.03)

    def test_deterministic_counts_repeat(self):
        first = self.check_result("resnet18_b1", 1)["metrics"]
        second = self.check_result("resnet18_b1", 1)["metrics"]
        for name in DETERMINISTIC:
            self.assertEqual(first[name]["value"], second[name]["value"],
                             name)


if __name__ == "__main__":
    unittest.main()
