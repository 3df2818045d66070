#!/usr/bin/env python3
"""End-to-end benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds perfbench/ (which compiles the
library under src/) into .bench_build/perfbench, runs one workload in a
child process with a pinned environment, checks that every metric named in
BENCHMARK.json was reported with its unit, and prints as its last line one
JSON object {"correct", "attempted", "failed", "metrics"}.  Untraced runs
report the end-to-end metrics, traced runs the per-layer ones; traced runs
also write their spans to .bench_build/traces/.  Exits non-zero, without a
result line, when the build, the run or the metric check fails, and with
the result line but a non-zero code when an output check failed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# Thread count per workload (BOLT_CPU_THREADS).  Results are comparable
# only at the same ISA tier, thread count and host.
THREADS = {"resnet18_b1": "2", "resnet18_tune": "2", "mlp_serve": "1"}
# Knobs that would move a run off the defaults being measured.
UNSET_ENV = ("BOLT_CPU_ISA", "BOLT_CPU_BACKEND", "BOLT_CPU_PACK", "BOLT_TRACE",
             "BOLT_DIFF_SUMMARY")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                log("build step failed: " + " ".join(cmd))
                return False
    return os.path.exists(BINARY)


def source_id():
    """The commit when this is a git checkout, else a hash of the sources."""
    # Only a .git here counts: git would otherwise report a repository
    # that merely contains this directory.
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=10)
            if r.returncode == 0 and r.stdout.strip():
                return r.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # mlp_serve is runnable but not in BENCHMARK.json: on a shared host
    # its tail latencies follow the hypervisor's steal time (README.md).
    if args.workload not in THREADS:
        log("unknown workload %r (have %s)" % (args.workload, list(THREADS)))
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if not build():
        return 1

    env = dict(os.environ)
    for key in UNSET_ENV:
        env.pop(key, None)
    env["BOLT_CPU_THREADS"] = THREADS[args.workload]
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    t0 = time.monotonic()
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log("run failed with code %d" % r.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last output line is not JSON: " + lines[-1][:200])
        return 1

    got = result["metrics"]
    metrics = {}
    for m in wanted:
        entry = got.pop(m["name"], None)
        if entry is None or entry["unit"] != m["unit"]:
            log("metric %s missing or not in %s" % (m["name"], m["unit"]))
            return 1
        metrics[m["name"]] = entry
    for line in lines[:-1]:
        print(line)
    if got:
        print("# extra " + json.dumps(got, sort_keys=True))
    print("# wall_s %.1f" % (time.monotonic() - t0))
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
