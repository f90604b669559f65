#!/usr/bin/env python3
"""Build the tts sources out of tree and run one benchmark workload.

    python3 perfbench/run.py --workload fleet-2day|design-search|serve-mix
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The first run configures and builds
perfbench/CMakeLists.txt into .bench_build/perfbench (Release, Ninja
when available); later runs only let the build tool confirm that the
tree is current.  Build output goes to stderr, so the last line of
stdout is always the workload's JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

BENCHMARK.json is the one list of metrics: every metric the binary
prints must be named there with the same unit, --trace 0 must print
every end-to-end metric, and --trace 1 prints every per-layer metric,
a layer the workload does not exercise reading 0.

The workload binary runs in its own process group; if it overruns its
time limit the whole group (the serve-mix daemon included) is killed
and the run fails without printing a result.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "run")
WORKLOADS = ("fleet-2day", "design-search", "serve-mix")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no tts sources under {ROOT}/src; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=sys.stderr) != 0:
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=sys.stderr) != 0:
            fail("build failed")


def declared_metrics(trace):
    """{name: unit} of BENCHMARK.json's metrics for this mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="show every output check failing on a "
                        "perturbed value, then exit")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")

    os.chdir(ROOT)
    build()
    binary = os.path.join(BUILD, "perfbench")
    if args.selftest:
        sys.exit(subprocess.call([binary, "--selftest"]))

    declared = declared_metrics(args.trace)
    os.makedirs(RUN_DIR, exist_ok=True)
    proc = subprocess.Popen(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--run-dir", RUN_DIR,
         "--serve-bin", os.path.join(BUILD, "tts_serve")],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} overran {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{args.workload} printed a malformed result")
    metrics = result["metrics"]
    for name, m in metrics.items():
        if declared.get(name) != m["unit"]:
            fail(f"{args.workload} printed {name} [{m['unit']}], "
                 "which BENCHMARK.json does not declare for this mode")
    for name, unit in declared.items():
        if name not in metrics:
            if not args.trace:
                fail(f"{args.workload} did not measure {name}")
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in declared}
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
