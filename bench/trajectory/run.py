#!/usr/bin/env python3
"""Runs one workload of the trajectory benchmark and prints its result.

    python3 bench/trajectory/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds bench_trajectory from the checkout's own sources into .bench_build/
(the first run configures and compiles; later runs reuse the build), runs
the workload in a process of its own, and prints as the last line of
standard output one JSON object:

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}

holding BENCHMARK.json's end_to_end metrics with --trace 0 and its per_layer
metrics with --trace 1. The full output file, with host, seed, options,
sample counts and guards, stays under .bench_build/trajectory-out/.

    python3 bench/trajectory/run.py --smoke [--binary PATH] [--workdir DIR]

runs every workload at tiny scale for about a second, untraced and traced,
with the correctness gate and workload guards on, and fails if any metric
BENCHMARK.json names is missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "trajectory")
OUT_DIR = os.path.join(BUILD_ROOT, "trajectory-out")
# Exit status of bench_trajectory when the correctness gate or a guard fails.
GATE_FAILED = 3


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and compiles bench_trajectory; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "bench", "trajectory"),
             "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs,
         "--target", "bench_trajectory"],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "bench_trajectory")


def source_rev():
    """A content hash of the code the benchmark builds and runs.

    Needs no git metadata. Documentation and reference outputs are left out,
    so a reference run can record the revision it belongs to.
    """
    paths = [os.path.join(ROOT, "bench", "bench_common.h")]
    for top in ("src", os.path.join("bench", "trajectory")):
        for dirpath, _, filenames in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(dirpath, name) for name in filenames
                      if name.endswith((".cc", ".h", ".py", ".txt"))]
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def run_workload(binary, workload, seed, seconds, trace, out, data_dir,
                 timeout, smoke=False, rev="unknown"):
    """Runs one workload; returns the process exit status."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--out=" + out, "--dir=" + data_dir,
           "--rev=" + rev]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log("%s timed out after %.0f s" % (workload, timeout))
        return 124
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def pick_metrics(result, section, spec):
    """The result line's metrics: every metric BENCHMARK.json lists in
    `section`, taken by name from the output file."""
    values = result["metrics"]
    names_units = [(m["name"], m["unit"]) for m in spec[section]]
    missing = [n for n, _ in names_units if n not in values]
    if missing:
        raise KeyError("missing %s metrics: %s" % (section, ", ".join(missing)))
    return {n: {"value": values[n], "unit": u} for n, u in names_units}


def smoke(args, spec):
    binary = args.binary or build()
    workdir = args.workdir or os.path.join(BUILD_ROOT, "trajectory-smoke")
    os.makedirs(workdir, exist_ok=True)
    ok = True
    for w in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = os.path.join(workdir, "%s-trace%d.json" % (w["name"], trace))
            status = run_workload(binary, w["name"], 1, 1, trace, out,
                                  os.path.join(workdir, "data"), timeout=170,
                                  smoke=True)
            if status != 0:
                log("%s trace=%d exited %d" % (w["name"], trace, status))
                ok = False
                continue
            with open(out) as f:
                result = json.load(f)
            try:
                pick_metrics(result, section, spec)
            except KeyError as e:
                log("%s trace=%d: %s" % (w["name"], trace, e))
                ok = False
                continue
            log("%s trace=%d ok" % (w["name"], trace))
    return 0 if ok else 1


def main():
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--binary", help="use this bench_trajectory, do not build")
    p.add_argument("--workdir", help="smoke output directory")
    args = p.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the library sources (src/) are not in this checkout")
        return 2
    spec = load_spec()
    if args.smoke:
        return smoke(args, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("--workload must be one of: " + ", ".join(names))
        return 2
    seconds = args.seconds or spec["run_seconds"]

    # A whole run stays under 180 s, or 900 s when it also builds; the
    # workload process gets what is left after the build, less a margin.
    first = not os.path.exists(os.path.join(BUILD_DIR, "bench_trajectory"))
    binary = args.binary or build()
    timeout = (890 if first else 175) - (time.monotonic() - start)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out = os.path.join(OUT_DIR, tag + ".json")
    for stale in (out, out + ".trace.json"):
        if os.path.exists(stale):
            os.remove(stale)
    data_dir = os.path.join(BUILD_ROOT, "trajectory-data-%d" % os.getpid())
    status = run_workload(binary, args.workload, args.seed, seconds,
                          args.trace, out, data_dir, timeout,
                          rev=source_rev())
    if status == GATE_FAILED and os.path.exists(out):
        # A failure after the timed phase; the file holds its op counts.
        with open(out) as f:
            result = json.load(f)
        log("correctness check failed: " + result["why"])
        print(json.dumps({"correct": False,
                          "attempted": int(result["attempted"]),
                          "failed": int(result["failed"]),
                          "metrics": {}}))
        return 1
    if status != 0:
        log("bench_trajectory exited %d" % status)
        return 1
    with open(out) as f:
        result = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = pick_metrics(result, section, spec)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
