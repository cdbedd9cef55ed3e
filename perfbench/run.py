#!/usr/bin/env python3
"""Campaign benchmark of the AEDB-MLS reproduction: one command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds the
repository's libraries and the `perfbench` driver (perfbench/CMakeLists.txt)
into `.bench_build/`; later runs only re-check the build.  The driver binary
runs the workload for S seconds and writes its raw measurements; this script
checks the outputs, prints every metric with its unit, and ends with one
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
(see README.md).  `--record` stores the run's digests and work counters in
reference.json as the reference for its seed; `--corrupt-front` breaks one
front point to prove the checks fire.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, HERE)
import perfstats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("mls-d200", "moea-grid", "elastic-race")
SETUP_LAUNCHES = 41


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


def measure_setup(workload, seed, cache_dir, reps):
    """Seconds from process start until the first cell is dispatched, per
    launch of `perfbench --setup-only` (round 0 on the real path, ended at
    its first dispatch)."""
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        with subprocess.Popen([BINARY, "--setup-only", "--workload", workload,
                               "--seed", str(seed), "--cache-dir", cache_dir],
                              stdout=subprocess.PIPE) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - started)
            if child.wait() != 0 or line.strip() != b"dispatch":
                sys.exit("perfbench: the set-up probe failed")
    shutil.rmtree(cache_dir, ignore_errors=True)
    return times


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def record(raw):
    """Stores every round's digests and work counters for the run's seed."""
    table = load_json(REFERENCE) if os.path.exists(REFERENCE) else {}
    table.setdefault(raw["workload"], {})[str(raw["seed"])] = [
        perfstats.summary(r) for r in raw["rounds"] if not r["error"]]
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def report(raw, attempted, failed, notes):
    """Human-readable lines before the JSON result."""
    kernel = perfstats.median(raw["ref_kernel_ms"])
    wall = sum(r["wall_s"] for r in raw["rounds"])
    print("perfbench %s seed=%s trace=%s build=%s nproc=%s cpu=%r "
          "ref_kernel_ms=%.3f" % (raw["workload"], raw["seed"], raw["trace"],
                                  raw["build_type"], raw["nproc"],
                                  raw["cpu_model"], kernel))
    print("measured phase: %d rounds, %.2f s wall, %.2f s CPU (%.2f cores busy)" % (
        len(raw["rounds"]), wall, raw["phase_cpu_s"],
        raw["phase_cpu_s"] / wall if wall > 0 else 0.0))
    metrics, tail = perfstats.end_to_end(raw)
    label = "end-to-end (traced run; compare untraced for the overhead)" \
        if raw["trace"] else "end-to-end"
    print(label + ":")
    for name, value in metrics.items():
        extra = ""
        if name == "cell_s.p50":
            q1, _, q3 = perfstats.quartiles([c["wall_s"] for r in raw["rounds"]
                                             for c in r["cells"]])
            extra = "  (all cells' quartiles %.4g .. %.4g)" % (q1, q3)
        if name == "cell_s.tail":
            extra = "  (p%.1f of %d cells)" % (tail["percentile"], tail["cells"])
        if name == "setup_s":
            extra = "  (median of %d process launches)" % len(raw["setup_s"])
        print("  %-18s %14.6g %s%s" % (name, value, perfstats.END_TO_END_UNITS[name], extra))
    print("  %-18s %14.6g ratio  (%d of %d cells)" % (
        "cells_failed_frac", failed / attempted if attempted else 1.0, failed, attempted))
    first = raw["rounds"][0]
    if not first["error"]:
        work = perfstats.summary(first)["work"]
        work["net_msgs"] = first["messages"]
        work["net_bytes"] = first["bytes"]
        print("work in round 0 (seed %s): %s" % (first["seed"], " ".join(
            "%s=%s" % item for item in work.items())))
        print("digests of round 0: csv=%s fronts=%s" % (first["csv_digest"],
                                                        first["fronts_digest"]))
    for note in notes[:20]:
        print("note: " + note)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20130520)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--corrupt-front", action="store_true")
    args = parser.parse_args()

    build()
    os.makedirs(BUILD_DIR, exist_ok=True)
    tag = "%s-%d" % (args.workload, os.getpid())
    raw_path = os.path.join(BUILD_DIR, "raw-%s.json" % tag)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--raw", raw_path, "--cache-dir", os.path.join(BUILD_DIR, "cache-" + tag)]
    if args.corrupt_front:
        command.append("--corrupt-front")
    started = time.monotonic()
    setup_s = measure_setup(args.workload, args.seed,
                            os.path.join(BUILD_DIR, "setup-" + tag), SETUP_LAUNCHES)
    try:
        code = subprocess.run(command, stdout=sys.stderr,
                              timeout=args.seconds + 150).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: the driver did not finish in time")
    if code != 0:
        sys.exit("perfbench: the driver exited with %d" % code)
    raw = load_json(raw_path)
    os.remove(raw_path)
    raw["setup_s"] = setup_s

    table = load_json(REFERENCE) if os.path.exists(REFERENCE) else {}
    if args.record:
        record(raw)
    attempted, failed, notes = perfstats.outcome(raw, table.get(args.workload))
    metrics = report(raw, attempted, failed, notes)
    if args.trace:
        layers = perfstats.per_layer(raw)
        print("per-layer:")
        for name, value in layers.items():
            print("  %-30s %16.6g %s" % (name, value, perfstats.PER_LAYER_UNITS[name]))
        units, metrics = perfstats.PER_LAYER_UNITS, layers
    else:
        units = perfstats.END_TO_END_UNITS
    print("elapsed %.1f s" % (time.monotonic() - started))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
