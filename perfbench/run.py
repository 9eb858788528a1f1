#!/usr/bin/env python3
"""Cascade repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the Cascade sources plus the `perfdriver` program) with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the driver on the named workload (a fixed number of sessions, as many
as take S seconds on an unloaded host), and prints one JSON object as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall-clock, measured
around the runtime's public API); with --trace 1 they are the per-layer
ledger, timed around direct calls into each layer. Every generated design
and edit comes from --seed, and every line the program prints is checked
against an independent model of the design (see driver.cc).

Workloads (the design, and the engine rung it is measured on):
    interp    SHA-256 miner, hardware off: the AST interpreter rung
    jit       SHA-256 miner parked on the native-code JIT kernel (fabric
              admission fails)
    fabric    SHA-256 miner, JIT off: adopted onto the simulated fabric
              (bitstream)
    stream    regex matcher fed through the stdlib FIFO, on the JIT kernel
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

WORKLOADS = ("interp", "jit", "fabric", "stream")

# name -> (unit, statistic over the run's samples). On a shared host the CPU
# speed drifts by tens of percent for seconds at a time, and other tenants
# only ever slow a sample down, so per-item and per-tick costs and edit
# latencies are reported as the fastest sample: across seeded runs it
# spreads less than the median or a low percentile does (every batch does
# the same work: thousands of ticks and a fixed number of status
# $displays). Set-up time keeps the median of the run's sessions.
END_TO_END = {
    "item_ns": ("ns", min),
    "edit_ms": ("ms", min),
    "setup_s": ("s", statistics.median),
}
PER_LAYER = {
    "parse_us": ("us", statistics.median),
    "elaborate_us": ("us", statistics.median),
    "lower_us": ("us", statistics.median),
    "synth_ms": ("ms", statistics.median),
    "techmap_ms": ("ms", statistics.median),
    "place_ms": ("ms", statistics.median),
    "timing_ms": ("ms", statistics.median),
    "codegen_ms": ("ms", statistics.median),
    "jit_build_ms": ("ms", statistics.median),
    "interp_tick_ns": ("ns", min),
    "bitstream_tick_ns": ("ns", min),
    "kernel_tick_ns": ("ns", min),
    "runtime_tick_ns": ("ns", min),
    "sched_iters_per_ktick": ("count", statistics.median),
    "netlist_nodes": ("count", statistics.median),
    "mapped_les": ("count", statistics.median),
    "anneal_moves": ("count", statistics.median),
}

# The evaluator each workload's rung runs on (for the jit and fabric rungs
# the hardware-engine stub's open loop over the wrapped netlist):
# runtime_overhead_ns is the runtime's tick minus this layer's tick.
RUNG_EVALUATOR = {
    "interp": "interp_tick_ns",
    "jit": "kernel_tick_ns",
    "stream": "kernel_tick_ns",
    "fabric": "bitstream_tick_ns",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd, timeout, env=None):
    """Runs cmd in its own process group with output sent to stderr; on
    timeout the whole group (compiler children included) is killed."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=env, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc, out = run_checked(["cmake", "-S", "perfbench", "-B", build_dir,
                               "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
        sys.stderr.write(out)
        if rc != 0:
            raise RuntimeError("cmake configure failed")
    rc, out = run_checked(["cmake", "--build", build_dir, "-j", "4"],
                          timeout=850)
    sys.stderr.write(out)
    if rc != 0:
        raise RuntimeError("build failed")
    return os.path.join(build_dir, "perfdriver")


def summarize(samples, table):
    """{name: {"value", "unit"}} for every metric in the table."""
    metrics = {}
    for name, (unit, stat) in table.items():
        if not samples.get(name):
            raise RuntimeError("driver reported no samples for " + name)
        metrics[name] = {"value": stat(samples[name]), "unit": unit}
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir("src") or not os.path.isfile(
            os.path.join("perfbench", "CMakeLists.txt")):
        log("perfbench: run from the repository root (needs src/ and "
            "perfbench/)")
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(target)
    driver = build(os.path.join(target, "perfbench"))

    # Everything the run writes (JIT cache, compiler temporaries) stays in a
    # per-run directory, so no run starts with a warm JIT cache.
    run_dir = os.path.join(target, "runs", str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = dict(os.environ)
    env["CASCADE_JIT_CACHE_DIR"] = os.path.join(run_dir, "jit")
    env["TMPDIR"] = run_dir
    try:
        rc, out = run_checked(
            [driver, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=min(170, 3 * args.seconds + 60), env=env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if rc != 0:
        raise RuntimeError("driver exited with %d" % rc)
    report = json.loads(out.strip().splitlines()[-1])
    for err in report["errors"]:
        log("perfbench: FAILED: " + err)

    samples = report["samples"]
    if args.trace:
        samples["runtime_tick_ns"] = samples.get("tick_ns")
        metrics = summarize(samples, PER_LAYER)
        metrics["runtime_overhead_ns"] = {
            "value": metrics["runtime_tick_ns"]["value"] -
            metrics[RUNG_EVALUATOR[args.workload]]["value"],
            "unit": "ns"}
    else:
        metrics = summarize(samples, END_TO_END)

    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: " + str(e))
        sys.exit(1)
