#!/usr/bin/env python3
"""Compare fresh BENCH_*.json results against committed baselines.

Every bench writes a BENCH_<name>.json headline file (schema
cascade.bench.v1). This script walks each committed baseline in
bench/baselines/, finds the matching fresh result, and compares every
numeric leaf. A leaf whose relative deviation exceeds the tolerance in
the *bad* direction is a regression:

  - keys that look like latencies/durations (``*_s``, ``*seconds*``,
    ``*latency*``, ``*_ns``, ``*_ms``) regress when they grow;
  - keys that look like rates (``*hz*``, ``*rate*``, ``*speedup*``,
    ``*ticks_per*``, ``*throughput*``) regress when they shrink;
  - anything else is reported (both directions) as a drift warning but
    never counts as a regression — counters like LE usage move for
    legitimate reasons.

Some benches also bound the ratio of two leaves of one fresh result
(RATIOS below). Both leaves come from the same run on the same host, so
such a bound holds whatever the host's speed, and the tolerance does not
apply to it.

Shared CI runners are noisy, so this is a soft gate by default: findings
are printed as GitHub ``::warning::`` annotations and the exit code stays
0. Pass --strict (local perf work) to exit 1 on any regression.

Usage:
  check_bench_regression.py [--baseline-dir DIR] [--results-dir DIR]
                            [--tolerance 0.5] [--strict]
"""

import argparse
import json
import math
import os
import sys

LOWER_IS_BETTER = ("seconds", "latency", "_s", "_ns", "_ms", "wait")
HIGHER_IS_BETTER = ("hz", "rate", "speedup", "ticks_per", "throughput")

# Leaves that are environment facts, not performance: never compared.
IGNORED = ("wall_seconds", "les", "virtual_ticks", "adopted", "schema",
           "bench")


# (bench, numerator leaf, denominator leaf, largest allowed ratio).
RATIOS = (
    # An edit's placement is seeded from the adopted one: the edited miner
    # reaches hardware in at most a quarter of the time the miner's own
    # first compile (a full anneal of nearly the same design) took.
    ("table6_request_latency", "edit.p50_s", "edit_base.p50_s", 0.25),
    # A kernel build that follows a superseded one starts at once: the
    # cancel stops the superseded build's compilers, so they hold no job
    # slot and no core.
    ("table6_request_latency", "jit_burst.p50_s", "jit_cold.p50_s", 1.10),
)


def classify(key):
    k = key.lower()
    if any(k.endswith(s) or s in k for s in LOWER_IS_BETTER):
        return "lower"
    if any(s in k for s in HIGHER_IS_BETTER):
        return "higher"
    return "unknown"


def leaves(node, prefix=""):
    """Yields (dotted-path, value) for every numeric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, prefix + "." + key if prefix else key)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield prefix, float(node)


def compare(name, baseline, fresh, tolerance):
    """Returns (regressions, drifts) as lists of message strings."""
    fresh_map = dict(leaves(fresh))
    regressions = []
    drifts = []
    for path, base in leaves(baseline):
        leaf = path.rsplit(".", 1)[-1]
        if leaf in IGNORED or path not in fresh_map:
            continue
        new = fresh_map[path]
        if not (math.isfinite(base) and math.isfinite(new)):
            continue
        if base == 0:
            continue  # no meaningful relative deviation
        rel = (new - base) / abs(base)
        direction = classify(leaf)
        msg = (f"{name}: {path} {base:.6g} -> {new:.6g} "
               f"({rel:+.1%}, tolerance {tolerance:.0%})")
        if direction == "lower" and rel > tolerance:
            regressions.append(msg)
        elif direction == "higher" and rel < -tolerance:
            regressions.append(msg)
        elif direction == "unknown" and abs(rel) > tolerance:
            drifts.append(msg)
    return regressions, drifts


def check_ratios(name, fresh):
    """Returns a message string for every RATIOS bound \p fresh breaks."""
    values = dict(leaves(fresh))
    broken = []
    for bench, num, den, bound in RATIOS:
        if bench != name or num not in values or not values.get(den):
            continue
        ratio = values[num] / values[den]
        if ratio > bound:
            broken.append(f"{name}: {num} / {den} = {ratio:.3f}, "
                          f"above the bound {bound:g}")
    return broken


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir",
                        default=os.path.join(os.path.dirname(__file__),
                                             "baselines"))
    parser.add_argument("--results-dir", default=".")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="relative deviation allowed (0.5 = 50%%)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on regressions instead of warning")
    args = parser.parse_args()

    if not os.path.isdir(args.baseline_dir):
        print(f"no baseline directory at {args.baseline_dir}; "
              "nothing to compare", file=sys.stderr)
        return 0

    regressions = []
    drifts = []
    compared = 0
    for entry in sorted(os.listdir(args.baseline_dir)):
        if not (entry.startswith("BENCH_") and entry.endswith(".json")):
            continue
        fresh_path = os.path.join(args.results_dir, entry)
        if not os.path.exists(fresh_path):
            print(f"::warning title=bench baseline::no fresh result for "
                  f"{entry} in {args.results_dir}")
            continue
        with open(os.path.join(args.baseline_dir, entry)) as f:
            baseline = json.load(f)
        with open(fresh_path) as f:
            fresh = json.load(f)
        name = entry[len("BENCH_"):-len(".json")]
        regs, drft = compare(name, baseline, fresh, args.tolerance)
        regressions.extend(regs)
        regressions.extend(check_ratios(name, fresh))
        drifts.extend(drft)
        compared += 1

    # Fresh results with no committed baseline are a soft warning too:
    # a new bench landed without seeding its gate. Print the exact copy
    # command so seeding it is a paste away.
    unseeded = 0
    if os.path.isdir(args.results_dir):
        baselines = set(os.listdir(args.baseline_dir))
        for entry in sorted(os.listdir(args.results_dir)):
            if not (entry.startswith("BENCH_") and
                    entry.endswith(".json")):
                continue
            if entry in baselines:
                continue
            unseeded += 1
            fresh_path = os.path.join(args.results_dir, entry)
            print(f"::warning title=bench baseline::{entry} has no "
                  f"committed baseline; future regressions in it are "
                  f"invisible")
            print(f"  seed it with: cp {fresh_path} "
                  f"{os.path.join(args.baseline_dir, entry)}")

    for msg in drifts:
        print(f"::notice title=bench drift::{msg}")
    for msg in regressions:
        print(f"::warning title=bench regression::{msg}")
    print(f"compared {compared} baseline file(s): "
          f"{len(regressions)} regression(s), {len(drifts)} drift(s), "
          f"{unseeded} unseeded fresh result(s)")
    if regressions and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
