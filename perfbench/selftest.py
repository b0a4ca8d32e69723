#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

1. Paper-quality pin: `arith` at seed 0 is the 13 rows of Table 5; the run
   checks each row's Cel*, LUT* and Mem* against the values pinned from
   results_table5.txt and fails (correct: false, exit 1) if any moves.
2. Sensitivity: the same runs with a fixed wait injected inside the
   benchmark's span around `reduce_alg33_default` must move `synth_wall_s`
   and `core.alg33_s` beyond their bound, while the self times of the other
   layers stay within it.

The wait per span is set from the base runs: the base run's `synth_wall_s`
spread over the `core.alg33` spans one pass records, so the injected runs
take about twice as long as the base runs, well beyond the bound even on a
host whose run times vary by a third. The layers that must stay still are
compared as medians of several traced runs each.

Takes about ten minutes (eight `arith` runs). Exits non-zero on any failure.
"""

import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BOUND = 0.25
INJECTED = "core.alg33"
# The injected wait adds this multiple of the base synth_wall_s.
ADDED_SHARE = 1.0
TRACED_RUNS = 3
OTHER_LAYERS = ["core.sift_s", "funcs.build_s", "cascade.synth_s", "io.emit_s"]
TRACE_FILE = os.path.join(ROOT, ".bench_work", "trace-arith-0.json")


def run(trace, wait_ms=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "arith",
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    if wait_ms:
        cmd += ["--inject-wait", f"{INJECTED}={wait_ms}"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"no output from {' '.join(cmd)}:\n{out.stderr}")
    result = json.loads(lines[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit(f"failed run {' '.join(cmd)}:\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def traced_medians(wait_ms=None):
    runs = [run(1, wait_ms) for _ in range(TRACED_RUNS)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def injected_spans():
    """Number of spans of the injected layer in the last traced run."""
    with open(TRACE_FILE) as f:
        events = json.load(f)["traceEvents"]
    return sum(1 for e in events if e["name"] == INJECTED)


def rel(after, before):
    return (after - before) / before if before else float("inf")


def main():
    failures = []
    base = run(0)
    print(f"pin: Table 5 rows reproduced; memory bits {base['cascade_memory_bits']:.0f}, "
          f"cells {base['cascade_cells']:.0f}")
    base_t = traced_medians()
    spans = injected_spans()
    wait_ms = math.ceil(ADDED_SHARE * base["synth_wall_s"] * 1e3 / spans)
    print(f"injecting {wait_ms} ms into each of {spans} {INJECTED} spans")
    slow = run(0, wait_ms)
    slow_t = traced_medians(wait_ms)

    moved = rel(slow["synth_wall_s"], base["synth_wall_s"])
    print(f"synth_wall_s {base['synth_wall_s']:.3f} -> {slow['synth_wall_s']:.3f} s ({moved:+.1%})")
    if moved <= BOUND:
        failures.append("synth_wall_s did not move beyond the bound")
    moved = rel(slow_t["core.alg33_s"], base_t["core.alg33_s"])
    print(f"core.alg33_s {base_t['core.alg33_s']:.3f} -> {slow_t['core.alg33_s']:.3f} s "
          f"({moved:+.1%}, medians of {TRACED_RUNS})")
    if moved <= BOUND:
        failures.append("core.alg33_s did not move beyond the bound")
    for name in OTHER_LAYERS:
        moved = rel(slow_t[name], base_t[name])
        print(f"{name} {base_t[name]:.4f} -> {slow_t[name]:.4f} s "
              f"({moved:+.1%}, medians of {TRACED_RUNS})")
        if abs(moved) > BOUND:
            failures.append(f"{name} moved beyond the bound")
    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
