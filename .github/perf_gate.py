#!/usr/bin/env python3
"""The perf-smoke gates, measured with perfbench (BENCHMARK.json).

  python3 .github/perf_gate.py time PARENT CHANGE OUT_DIR
      Runs perfbench's exp-all-quick workload on two checkouts, the
      parent commit and the change, in ABBA order on this machine, and
      fails when the median per-pair wall_s ratio (change / parent)
      exceeds 1.15, or when any run is not correct. Both sides run on
      the same runner, so the gate needs no stored baseline and no
      normaliser that would itself time code under test.

  python3 .github/perf_gate.py alloc CHECKOUT OUT_DIR
      One traced grid-default run. Fails unless every
      core.words_per_cycle.* and core.words_per_cycle_observed.* metric
      reads 0: the batched fast path allocates nothing once warm,
      counters on or off.

Each run's perfbench record is appended to OUT_DIR/parent.ndjson,
OUT_DIR/change.ndjson or OUT_DIR/alloc.ndjson (emptied first).
"""

import json
import os
import statistics
import subprocess
import sys

BOUND = 1.15
# One exp-all-quick round (about 5 s on a 2-vCPU VM) per run keeps the
# two sides of a pair close in time. On that VM, per-pair A/A ratios
# spread 0.76-1.39; the median of nine pairs stayed within 0.90-1.07
# over ten A/A gate runs of about 100 s each.
PAIRS = 9
SECONDS = 1


def perfbench(checkout, out, *args):
    """Run one perfbench workload in CHECKOUT; return its exit code and
    the record it appended to OUT (None if it wrote none)."""
    before = os.path.getsize(out) if os.path.exists(out) else 0
    code = subprocess.run(
        ["bash", "perfbench/run.sh", *args, "--out", out],
        cwd=checkout,
        stdout=subprocess.DEVNULL,
    ).returncode
    with open(out) as f:
        f.seek(before)
        lines = f.read().splitlines()
    return code, (json.loads(lines[-1]) if lines else None)


def fresh(out_dir, name):
    path = os.path.join(out_dir, name)
    if os.path.exists(path):
        os.remove(path)
    return path


def gate_time(parent, change, out_dir):
    outs = {"parent": fresh(out_dir, "parent.ndjson"),
            "change": fresh(out_dir, "change.ndjson")}
    sides = {"parent": parent, "change": change}
    ratios = []
    for i in range(PAIRS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        wall = {}
        for side in order:
            code, rec = perfbench(sides[side], outs[side],
                                  "--workload", "exp-all-quick",
                                  "--seconds", str(SECONDS))
            if code != 0 or rec is None or not rec["correct"]:
                sys.exit(f"perf gate: {side} run {i + 1} is not correct "
                         f"(exit {code})")
            wall[side] = rec["metrics"]["wall_s"]["value"]
        ratio = wall["change"] / wall["parent"]
        ratios.append(ratio)
        print(f"pair {i + 1} ({order[0]} first): parent {wall['parent']:.3f} s, "
              f"change {wall['change']:.3f} s, ratio {ratio:.3f}")
    median = statistics.median(ratios)
    print(f"exp-all-quick wall_s: median ratio {median:.3f} over {PAIRS} pairs "
          f"(gate: {BOUND})")
    if median > BOUND:
        sys.exit(f"perf regression: {median:.2f}x the parent commit "
                 f"(gate: {BOUND}x)")


def gate_alloc(checkout, out_dir):
    out = fresh(out_dir, "alloc.ndjson")
    # The exit code is not the gate: a traced run also exits 1 when a
    # timing closure falls outside its band, which says nothing about
    # allocation. A run that writes no record fails below.
    code, rec = perfbench(checkout, out, "--workload", "grid-default",
                          "--trace", "1", "--seconds", "1")
    if rec is None:
        sys.exit(f"alloc gate: perfbench wrote no record (exit {code})")
    words = {k: m["value"] for k, m in rec["metrics"].items()
             if k.startswith(("core.words_per_cycle.",
                              "core.words_per_cycle_observed."))}
    for k, v in sorted(words.items()):
        print(f"{k}: {v} words/cycle")
    if not words:
        sys.exit("alloc gate: the record has no core.words_per_cycle metrics")
    bad = sorted(k for k, v in words.items() if v != 0)
    if bad:
        sys.exit("steady-state allocation regression: " + ", ".join(bad))
    if not rec["correct"]:
        print(f"note: the traced run is not correct (exit {code}); "
              "see its closure lines above")


def main(argv):
    if len(argv) == 4 and argv[0] == "time":
        gate_time(*map(os.path.abspath, argv[1:]))
    elif len(argv) == 3 and argv[0] == "alloc":
        gate_alloc(*map(os.path.abspath, argv[1:]))
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
