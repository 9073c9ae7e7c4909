"""Smoke check of the benchmark itself, at tiny sizes (under a minute).

    python3 benchmarks/smoke.py

Runs every workload untraced and traced with tiny inputs and checks that the
run passes its own output checks and prints every metric with its unit.
Then it plants a wrong expected answer (the Koebe second Hankel
determinant pinned at +1 instead of -1) and checks that the failure shows up
in failed_ratio and ok_ratio.  Exits 0 when all of this holds.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads

TINY = {
    "coeff_campaign": {"samples": 3, "configs": 1},
    "verdict_campaign": {"samples": 1, "configs": 1},
    "query_mix": {"rounds": 1},
}


def run_once(name, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.1",
                         "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def metric_problems(lines, result, units):
    problems = []
    if set(result["metrics"]) != set(units):
        problems.append(f"metrics {sorted(result['metrics'])} != {sorted(units)}")
    for name, unit in units.items():
        entry = result["metrics"].get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: {entry!r}")
        if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines):
            problems.append(f"{name} not printed with its unit {unit}")
    return problems


def main() -> int:
    workloads.SIZES.update(TINY)
    run.SETUP_REPS = 1
    problems = []
    for name in TINY:
        for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            code, lines, result = run_once(name, trace)
            found = metric_problems(lines, result, units)
            if code != 0 or not result["correct"] or result["failed"]:
                found.append(f"exit {code}, {result['failed']} failed")
            problems += [f"{name} trace={trace}: {p}" for p in found]

    good = workloads.PINNED["koebe_h2"]
    workloads.PINNED["koebe_h2"] = -good
    try:
        code, lines, result = run_once("query_mix", 0)
    finally:
        workloads.PINNED["koebe_h2"] = good
    ratio = next((float(line.split()[3]) for line in lines
                  if line.startswith("# failed_ratio = ")), 0.0)
    if result["correct"] or result["failed"] < 1 or not ratio > 0.0 \
            or not result["metrics"]["ok_ratio"]["value"] < 1.0:
        problems.append(f"wrong expected answer not reported: failed_ratio {ratio}, "
                        f"{result['failed']} failed of {result['attempted']}")

    for p in problems:
        print(f"SMOKE FAILED {p}", file=sys.stderr)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
