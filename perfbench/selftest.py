#!/usr/bin/env python3
"""Smoke self-test of one benchmark workload.

    python3 perfbench/selftest.py --binary PATH --workload NAME

Runs the workload's smoke size (the same knobs at a size that finishes in
seconds) untraced and traced, and checks that each run passes its output
checks (exit 0, "correct": true, no failed operation, at least one
attempted) and emits exactly the metrics BENCHMARK.json names for it.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def expected_metrics():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_run(binary, workload, trace, expected):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    errors = []
    if out.returncode != 0:
        errors.append(f"exit {out.returncode}: {out.stderr.strip()}")
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return errors + ["last line of output is not a JSON result"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted {result.get('attempted')}")
    if result.get("failed") != 0:
        errors.append(f"failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append("metrics differ: missing %s, unexpected %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, m in metrics.items():
        if name in expected and m.get("unit") != expected[name]:
            errors.append(f"{name}: unit {m.get('unit')} != {expected[name]}")
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{name}: value {m.get('value')!r}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    end_to_end, per_layer = expected_metrics()
    failed = False
    for trace, expected in ((0, end_to_end), (1, per_layer)):
        errors = check_run(args.binary, args.workload, trace, expected)
        for e in errors:
            print(f"{args.workload} trace={trace}: {e}")
        failed = failed or bool(errors)
    print(f"{args.workload}: {'FAIL' if failed else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
