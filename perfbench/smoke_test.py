#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Runs every workload of BENCHMARK.json at its smoke size, untraced and
traced, with the same output checks as a full run, and asserts that each
run is correct and reports exactly the metrics BENCHMARK.json declares, each
a positive number with its declared unit. Takes well under a minute after
the first build. Run from the repository root:

    python3 perfbench/smoke_test.py
"""
import json
import math
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            label = "%s trace=%s" % (workload["name"], trace)
            command = spec["command"] + [
                "--workload", workload["name"], "--seed", "7", "--seconds",
                "1", "--trace", trace, "--smoke"]
            completed = subprocess.run(command, cwd=root, text=True,
                                       stdout=subprocess.PIPE)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                failures.append("%s: exit %d" % (label, completed.returncode))
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (label, sorted(result)))
                continue
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                failures.append("%s: not correct: %s" % (label, lines[-2]))
            metrics = result["metrics"]
            if set(metrics) != set(declared[trace]):
                failures.append("%s: metrics %s, declared %s" % (
                    label, sorted(metrics), sorted(declared[trace])))
                continue
            for name, metric in metrics.items():
                value = metric["value"]
                if metric["unit"] != declared[trace][name] or \
                        not isinstance(value, (int, float)) or \
                        not math.isfinite(value) or value <= 0:
                    failures.append("%s: %s = %r" % (label, name, metric))
            print("ok  %s (%d requests)" % (label, result["attempted"]))
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
