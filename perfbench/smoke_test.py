#!/usr/bin/env python3
"""Smoke test of the memlint benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at a tiny size (16 modules, one second; the traced
run's §7 linearity corpus at 16 and 2 modules), untraced and traced.
Each run must exit 0, answer every verdict correctly (failed == 0, which
also means the staged replica's diagnostics matched Checker::checkFiles on
every unit), and print exactly the metrics BENCHMARK.json names for its
kind, each with its unit.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (the runner's workload list)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    problems = []
    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--modules", "16"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True)
            where = "%s --trace %d" % (workload, trace)
            before = len(problems)
            lines = out.stdout.strip().splitlines()
            if out.returncode or not lines:
                problems.append("%s: exit %d\n%s" % (where, out.returncode,
                                                     out.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append("%s: %d of %d verdicts wrong" % (
                    where, result["failed"], result["attempted"]))
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append("%s: metrics differ from BENCHMARK.json: "
                                "missing %s, unexpected %s" % (
                                    where, sorted(set(want) - set(got)),
                                    sorted(set(got) - set(want))))
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    problems.append("%s: %s is not a number" % (where, name))
            print("ok  " if len(problems) == before else "bad ", where,
                  flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
