#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10]
        [--trace 0|1] [--values] [--save F] [--against F]

Runs every workload once per seed and prints, for each metric, the median
of the runs and the distance between their first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, beside the
metric's bound from BENCHMARK.json. A spread above a third of the bound is
flagged. Use it to show the benchmark is steady before relying on a bound.

--save writes the medians to a JSON file; --against reads such a file from
an earlier set and prints, per metric, how far this set's median lies from
it (positive: this set is worse), flagging a difference beyond the bound
in either direction: two sets of the same code should agree within it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--values", action="store_true",
                        help="also print every run's value")
    parser.add_argument("--save", help="write the medians to this file")
    parser.add_argument("--against", help="compare with saved medians")
    args = parser.parse_args()
    earlier = {}
    if args.against:
        with open(args.against, encoding="utf-8") as f:
            earlier = json.load(f)
    medians = {}
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    better = {m["name"]: m["better"] for m in bench[kind]}

    steady = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode or not lines:
                sys.stderr.write(out.stderr)
                print("%s seed %d: exit %d" % (workload, seed, out.returncode))
                return 1
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s (%d runs)" % (workload, len(seeds(args.seeds))))
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            medians.setdefault(workload, {})[name] = med
            drift = ""
            before = earlier.get(workload, {}).get(name)
            if before:
                worse = (med - before) / before
                if better.get(name) == "higher":
                    worse = -worse
                drift = "  vs earlier %+7.3f" % worse
                if bound is not None and abs(worse) > bound:
                    drift += "  <-- sets differ beyond the bound"
                    steady = False
            print("  %-30s median %-12.6g spread %6.3f%s%s%s" % (
                name, med, spread,
                "  bound %.2f" % bound if bound is not None else "", drift,
                flag))
            if args.values:
                print("      " + " ".join("%.6g" % v for v in vals))
    if args.save:
        with open(args.save, "w", encoding="utf-8") as f:
            json.dump(medians, f, indent=1)
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
