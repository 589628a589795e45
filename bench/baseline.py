"""Run every workload over several seeds and record the end-to-end spread.

    python3 bench/baseline.py [--runs 10] [--seconds 25] [--output FILE]

Each run is one ``run.py --trace 0`` with seed 0, 1, ... in turn.  For every
workload and metric the output holds the values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles over the median.  baseline.json in this
directory was written this way at the commit that added the benchmark.
"""

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--output", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("quartiles need at least two runs")
    summary = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for workload in sorted(WORKLOADS):
        values = {}
        for seed in range(args.runs):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            print(done.stdout.splitlines()[-2], flush=True)
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                sys.exit("%s seed %d: %d failed jobs" % (workload, seed, result["failed"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary["workloads"][workload] = {}
        for name, vals in values.items():
            q1, _, q3 = quantiles(vals, n=4)
            summary["workloads"][workload][name] = {
                "median": median(vals), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median(vals), "values": vals,
            }
            print("%s %s median %.4g q1 %.4g q3 %.4g spread %.3f" % (
                workload, name, median(vals), q1, q3, (q3 - q1) / median(vals)),
                flush=True)
    with open(args.output, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
