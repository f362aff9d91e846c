"""Run a workload once per seed, one run at a time, and report each
end-to-end metric's median, quartiles and spread (quartile distance over
the median) across the runs.

    python3 bench/spread.py --workload degree-proofs --seeds 1-10

Each run is untraced and measures BENCHMARK.json's `run_seconds`.  The
runs' result lines are appended to bench/runs/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results):
    rows = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        rows[name] = {"median": med, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / med if med else 0.0,
                      "unit": results[0]["metrics"][name]["unit"]}
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = ap.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as f:
        seconds = json.load(f)["run_seconds"]
    results = []
    log = os.path.join(HERE, "runs", "spread-%s.jsonl" % args.workload)
    os.makedirs(os.path.dirname(log), exist_ok=True)
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        with open(log, "a", encoding="utf-8") as f:
            f.write(json.dumps(dict(result, seed=seed)) + "\n")
        print("seed %d: attempted %d failed %d" % (seed, result["attempted"], result["failed"]),
              file=sys.stderr)
    print("%-28s %12s %12s %12s %8s" % ("metric", "q1", "median", "q3", "spread"))
    for name, row in summarize(results).items():
        print("%-28s %12.6g %12.6g %12.6g %7.2f%%  %s" % (
            name, row["q1"], row["median"], row["q3"], 100 * row["spread"], row["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
