#!/usr/bin/env python3
"""Steadiness check: run one workload repeatedly and report the spread.

    python3 perfbench/steady.py --workload serve_hot --runs 10 [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...), then
prints for every end-to-end metric in BENCHMARK.json the median, the first
and third quartiles (statistics.quantiles, n=4) and the relative spread
(Q3 - Q1) / median beside the metric's bound.  A spread above a third of
the bound is flagged: two sets of runs of the same code could then differ
by more than the bound.  It also checks that every run's share of failed
operations is the same.  Run from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    # Build once up front: a run right after a compile is slower on this
    # host, and that should not land in the first sample.
    subprocess.run([sys.executable, "-B", "-c", "import run; run.build()"],
                   cwd=ROOT / "perfbench", stdout=subprocess.DEVNULL, check=True)

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit("seed %d: run failed with exit code %d" % (seed, proc.returncode))
        res = json.loads(lines[-1])
        results.append(res)
        info = [l for l in lines if l.startswith(("host ", "latency "))]
        print("seed %d: %s\n  %s" % (seed, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items()),
            "\n  ".join(info)), flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print("\nfailed share per run: %s" % sorted(shares))
    if len(shares) != 1:
        print("  NOT STEADY: the failed share differs between runs")
    print("\n%-18s %12s %12s %12s %8s %7s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread <= m["bound"] / 3 else "  above bound/3"
        print("%-18s %12.4f %12.4f %12.4f %8.3f %7.2f%s" % (
            m["name"], med, q1, q3, spread, m["bound"], flag))


if __name__ == "__main__":
    main()
