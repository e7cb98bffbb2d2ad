"""Seed-spread command: run every workload on several seeds and report the spread.

    python3 perfbench/spread.py [--seeds 2 3 4 5 6] [--seconds 24] [--workloads ...]
                                [--traced]

Runs perfbench/run.py once per (workload, seed), one run at a time, from the
root of a checkout.  For each workload it prints whether every seed passed
its checks, the failed share of operations, and for each end-to-end metric
the median and the quartile spread (Q3 - Q1) / median, as the acceptance
rule computes it.  It also prints the variance factor of cpu_to_rse10_s
(the trials a typical point needs for 10% relative standard error, which
does not depend on timing) with its quartile spread and max / min.  With
--traced it also runs the first seed traced and prints the tracing overhead
as traced cpu_s / untraced cpu_s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fig2_importance", "fig2_plain", "sym_continuous", "analyze_wide")


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(HERE / "out" / f"result-{workload}-{seed}-trace{trace}.json",
              encoding="utf-8") as fh:
        detail = json.load(fh)
    result["detail"] = detail
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[2, 3, 4, 5, 6])
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two seeds for a spread")

    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        print(f"== {workload}: seeds {args.seeds}")
        for seed, r in zip(args.seeds, runs):
            bad = [c["name"] for c in r["detail"]["checks"] if not c["passed"]]
            print(f"  seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} rounds={len(r['detail']['round_cpus'])}"
                  + (f" failed checks: {bad}" if bad else ""))
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed share of operations: {sorted(shares)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            print(f"  {name}: median {statistics.median(values):.6g} "
                  f"{runs[0]['metrics'][name]['unit']}, quartile spread "
                  f"{spread(values):.4f}, values {[float(f'{v:.5g}') for v in values]}")
        factors = [r["detail"]["rse10_trials"] for r in runs]
        print(f"  variance factor (trials to 10% rse): median {statistics.median(factors):.5g}, "
              f"quartile spread {spread(factors):.4f}, max/min {max(factors) / min(factors):.4f}")
        if args.traced:
            traced = run_once(workload, args.seeds[0], args.seconds, 1)
            ratio = traced["detail"]["cpu_s"] / runs[0]["detail"]["cpu_s"]
            print(f"  tracing overhead: traced cpu_s / untraced cpu_s = {ratio:.4f} "
                  f"(seed {args.seeds[0]})")
            for name, m in traced["metrics"].items():
                print(f"    {name} = {m['value']:.6g} {m['unit']}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
