"""Benchmark command for relayquant.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds the workload from the seed, runs
whole rounds of its work for S seconds, checks the outputs, and prints as its
last line one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones (setup_s, cpu_s,
cpu_to_rse10_s, peak_rss_mb); with --trace 1 they are the per-layer ones,
read from spans recorded around the calls into each module.  Run outputs
(result JSON and spans) go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Worker threads per workload: only fig2_importance runs the thread pool.
THREADS = {"fig2_importance": 2, "fig2_plain": 1, "sym_continuous": 1, "analyze_wide": 1}
# Fresh interpreters timed per run, one before each of the first rounds;
# setup_s is their median.
SETUP_RUNS = 9
# Rounds run past the deadline until there are this many, so medians exist.
MIN_ROUNDS = 3
# The shared host's speed drifts by up to 30% over minutes as its other
# guests come and go, and CPU time drifts with it.  So a fixed calibration
# that calls nothing of relayquant runs before the first round and after
# each round, and every timing is scaled to a machine on which the
# calibration takes this many CPU seconds: a round's by the mean of the two
# calibrations around it, set-up by the mean over the run.
CALIBRATION_REF_S = 0.25


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_child(args) -> None:
    """CPU time of the import and of the workload's set-up in this fresh interpreter."""
    t0 = time.process_time()
    import relayquant.cli  # noqa: F401  (the import is what is timed)
    t1 = time.process_time()
    import workloads
    workloads.WORKLOADS[args.workload](args.seed, OUT)
    t2 = time.process_time()
    print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1}))


def time_setup(args) -> dict:
    """Import and set-up CPU times of one fresh interpreter."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-child",
                           "--workload", args.workload, "--seed", str(args.seed)],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibration_seconds() -> float:
    """CPU seconds of fixed numpy and interpreter work that calls nothing of relayquant."""
    import numpy as np
    rng = np.random.default_rng(0)
    mix = np.exp(1j * np.linspace(0.0, 3.0, 48)).reshape(6, 8)
    t0 = time.process_time()
    total = 0.0
    for _ in range(100):
        z = rng.standard_normal((4096, 12))
        total += float((np.abs((z[:, :6] + 1j * z[:, 6:]) @ mix) ** 2).max(axis=1).sum())
    count = 0
    for j in range(750_000):
        count += j
    return time.process_time() - t0


def summarize_setup(runs, scale: float) -> dict:
    return {
        "setup_s": scale * statistics.median(r["import_s"] + r["config_s"] for r in runs),
        "import_ms": 1e3 * scale * statistics.median(r["import_s"] for r in runs),
        "config_ms": 1e3 * scale * statistics.median(r["config_s"] for r in runs),
    }


def geomean(values) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(statistics.fmean(logs)) if logs else math.nan


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relayquant" / "__init__.py").is_file():
        print(f"error: no relayquant sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ["RELAYQUANT_THREADS"] = str(THREADS[args.workload])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_child:
        setup_child(args)
        return 0

    import workloads

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    try:
        return run(args, workloads, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, workloads, run_dir) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed, run_dir)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    rounds, setups, attempted, failed = [], [], 0, 0
    calibrations = [calibration_seconds()]
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index < MIN_ROUNDS or time.perf_counter() < deadline:
        # set-up is timed between rounds, so its samples spread over the run
        # like the rounds' do
        if len(setups) < SETUP_RUNS:
            setups.append(time_setup(args))
        attempted += workload.operations()
        rnd = None
        try:
            rnd = workload.run_round(index)
        except Exception as exc:  # a failing operation is counted, not fatal
            print(f"round {index} failed: {exc!r}", file=sys.stderr)
            failed += workload.operations()
        calibrations.append(calibration_seconds())
        if rnd is not None:
            failed += rnd.failed
            if not rnd.failed:
                rnd.scale = 2.0 * CALIBRATION_REF_S / (calibrations[-2] + calibrations[-1])
                rounds.append(rnd)
        index += 1

    if not rounds:
        print(f"error: every round of {args.workload} failed", file=sys.stderr)
        return 1
    while len(setups) < SETUP_RUNS:
        setups.append(time_setup(args))
    setup = summarize_setup(setups, CALIBRATION_REF_S / statistics.fmean(calibrations))
    wall_s = statistics.median(r.wall_s for r in rounds)
    cpu_s = statistics.median(r.cpu_s * r.scale for r in rounds)
    points = workloads.rse10_points(rounds)
    if tracer is not None:
        ess = tracer.ess_shares()
        workloads.probe_layers(tracer, args.seed, rounds[-1], run_dir)
        tracer.uninstall()
        metrics = spans.layer_metrics(tracer.spans, tracer.pools, ess, len(rounds),
                                      THREADS[args.workload], setup)
        units = {name: spans.unit_of(name) for name in metrics}
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics = {
            "setup_s": setup["setup_s"],
            "cpu_s": cpu_s,
            "cpu_to_rse10_s": geomean(spt * n for spt, n in points),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "cpu_s": "s", "cpu_to_rse10_s": "s", "peak_rss_mb": "MB"}

    results = workload.check(rounds)
    correct = all(c.passed for c in results)
    rse10_trials = geomean(n for _, n in points)

    for c in results:
        if not c.passed:
            print(f"CHECK FAILED  {c.name}: {c.detail}")
    print(f"{args.workload}: {len(results)} checks, "
          f"{sum(not c.passed for c in results)} failed; {len(rounds)} rounds; "
          f"operations attempted {attempted}, failed {failed}")
    print(f"{args.workload}: per round cpu_s {cpu_s:.4f} s (scaled), wall {wall_s:.4f} s "
          f"({'traced' if args.trace else 'untraced'})")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace,
                  cpu_s=cpu_s, wall_s=wall_s, calibrations=calibrations,
                  round_cpus=[r.cpu_s for r in rounds], round_scales=[r.scale for r in rounds],
                  round_walls=[r.wall_s for r in rounds],
                  rse10_trials=rse10_trials, setup=setup,
                  checks=[{"name": c.name, "passed": c.passed, "detail": c.detail}
                          for c in results])
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
        fh.write("\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
