"""Record the end-to-end benchmark trajectory as BENCH_<n>.json.

    python3 tools/bench_record.py [--out BENCH_1.json]

Run from anywhere; it works on the checkout it sits in and needs only the
standard library (the package itself needs numpy, and Tier-1 also scipy).
It records:

* every perfbench workload (perfbench/spread.py's WORKLOADS) on each of
  SEEDS, through spread.run_once, which runs
  `perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0` and
  reads that run's perfbench/out/result-W-S-trace0.json;
* the wall and CPU time of `relayquant simulate` on the bundled fig2, fig3
  and fig4 configs, and of the Tier-1 suite (`python -m pytest -q
  --continue-on-collection-errors` with PYTHONPATH=src), REPEATS times at
  RELAYQUANT_THREADS 1 and 2.

SEEDS, SECONDS and REPEATS are fixed so that every BENCH_<n>.json compares
with BENCH_1.json.  For each metric it writes the median, the quartiles,
the unit, every value with its seed or repeat, and whether every run was
correct with 0 failed operations.  The file also holds the commit, the
machine, and NOTES, the known defects of the metrics, so that a later
reader does not take them at face value.  Simulate and Tier-1 times are raw,
not scaled to machine speed as perfbench scales its own.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from spread import WORKLOADS, run_once  # noqa: E402

SEEDS = tuple(range(1, 11))
SECONDS = 24.0
REPEATS = 3
CONFIGS = ("fig2", "fig3", "fig4")
THREADS = (1, 2)

NOTES = [
    "setup_s: the quartile spread of the parent's runs reached 8-22% of the median against "
    "a 25% bound, and A/A pairs differed by up to 46%; a setup_s change is not a claim.",
    "peak_rss_mb: run.py keeps every round's results, so the peak grows by about 13 KB per "
    "round and with the number of rounds a run fits in its seconds.",
    "analyze_wide: AnalyzeWide.run_round reuses its FiniteCodebook objects, so their "
    "beamformers cache is warm from the second round on, unlike in `relayquant analyze`.",
    "cpu_s and cpu_to_rse10_s are scaled by a calibration loop to a reference machine speed; "
    "simulate and Tier-1 times here are raw and move with the shared host's load.",
    "Traced metrics (not recorded here): kish_ess_share reads 1.0 because spans.py wraps "
    "DefensiveMixture.sample, which estimate_ser never calls; worker_busy_share divides by 2 "
    "workers while finite groups run on one thread; chunks counts draws, not plan-chunks; "
    "estimate_ser_self_ms_per_1e5 counts channel_products and geometry_at_power as self time.",
    "No workload runs a continuous family above 1 thread; the simulate timings at "
    "RELAYQUANT_THREADS=2 are the only two-thread figures for fig3 and fig4.",
]


def summary(values) -> dict:
    """Median and quartiles (statistics.quantiles, exclusive method) of `values`."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def timed(cmd, env, cwd) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run `cmd` to completion; returns it with its wall and CPU (user + system) seconds."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return proc, wall, cpu


def record_workload(workload: str) -> dict:
    """Every end-to-end metric of `workload` over SEEDS, with the name and unit run.py gives it.

    A run that exits non-zero or times out is kept as incorrect, so that one
    failed seed does not lose the rest of the record.
    """
    runs = []
    for seed in SEEDS:
        try:
            result = run_once(workload, seed, SECONDS, 0)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            runs.append({"seed": seed, "correct": False, "failed": None, "metrics": {}})
            print(f"  {workload} seed {seed}: {exc}", flush=True)
            continue
        runs.append({"seed": seed, "correct": result["correct"], "failed": result["failed"],
                     "metrics": result["metrics"]})
        print(f"  {workload} seed {seed}: " + ", ".join(
            f"{k} {m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
    metrics = {}
    for name in dict.fromkeys(k for r in runs for k in r["metrics"]):
        got = [(r["seed"], r["metrics"][name]) for r in runs if name in r["metrics"]]
        values = [m["value"] for _, m in got]
        metrics[name] = dict(summary(values), unit=got[0][1]["unit"],
                             seeds=[seed for seed, _ in got], values=values)
    return {"seeds": list(SEEDS),
            "correct": all(r["correct"] and r["failed"] == 0 for r in runs),
            "failed": [r["failed"] for r in runs],
            "metrics": metrics}


def record_command(name: str, cmd_for, parse=None) -> dict:
    """Wall and CPU of `cmd_for(out_dir)` at each of THREADS, REPEATS times."""
    out = {}
    for t in THREADS:
        env = dict(os.environ, RELAYQUANT_THREADS=str(t))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        walls, cpus, correct, extra = [], [], True, []
        for _ in range(REPEATS):
            with tempfile.TemporaryDirectory() as tmp:
                proc, wall, cpu = timed(cmd_for(tmp), env, ROOT)
            walls.append(wall)
            cpus.append(cpu)
            correct = correct and proc.returncode == 0
            if parse is not None:
                extra.append(parse(proc.stdout))
            print(f"  {name} threads {t}: wall {wall:.2f} s, cpu {cpu:.2f} s, "
                  f"exit {proc.returncode}", flush=True)
        entry = {"wall_s": dict(summary(walls), unit="s", values=walls),
                 "cpu_s": dict(summary(cpus), unit="s", values=cpus),
                 "repeats": REPEATS, "correct": correct}
        if extra:
            entry["outcome"] = extra
        out[f"threads_{t}"] = entry
    return out


def tier1_outcome(stdout: str) -> str:
    """pytest's closing summary, e.g. '369 passed in 75.1s'."""
    lines = [ln.strip("= ") for ln in stdout.strip().splitlines()]
    return next((ln for ln in reversed(lines) if re.search(r"\d+ (passed|failed)", ln)), "")


def commit() -> dict:
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"sha": git("rev-parse", "HEAD"), "subject": git("log", "-1", "--format=%s"),
            "dirty": bool(status) if status is not None else None}


def machine() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


def next_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="output file (default: the next free BENCH_<n>.json at the root)")
    args = parser.parse_args(argv)
    out_path = args.out or next_path()

    record = {"commit": commit(), "machine": machine(),
              "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
                  timespec="seconds"),
              "notes": NOTES, "perfbench": {}, "simulate": {}, "tier1": None}
    record["perfbench_command"] = ("python3 perfbench/run.py --workload W --seed S "
                                   f"--seconds {SECONDS:g} --trace 0")
    for workload in WORKLOADS:
        record["perfbench"][workload] = record_workload(workload)
    for config in CONFIGS:
        record["simulate"][config] = record_command(
            f"simulate {config}",
            lambda tmp, c=config: [sys.executable, "-m", "relayquant.cli", "simulate",
                                   "-c", c, "-o", tmp])
    record["tier1"] = record_command(
        "tier1", lambda tmp: [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors"],
        tier1_outcome)
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
