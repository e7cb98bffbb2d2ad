"""Command-line front end: simulate, slope, analyze, oracle.

Configs and codebooks are JSON (complex numbers as [re, im] pairs), SER
curves are CSV with the fixed header p_db,ser,std_err,trials.  Exit codes:
0 success, 1 usage error, 2 validation or audit failure.  The environment
variable RELAYQUANT_THREADS sets the threads of a continuous family, which
runs its trial chunks over that many strands; finite codebooks always run on
the calling thread.  No value changes any output byte.

simulate passes every plan of a config to one estimate_ser call.  The plain
curves of a config that share a trial count are evaluated on one draw per
chunk (montecarlo.draw_groups), finite codebooks and continuous families
apart; their errors were already correlated across codebooks, since every
entry shares the config's seed.  An importance curve draws its own, since
its proposal depends on its codebook.  A curve's bytes do not depend on
which other codebooks its config lists.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import importlib.resources
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .codebooks import (CodebookError, FiniteSpec, json_fields, json_label, json_list,
                        json_required, spec_from_json, to_finite)
from .model import NetworkConfig, json_int
from .montecarlo import (
    CHUNK_TRIALS,
    MAX_RESOLVED_REL_ERR,
    SerCurve,
    SimulationPlan,
    check_estimator,
    check_trials,
    draw_groups,
    estimate_diversity,
    estimate_ser,
    power_grid,
    worker_count,
)
from .oracles import AUDIT_SAMPLES, AUDIT_SEED, run_audits
from .rng import check_seed
from .structure import analyze_codebook

USAGE_EXIT = 1
FAILURE_EXIT = 2

# description and grid_resolution are accepted and ignored
_CONFIG_FIELDS = ("network", "codebooks", "p_grid_db", "trials_per_point", "seed",
                  "estimator", "description", "grid_resolution")
_NETWORK_FIELDS = ("relay_count", "power_scalers", "variance_f", "variance_g")


class CliError(Exception):
    """Validation failure; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


@contextlib.contextmanager
def _blame(path: str):
    """Turn a TypeError or ValueError raised inside into a CliError naming path."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_json(path: Path, what: str) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _config_path(arg: str) -> Path:
    """arg as a file path, else as the name of a bundled config, with or
    without its .json suffix."""
    path = Path(arg)
    if path.is_file():
        return path
    base = importlib.resources.files("relayquant") / "configs"
    for candidate in (arg, f"{arg}.json"):
        target = base / candidate
        if target.is_file():
            return Path(str(target))
    raise CliError(f"config {arg!r} is neither a file nor a bundled config name")


def _network_from_json(obj) -> NetworkConfig:
    if not isinstance(obj, dict):
        raise ValueError("expected an object")
    json_fields(obj, _NETWORK_FIELDS)
    lists = {key: json_list(json_required(obj, key), key)
             for key in ("power_scalers", "variance_f", "variance_g")}
    return NetworkConfig(json_required(obj, "relay_count"), **lists)


def _output_name(label: str) -> str:
    """The curve file of a label: each run of characters outside [A-Za-z0-9._-]
    becomes one '_'."""
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", label).strip("_")
    return f"{safe or 'codebook'}.csv"


def _write_file(path: Path, write) -> None:
    """Call write(fh) on path opened for text output, then report it; an
    OSError is a CliError."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path}")


def _experiment_from_json(cfg, where: str):
    """(plans, seed): one (label, SimulationPlan) per codebook entry, in order.

    An error names the field at fault; two entries whose labels map to one
    output file are an error at the later one.
    """
    if not isinstance(cfg, dict):
        raise CliError(f"{where}: expected an object")
    with _blame(where):
        json_fields(cfg, _CONFIG_FIELDS)
    with _blame(f"{where}.network"):
        network = _network_from_json(json_required(cfg, "network"))
    with _blame(f"{where}.codebooks"):
        entries = json_required(cfg, "codebooks")
        if not isinstance(entries, list) or not entries:
            raise ValueError("need a non-empty list")
    with _blame(f"{where}.p_grid_db"):
        p_grid = power_grid(json_list(json_required(cfg, "p_grid_db"), "p_grid_db"))
    with _blame(f"{where}.trials_per_point"):
        trials = check_trials(cfg.get("trials_per_point", 10**6))
    with _blame(f"{where}.seed"):
        seed = check_seed(json_int(json_required(cfg, "seed"), "seed"))
    with _blame(f"{where}.estimator"):
        estimator = check_estimator(cfg.get("estimator", "plain"))

    plans = []
    outputs = {}
    for i, entry in enumerate(entries):
        path = f"{where}.codebooks[{i}]"
        if not isinstance(entry, dict):
            raise CliError(f"{path}: expected an object")
        with _blame(f"{path}.label"):
            label = json_label(entry, f"codebook{i}")
        name = _output_name(label)
        if name in outputs:
            raise CliError(f"{path}: label {label!r} writes {name}, "
                           f"as label {outputs[name]!r} does")
        outputs[name] = label
        body = {k: v for k, v in entry.items() if k not in ("label", "trials_per_point")}
        body.setdefault("label", label)
        spec = spec_from_json(body, where=path)
        with _blame(f"{path}.trials_per_point"):
            entry_trials = check_trials(entry.get("trials_per_point", trials))
        with _blame(path):
            plans.append((label, SimulationPlan(network, spec, p_grid, entry_trials, seed,
                                                estimator=estimator)))
    return plans, seed


def cmd_simulate(args) -> int:
    cfg_path = _config_path(args.config)
    cfg = _load_json(cfg_path, "config")
    where = str(cfg_path)
    plans, seed = _experiment_from_json(cfg, where)
    try:
        threads = worker_count()
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    out_dir = Path(args.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write {out_dir}: {exc}") from exc
    labels, sims = zip(*plans)
    curves = estimate_ser(*sims)
    outputs = {}
    for label, curve in zip(labels, curves if len(sims) > 1 else (curves,)):
        name = _output_name(label)
        _write_file(out_dir / name, curve.write_csv)
        outputs[label] = name

    manifest = {
        "config": cfg,
        "config_path": str(cfg_path),
        "seed": seed,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs,
        "versions": {"relayquant": __version__, "python": sys.version.split()[0],
                     "numpy": np.__version__},
        "chunk_trials": CHUNK_TRIALS,
        "threads": threads,
        "draw_groups": [[labels[i] for i in group] for group in draw_groups(sims)],
    }
    _write_file(out_dir / "manifest.json",
                lambda fh: fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n"))
    return 0


def cmd_slope(args) -> int:
    path = Path(args.input)
    try:
        with open(path, "r", encoding="utf-8") as fh, _blame(path):
            curve = SerCurve.read_csv(fh)
    except OSError as exc:
        raise CliError(f"cannot read curve {path}: {exc}") from exc
    window = tuple(args.window) if args.window else None
    with _blame(path):
        est = estimate_diversity(curve, window)
    print(json.dumps({
        "slope": est.slope,
        "intercept": est.intercept,
        "window_db": list(est.window),
        "residual": est.residual,
        "max_rel_err": est.max_rel_err,
    }, indent=2))
    if est.max_rel_err > MAX_RESOLVED_REL_ERR:
        print(f"warning: {path}: unresolved fit: a point in the window has relative "
              f"standard error {est.max_rel_err:.3g} > {MAX_RESOLVED_REL_ERR}; the slope "
              f"reflects the trial budget, not the curve", file=sys.stderr)
    return 0


def cmd_analyze(args) -> int:
    path = Path(args.input)
    obj = _load_json(path, "codebook")
    spec = spec_from_json(obj, where=str(path))
    if not isinstance(spec, FiniteSpec):
        raise CliError(f"{path}: analyze takes an explicit, srs or unitary codebook, "
                       f"got type {obj['type']!r}")
    with _blame(path):
        report = analyze_codebook(to_finite(spec))
    print(json.dumps(report.to_json(), indent=2))
    return 0


def cmd_oracle(args) -> int:
    if args.samples < 1:
        raise CliError(f"--samples must be a positive integer, got {args.samples}")
    with _blame("--seed"):
        check_seed(args.seed)
    checks = run_audits(samples=args.samples, seed=args.seed)
    width = max(len(c.name) for c in checks)
    failed = 0
    for c in checks:
        verdict = "PASS" if c.passed else "FAIL"
        print(f"{verdict}  {c.name:<{width}}  stat={c.statistic:.6g}  "
              f"threshold={c.threshold:.6g}  ({c.detail})")
        failed += 0 if c.passed else 1
    if failed:
        print(f"{failed} audit check(s) failed", file=sys.stderr)
        return FAILURE_EXIT
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relayquant",
                     description="Quantized-feedback relay beamforming toolkit")
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="run the SER curves of an experiment config")
    sim.add_argument("-c", "--config", required=True,
                     help="experiment config JSON (path or bundled name, e.g. fig2)")
    sim.add_argument("-o", "--output", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    slope = sub.add_parser("slope", help="fit a diversity slope to a curve CSV")
    slope.add_argument("-i", "--input", required=True, help="curve CSV file")
    slope.add_argument("--window", nargs=2, type=float, default=None,
                       metavar=("LO_DB", "HI_DB"),
                       help="fit window in dB (default: top 3 grid points)")
    slope.set_defaults(func=cmd_slope)

    analyze = sub.add_parser("analyze", help="structural report for a codebook JSON")
    analyze.add_argument("-i", "--input", required=True, help="codebook JSON file")
    analyze.set_defaults(func=cmd_analyze)

    oracle = sub.add_parser("oracle", help="run the analytic audit suite")
    oracle.add_argument("--samples", type=int, default=AUDIT_SAMPLES,
                        help="sizes the SNR-cap audit: samples // 10 random channel "
                             "draws, at least 1000")
    oracle.add_argument("--seed", type=int, default=AUDIT_SEED)
    oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    try:
        return args.func(args)
    except (CliError, CodebookError) as exc:
        # spec_from_json's CodebookError already names the entry at fault
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    except RecursionError:
        # only the JSON parser, spec_from_json and to_finite recurse, once
        # per level of nesting in the input file
        source = getattr(args, "config", None) or getattr(args, "input", None)
        print(f"error: {source}: nested too deeply", file=sys.stderr)
        return FAILURE_EXIT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
