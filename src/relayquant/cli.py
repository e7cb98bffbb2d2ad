"""Command-line front end: simulate, slope, analyze, oracle.

Configs and codebooks are JSON (complex numbers as [re, im] pairs), SER
curves are CSV with the fixed header p_db,ser,std_err,trials.  Exit codes:
0 success, 1 usage error, 2 validation or audit failure.  The environment
variable RELAYQUANT_THREADS caps simulation workers without changing any
output byte.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.resources
import json
import re
import sys
from pathlib import Path
from typing import Optional

from .codebooks import CodebookError, CodebookSpec, spec_from_json, to_finite
from .model import NetworkConfig
from .montecarlo import (
    MAX_RESOLVED_REL_ERR,
    SerCurve,
    SimulationPlan,
    estimate_diversity,
    estimate_ser,
)
from .oracles import run_audits
from .structure import analyze_codebook

USAGE_EXIT = 1
FAILURE_EXIT = 2


class CliError(Exception):
    """Validation failure; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise CliError(f"{path}: missing required field {key!r}")
    return obj[key]


def _load_json(path: Path, what: str) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _bundled_config(name: str) -> Optional[Path]:
    base = importlib.resources.files("relayquant") / "configs"
    for candidate in (name, f"{name}.json"):
        target = base / candidate
        if target.is_file():
            return Path(str(target))
    return None


def _config_path(arg: str) -> Path:
    path = Path(arg)
    if path.is_file():
        return path
    bundled = _bundled_config(arg)
    if bundled is not None:
        return bundled
    raise CliError(f"config {arg!r} is neither a file nor a bundled config name")


def _network_from_json(obj, path: str) -> NetworkConfig:
    if not isinstance(obj, dict):
        raise CliError(f"{path}: expected an object")
    try:
        return NetworkConfig(
            relay_count=int(_require(obj, "relay_count", path)),
            power_scalers=tuple(_require(obj, "power_scalers", path)),
            variance_f=tuple(_require(obj, "variance_f", path)),
            variance_g=tuple(_require(obj, "variance_g", path)),
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _field(convert, obj: dict, key: str, path: str, default=None):
    """convert(obj[key]) (or of `default` when given and the key is absent)."""
    value = obj.get(key, default) if default is not None else _require(obj, key, path)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _safe_label(label: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", label).strip("_")
    return safe or "codebook"


def _experiment_from_json(cfg, where: str):
    if not isinstance(cfg, dict):
        raise CliError(f"{where}: expected an object")
    network = _network_from_json(_require(cfg, "network", f"{where}.network"),
                                 f"{where}.network")
    entries = _require(cfg, "codebooks", f"{where}.codebooks")
    if not isinstance(entries, list) or not entries:
        raise CliError(f"{where}.codebooks: need a non-empty list")
    p_grid = _field(lambda v: tuple(float(p) for p in v), cfg, "p_grid_db",
                    f"{where}.p_grid_db")
    trials = _field(int, cfg, "trials_per_point", f"{where}.trials_per_point", 10**6)
    seed = _field(int, cfg, "seed", f"{where}.seed")
    estimator = cfg.get("estimator", "plain")

    labeled: list[tuple[str, CodebookSpec, int]] = []
    seen = set()
    for i, entry in enumerate(entries):
        path = f"{where}.codebooks[{i}]"
        if not isinstance(entry, dict):
            raise CliError(f"{path}: expected an object")
        label = str(entry.get("label") or f"codebook{i}")
        if label in seen:
            raise CliError(f"{path}: duplicate label {label!r}")
        seen.add(label)
        body = {k: v for k, v in entry.items() if k not in ("label", "trials_per_point")}
        body.setdefault("label", label)
        try:
            spec = spec_from_json(body, where=path)
        except CodebookError as exc:
            raise CliError(str(exc)) from exc
        labeled.append((label, spec, _field(int, entry, "trials_per_point",
                                            f"{path}.trials_per_point", trials)))
    return network, labeled, p_grid, trials, seed, estimator


def cmd_simulate(args) -> int:
    cfg_path = _config_path(args.config)
    cfg = _load_json(cfg_path, "config")
    where = str(cfg_path)
    network, labeled, p_grid, trials, seed, estimator = _experiment_from_json(cfg, where)

    plans = []
    for i, (label, spec, entry_trials) in enumerate(labeled):
        try:
            plans.append((label, SimulationPlan(network, spec, p_grid, entry_trials,
                                                seed, estimator=estimator)))
        except ValueError as exc:
            raise CliError(f"{where}.codebooks[{i}]: {exc}") from exc

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    for i, (label, plan) in enumerate(plans):
        try:
            curve = estimate_ser(plan)
        except ValueError as exc:
            raise CliError(f"{where}.codebooks[{i}]: {exc}") from exc
        name = f"{_safe_label(label)}.csv"
        with open(out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
            curve.write_csv(fh)
        outputs[label] = name
        print(f"wrote {out_dir / name}")

    manifest = {
        "config": cfg,
        "config_path": str(cfg_path),
        "seed": seed,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_dir / 'manifest.json'}")
    return 0


def cmd_slope(args) -> int:
    path = Path(args.input)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            curve = SerCurve.read_csv(fh)
    except OSError as exc:
        raise CliError(f"cannot read curve {path}: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
    window = tuple(args.window) if args.window else None
    try:
        est = estimate_diversity(curve, window)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
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
    try:
        spec = spec_from_json(obj, where=str(path))
        cb = to_finite(spec)
        report = analyze_codebook(cb)
    except (CodebookError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from exc
    print(json.dumps(report.to_json(), indent=2))
    return 0


def cmd_oracle(args) -> int:
    if args.samples < 1:
        raise CliError(f"--samples must be a positive integer, got {args.samples}")
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
    oracle.add_argument("--samples", type=int, default=10**6,
                        help="Monte Carlo samples per distribution audit")
    oracle.add_argument("--seed", type=int, default=20260808)
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE_EXIT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
