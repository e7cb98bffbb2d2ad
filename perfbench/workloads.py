"""The four benchmark workloads.

A workload is built from a seed (its set-up: the bundled configs or the
generated codebooks turned into validated plans), then runs whole rounds of
identical work; round i draws its Monte Carlo randomness from
round_seed(seed, i).  After the rounds it checks the outputs against
reference.py and against properties the method must have.

Module functions are called through their modules (montecarlo.estimate_ser,
structure.analyze_codebook, ...), so the traced run can wrap them from
outside.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from relayquant import cli, codebooks, montecarlo, oracles, structure
from relayquant.codebooks import (
    ConstrainedSpec,
    FiniteCodebook,
    FullCsiSpec,
    SrsSpec,
    spec_from_json,
    to_finite,
)
from relayquant.model import NetworkConfig, PowerLevel
from relayquant.montecarlo import SerCurve, SimulationPlan

import checks

# |ser - quadrature| <= Z_PLAIN sigma for plain sampling.  A run checks up to
# five such points: at 3 sigma a correct program would fail about 1.3% of
# runs, at 4.5 sigma about 3e-5.
Z_PLAIN = 4.5


def round_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def bundled_config(name: str) -> dict:
    return json.loads((resources.files("relayquant") / "configs" / f"{name}.json").read_text())


def network_of(cfg: dict) -> NetworkConfig:
    n = cfg["network"]
    return NetworkConfig(int(n["relay_count"]), tuple(n["power_scalers"]),
                         tuple(n["variance_f"]), tuple(n["variance_g"]))


def codebook_specs(cfg: dict) -> list:
    """(label, spec) of every codebook entry, as the CLI reads them."""
    return [(e["label"], spec_from_json({k: v for k, v in e.items()
                                         if k not in ("label", "trials_per_point")},
                                        where=e["label"]))
            for e in cfg["codebooks"]]


def clocks() -> tuple:
    """(wall, CPU) seconds now.  CPU time counts every thread of the process.

    The benchmark's timings are CPU time: on a shared host whose other
    guests take the processor for seconds at a time, wall time measures
    them; CPU time leaves out the time the process was not running.  run.py
    then scales them to the machine's speed.
    """
    return time.perf_counter(), time.process_time()


def elapsed(start: tuple) -> tuple:
    wall, cpu = clocks()
    return wall - start[0], cpu - start[1]


@dataclass
class Curve:
    """One SER curve and the call that produced it."""

    curve: SerCurve
    seconds: float      # CPU time of the call that produced the curve
    trials: int         # trials that call ran, over all its curves


@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    scale: float = 1.0      # machine-speed factor for its CPU times, set by run.py
    curves: dict = field(default_factory=dict)      # key -> Curve
    extra: dict = field(default_factory=dict)
    failed: int = 0


def pool(rounds: list, key: str):
    """(ser, sigma) of a curve pooled over rounds: the mean of the round estimates."""
    curves = [r.curves[key].curve for r in rounds]
    n = len(curves)
    ser = [sum(c.ser[j] for c in curves) / n for j in range(len(curves[0].ser))]
    sigma = [math.sqrt(sum(c.std_err[j] ** 2 for c in curves)) / n for j in range(len(ser))]
    return ser, sigma


def rse10_points(rounds: list) -> list:
    """(seconds per trial, trials to reach 10% relative standard error) per point.

    A point is a (curve, power) of one round.  Importance-sampling errors
    have a heavy tail, so pooling rounds would let one round's outlier set
    the run's figure; a geometric mean over every round's points does not.
    CPU seconds per trial, scaled to machine speed, is the curve's median
    over rounds, as for cpu_s.
    """
    out = []
    for key in rounds[0].curves:
        spt = statistics.median(r.scale * r.curves[key].seconds / r.curves[key].trials
                                for r in rounds)
        for rnd in rounds:
            curve = rnd.curves[key].curve
            for s, e, n in zip(curve.ser, curve.std_err, curve.trials):
                out.append((spt, n * (e / s / 0.10) ** 2))
    return out


def _srs_reference(network: NetworkConfig, grid) -> list:
    import reference
    return [reference.srs_ser(network.power_scalers, network.variance_f,
                              network.variance_g, p) for p in grid]


class Workload:
    """Set-up happens in __init__; run_round does one round of timed work."""

    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def operations(self) -> int:
        raise NotImplementedError

    def run_round(self, index: int) -> Round:
        raise NotImplementedError

    def check(self, rounds: list) -> list:
        raise NotImplementedError

    def _estimate(self, key: str, plan: SimulationPlan, index: int, rnd: Round) -> None:
        plan = dataclasses.replace(plan, seed=round_seed(self.seed, index))
        t0 = time.process_time()
        curve = montecarlo.estimate_ser(plan)
        cpu = time.process_time() - t0
        rnd.curves[key] = Curve(curve, cpu, plan.trials_per_point * len(plan.p_grid_db))


# ---------------------------------------------------------------------------
# fig2: the bundled asymmetric R = 3 network and its seven finite codebooks
# ---------------------------------------------------------------------------

PLAIN_GRID = (0.0, 4.0, 8.0, 12.0, 16.0)
PLAIN_TRIALS = 65536
NESTED = ("C3", "C2", "C1")     # C1's vector is in C2, C2's vectors are in C3

IMPORTANCE_TRIALS = 65536
SLOPE_WINDOW = (30.0, 50.0)
# Bands sized from 25 seeds at 65536 trials per point: per-round slopes lay
# within 0.24 of the cap (C1 reads about 0.9 at these powers), and the check
# takes the median over rounds.
SLOPE_BAND = 0.35
# The importance estimator has a heavy right tail (a plain-law trial that
# hits an outage), so the SRS check takes, per round, the geometric mean over
# the grid of ser / quadrature, and then the median over rounds.  Over 250
# seeds that per-round ratio lay in [0.909, 1.324], 99% of it below 1.161 and
# half of it in [0.960, 1.010], so a median over three or more rounds leaves
# [1/1.12, 1.12] with probability below about 4e-3 (three rounds) to 1e-4
# (eight), while a curve 1.2x too high leaves it.
IMPORTANCE_REL_TOL = 0.12


class Fig2Plain(Workload):
    """fig2 under plain sampling at 0-16 dB through `relayquant simulate`, one thread."""

    name = "fig2_plain"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        cfg = bundled_config("fig2")
        cfg.update(estimator="plain", p_grid_db=list(PLAIN_GRID), trials_per_point=PLAIN_TRIALS)
        self.cfg = cfg
        self.network = network_of(cfg)
        self.labels = [label for label, _ in codebook_specs(cfg)]
        # the plans `relayquant simulate` builds from the config: built here
        # so that set-up includes validating them
        self.plans = [SimulationPlan(self.network, spec, PLAIN_GRID, PLAIN_TRIALS, seed,
                                     None, "plain") for _, spec in codebook_specs(cfg)]

    def operations(self):
        return len(self.plans) * len(PLAIN_GRID)

    def run_round(self, index):
        cfg_path = self.out_dir / f"{self.name}.json"
        curve_dir = self.out_dir / f"{self.name}-curves"
        cfg_path.write_text(json.dumps(dict(self.cfg, seed=round_seed(self.seed, index))))
        start = clocks()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "-c", str(cfg_path), "-o", str(curve_dir)])
        rnd = Round(*elapsed(start))
        if code != 0:
            rnd.failed = self.operations()
            return rnd
        trials = PLAIN_TRIALS * len(PLAIN_GRID) * len(self.labels)
        for label in self.labels:
            with open(curve_dir / f"{label}.csv", encoding="utf-8") as fh:
                rnd.curves[label] = Curve(SerCurve.read_csv(fh), rnd.cpu_s, trials)
        return rnd

    def check(self, rounds):
        ser, sigma = pool(rounds, "SRS")
        out = [checks.within_sigma("fig2_plain SRS vs quadrature", ser, sigma,
                                   _srs_reference(self.network, PLAIN_GRID), Z_PLAIN)]
        for i, rnd in enumerate(rounds):
            out.append(checks.ordered(f"round {i}: SER(C3) <= SER(C2) <= SER(C1)",
                                      [rnd.curves[k].curve.ser for k in NESTED]))
            for label in self.labels:
                out.append(checks.decreasing(f"round {i}: {label} falls with power",
                                             rnd.curves[label].curve.ser))
        return out


class Fig2Importance(Workload):
    """fig2 as bundled (30-50 dB, importance sampling) at reduced trials, two threads."""

    name = "fig2_importance"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        cfg = bundled_config("fig2")
        self.network = network_of(cfg)
        self.grid = tuple(float(p) for p in cfg["p_grid_db"])
        self.specs = codebook_specs(cfg)
        self.labels = [label for label, _ in self.specs]
        self.plans = [SimulationPlan(self.network, spec, self.grid, IMPORTANCE_TRIALS, seed,
                                     cfg.get("grid_resolution"), cfg.get("estimator", "plain"))
                      for _, spec in self.specs]

    def operations(self):
        return len(self.plans) * len(self.grid)

    def run_round(self, index):
        rnd = Round()
        start = clocks()
        for label, plan in zip(self.labels, self.plans):
            self._estimate(label, plan, index, rnd)
            rnd.extra[label] = montecarlo.estimate_diversity(rnd.curves[label].curve,
                                                             SLOPE_WINDOW).slope
        rnd.wall_s, rnd.cpu_s = elapsed(start)
        return rnd

    def check(self, rounds):
        ref = _srs_reference(self.network, self.grid)
        ratios = [checks.geomean_ratio(rnd.curves["SRS"].curve.ser, ref) for rnd in rounds]
        out = [checks.within_ratio("fig2_importance SRS vs quadrature (median over rounds "
                                   "of the geometric-mean ratio)",
                                   statistics.median(ratios), IMPORTANCE_REL_TOL)]
        for label, spec in self.specs:
            slope = statistics.median(rnd.extra[label] for rnd in rounds)
            cap = structure.diversity_cap(to_finite(spec))[0]
            out.append(checks.slope_near_cap(f"{label} 30-50 dB slope (median over rounds)",
                                             slope, cap, SLOPE_BAND))
        return out


# ---------------------------------------------------------------------------
# sym_continuous: the continuous families of the bundled fig3 (R=2) and fig4 (R=3)
# ---------------------------------------------------------------------------

SYM_GRIDS = {"fig3": (5.0, 10.0, 15.0), "fig4": (5.0, 10.0)}
SYM_TRIALS = 16384
MAXIMIZER_DRAWS = 4096
# Largest relative shortfall of the program's grid maximizer below the exact
# co-phased maximum, per relay count, that the check accepts; README records
# the measured shortfall it was sized from.
MAXIMIZER_SHORTFALL = {2: 1e-4, 3: 0.01}


def _family_epsilon(spec, p_db: float):
    """(epsilon, pinned relay) of a continuous family at p_db, from its definition."""
    if isinstance(spec, FullCsiSpec):
        return 0.0, None
    if isinstance(spec, ConstrainedSpec):
        return spec.epsilon, spec.pinned_relay
    return 1.0 / math.log(10.0 ** (p_db / 10.0)), spec.pinned_relay


class SymContinuous(Workload):
    """fig3 and fig4 as bundled, at low powers under plain sampling, one thread."""

    name = "sym_continuous"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.configs = {}
        self.plans = []
        for name, grid in SYM_GRIDS.items():
            cfg = bundled_config(name)
            network = network_of(cfg)
            specs = codebook_specs(cfg)
            self.configs[name] = (network, specs, cfg.get("grid_resolution"), grid)
            self.plans += [(f"{name}/{label}",
                            SimulationPlan(network, spec, grid, SYM_TRIALS, seed,
                                           cfg.get("grid_resolution"), "plain"))
                           for label, spec in specs]

    def operations(self):
        return sum(len(plan.p_grid_db) for _, plan in self.plans)

    def run_round(self, index):
        rnd = Round()
        start = clocks()
        for key, plan in self.plans:
            self._estimate(key, plan, index, rnd)
        rnd.wall_s, rnd.cpu_s = elapsed(start)
        return rnd

    def check(self, rounds):
        import reference
        out = []
        gen = np.random.default_rng([self.seed, 7])
        for name, (network, specs, grid_resolution, grid) in self.configs.items():
            by_kind = {}
            for label, spec in specs:
                if isinstance(spec, SrsSpec):
                    by_kind["srs"] = label
                elif isinstance(spec, FullCsiSpec):
                    by_kind[0.0] = label
                elif isinstance(spec, ConstrainedSpec) and spec.pinned_relay is not None:
                    by_kind[spec.epsilon] = label
            ser, sigma = pool(rounds, f"{name}/{by_kind['srs']}")
            out.append(checks.within_sigma(f"{name} SRS vs quadrature", ser, sigma,
                                           _srs_reference(network, grid), Z_PLAIN))
            chain = [pool(rounds, f"{name}/{by_kind[eps]}") for eps in (0.0, 1 / 16, 1 / 4, 1.0)]
            out.append(checks.ordered(f"{name} SER X <= eps 1/16 <= eps 1/4 <= eps 1 within sigma",
                                      [ser for ser, _ in chain],
                                      [sigma for _, sigma in chain[1:]]))

            r = network.relay_count
            scale = np.sqrt(np.concatenate([network.variance_f, network.variance_g]) / 2.0)
            z = gen.standard_normal((MAXIMIZER_DRAWS, 2 * r)) + 1j * gen.standard_normal(
                (MAXIMIZER_DRAWS, 2 * r))
            f, g = z[:, :r] * scale[:r], z[:, r:] * scale[r:]
            for label, spec in specs:
                if isinstance(spec, SrsSpec):
                    continue
                for p_db in grid:
                    eps, pinned = _family_epsilon(spec, p_db)
                    _, program = codebooks.constrained_best_snr(
                        f, g, network, PowerLevel.from_db(p_db), eps, pinned, grid_resolution)
                    u, w, p0 = reference.cophased_coefficients(f, g, network.power_scalers, p_db)
                    lo = np.zeros(r)
                    if pinned is not None:
                        lo[pinned - 1] = math.sqrt(eps)
                    exact = reference.exact_cophased_snr(u, w, p0, lo)
                    out.append(checks.maximizer_bounded(
                        f"{name} {label} {p_db:g} dB maximizer vs exact", program, exact,
                        MAXIMIZER_SHORTFALL[r]))
        return out


# ---------------------------------------------------------------------------
# analyze_wide: structural analysis of generated codebooks at R = 14-17
# ---------------------------------------------------------------------------

# Support patterns (0-based relays).  The seed permutes the relays and draws
# the magnitudes and phases, so the hitting-set collections, and with them the
# cost of the analysis, are the same for every seed.
DESIGNS = {
    # K < R, pairwise disjoint supports: OMRS, cap K
    "omrs_small": (16, [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}, {12, 13, 14}]),
    # K < R, a chain of overlapping supports: not OMRS, cap < K
    "overlap_small": (15, [{0, 1, 2}, {2, 3, 4}, {4, 5, 6}, {7, 8}, {9, 10, 11}, {12, 13, 14}]),
    # K >= R with an SRS subset: cap R
    "srs_large": (14, [{r} for r in range(14)]
                  + [{0, 5, 9}, {1, 2}, {3, 7, 11, 13}, {4, 6}]),
    # K >= R without an SRS subset: every relay but one has a single-relay vector
    "near_srs": (17, [{r} for r in range(16)] + [{15, 16}, {0, 16}]),
    # K >= R, every support of three relays
    "cyclic_large": (16, [{k % 16, (k + 3) % 16, (k + 7) % 16} for k in range(16)]
                     + [{0, 8, 12}, {2, 6, 10}, {4, 9, 14}, {1, 11, 13}]),
}
# run_audits at the `relayquant oracle` default seed: its DKW-band checks are
# 99%-confidence tests, so at other seeds a correct program fails about one
# run in a hundred (see CHANGES.md).
AUDIT_SAMPLES = 10**5
AUDIT_SEED = 20260808
# SER of the SRS codebook and of srs_large (which holds it) on a generated
# network at the design's R; it is timed apart from cpu_s.
SER_DESIGN = "srs_large"
SER_GRID = (0.0, 3.0)
SER_TRIALS = 65536


def generate_codebook(design: str, gen: np.random.Generator) -> FiniteCodebook:
    """Codebook of the design with relays permuted and unit-peak random entries."""
    r, supports = DESIGNS[design]
    perm = gen.permutation(r)
    vectors = np.zeros((len(supports), r), dtype=np.complex128)
    for k, support in enumerate(supports):
        cols = perm[sorted(support)]
        mags = gen.uniform(0.2, 1.0, len(cols))
        mags[gen.integers(len(cols))] = 1.0
        vectors[k, cols] = mags * np.exp(2j * np.pi * gen.random(len(cols)))
    return FiniteCodebook(vectors, label=design)


def generate_network(relays: int, gen: np.random.Generator) -> NetworkConfig:
    """Relays with fixed (power share, variance_f, variance_g) triples, in a seeded order.

    SRS's SER does not depend on the order of the relays, so the SER points
    (and their variance factor) stay the same from seed to seed.
    """
    levels = np.linspace(0.5, 2.0, relays)
    order = gen.permutation(relays)
    return NetworkConfig(relays, (1.0,) + tuple(levels[order]),
                         tuple(levels[::-1][order]), tuple(np.roll(levels, relays // 2)[order]))


class AnalyzeWide(Workload):
    """analyze_codebook on generated codebooks and the oracle audit suite."""

    name = "analyze_wide"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        gen = np.random.default_rng([seed, 3])
        self.codebooks = [generate_codebook(d, gen) for d in DESIGNS]
        big = self.codebooks[list(DESIGNS).index(SER_DESIGN)]
        self.network = generate_network(big.relay_count, gen)
        theta = tuple(gen.uniform(0.0, 2.0 * math.pi, big.relay_count))
        self.ser_plans = [(key, SimulationPlan(self.network, spec, SER_GRID, SER_TRIALS, seed))
                          for key, spec in (("srs", SrsSpec(theta)), (SER_DESIGN, big))]
        self.reports = None

    def operations(self):
        return len(self.codebooks) + 6 + len(self.ser_plans) * len(SER_GRID)

    def run_round(self, index):
        start = clocks()
        reports = [structure.analyze_codebook(cb) for cb in self.codebooks]
        audits = oracles.run_audits(samples=AUDIT_SAMPLES, seed=AUDIT_SEED)
        rnd = Round(*elapsed(start), extra={"audits": audits})
        # later rounds keep only whether they repeat round 0, so memory does
        # not grow with the number of rounds
        reports = [r.to_json() for r in reports]
        if self.reports is None:
            self.reports = reports
        rnd.extra["repeats"] = reports == self.reports
        for key, plan in self.ser_plans:
            self._estimate(key, plan, index, rnd)
        return rnd

    def check(self, rounds):
        import reference
        out = []
        for cb, report in zip(self.codebooks, self.reports):
            supports = [set(np.flatnonzero(np.abs(row) > 0.0)) for row in cb.vectors]
            ref_cap = reference.min_hitting_set(supports)
            out.append(checks.equal(f"{cb.label} diversity cap vs minimum hitting set",
                                    report["diversity_cap"], ref_cap))
            if len(cb) <= cb.relay_count:
                out.append(checks.same_truth(f"{cb.label} cap == K iff OMRS",
                                             report["diversity_cap"] == len(cb), report["is_omrs"],
                                             "cap == K vs is_omrs"))
            singles = {next(iter(s)) for s in supports if len(s) == 1}
            out.append(checks.same_truth(
                f"{cb.label} cap == R iff a single-relay vector for every relay",
                report["diversity_cap"] == cb.relay_count, len(singles) == cb.relay_count,
                "cap == R vs single-relay vectors on every relay"))
        out.append(checks.equal("analysis repeats round 0 in every round",
                                all(rnd.extra["repeats"] for rnd in rounds), True))
        for rnd in rounds:
            for audit in rnd.extra["audits"]:
                out.append(checks.Check(f"audit {audit.name}", audit.passed, audit.detail))
        ser, sigma = pool(rounds, "srs")
        out.append(checks.within_sigma(f"R={self.network.relay_count} SRS vs quadrature",
                                       ser, sigma,
                                       _srs_reference(self.network, SER_GRID), Z_PLAIN))
        for i, rnd in enumerate(rounds):
            out.append(checks.ordered(f"round {i}: SER({SER_DESIGN}) <= SER(SRS subset)",
                                      [rnd.curves[SER_DESIGN].curve.ser,
                                       rnd.curves["srs"].curve.ser]))
        return out


WORKLOADS = {w.name: w for w in (Fig2Importance, Fig2Plain, SymContinuous, AnalyzeWide)}


# ---------------------------------------------------------------------------
# Probes: in a traced run, one fixed call into each layer the rounds missed
# ---------------------------------------------------------------------------


def _draws(network: NetworkConfig, count: int, gen: np.random.Generator):
    r = network.relay_count
    scale = np.sqrt(np.concatenate([network.variance_f, network.variance_g]) / 2.0)
    z = gen.standard_normal((count, 2 * r)) + 1j * gen.standard_normal((count, 2 * r))
    return z[:, :r] * scale[:r], z[:, r:] * scale[r:]


PROBED_LAYERS = {"cli.csv_write", "codebooks.constrained_best_snr_r2",
                 "codebooks.constrained_best_snr_r3", "montecarlo.proposal_sample",
                 "structure.analyze_codebook", "oracles.run_audits"}


def probe_layers(tracer, seed: int, last: Round, out_dir: Path) -> None:
    """Probe, under tracer, each layer of PROBED_LAYERS its spans do not reach yet."""
    layers = PROBED_LAYERS - {s.layer for s in tracer.spans}
    gen = np.random.default_rng([seed, 11])
    if "cli.csv_write" in layers:
        def write():
            for i, rec in enumerate(last.curves.values()):
                with open(out_dir / f"probe-{i}.csv", "w", encoding="utf-8") as fh:
                    rec.curve.write_csv(fh)
        tracer.probe(write)
    for r, name, count in ((2, "fig3", 16384), (3, "fig4", 8192)):
        if f"codebooks.constrained_best_snr_r{r}" in layers:
            network = network_of(bundled_config(name))
            f, g = _draws(network, count, gen)
            tracer.probe(codebooks.constrained_best_snr, f, g, network,
                         PowerLevel.from_db(10.0), 0.25, 1, 8)
    if "montecarlo.proposal_sample" in layers:
        cfg = bundled_config("fig2")
        network = network_of(cfg)
        c3 = dict(codebook_specs(cfg))["C3"]
        proposal = montecarlo.DefensiveMixture(
            network, PowerLevel.from_db(40.0), codebooks.FiniteEvaluator(to_finite(c3)).canonical)

        def sample():
            for chunk in range(8):
                proposal.sample(np.random.default_rng([seed, 12, chunk]), montecarlo.CHUNK_TRIALS)
        tracer.probe(sample)
    if "structure.analyze_codebook" in layers:
        tracer.probe(structure.analyze_codebook, generate_codebook("srs_large", gen))
    if "oracles.run_audits" in layers:
        tracer.probe(oracles.run_audits, AUDIT_SAMPLES, AUDIT_SEED)
