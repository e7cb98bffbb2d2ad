"""Spans around the calls into each relayquant layer, recorded from outside.

The tracer replaces module attributes and class methods with timing
wrappers for the length of a traced run and restores them afterwards; no
file under src/ changes.  Spans are kept in memory and written out at the
end.  A span records its layer, start, end, thread, the span that caused it,
the outermost span of its call tree (its root) and the trials it handled.
A worker thread has no enclosing span of its own, so its spans take the
main thread's open root as cause.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from relayquant import cli, codebooks, montecarlo, oracles, rng, structure
from relayquant.codebooks import FiniteEvaluator
from relayquant.montecarlo import DefensiveMixture, SerCurve

MC = "montecarlo.estimate_ser"
PROBE = "probe"
# Spans that make up a Monte Carlo chunk; the rest of estimate_ser's thread
# time is dispatch, weighting and reduction (and idle workers).
STAGES = ("rng.stream", "model.sample_channels", "montecarlo.proposal_sample",
          "codebooks.finite_best_snr", "codebooks.constrained_best_snr_r2",
          "codebooks.constrained_best_snr_r3", "montecarlo.gaussian_tail")


@dataclass
class Span:
    id: int
    parent: int
    root: str
    layer: str
    start: float
    end: float
    thread: int
    trials: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pools = 0
        self.weights: dict[int, list] = {}   # id(proposal) -> [sum w, sum w^2, n]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_root = (0, "")            # the main thread's open outermost span
        self._undo = []

    def _open(self, layer):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        if stack:
            parent, root = stack[-1][0], stack[-1][1]
        elif threading.current_thread() is threading.main_thread():
            parent, root = 0, layer
            self._open_root = (sid, layer)
        else:
            parent, root = self._open_root
        stack.append((sid, root))
        return sid, parent, root, layer, time.perf_counter()

    def _close(self, token, trials):
        end = time.perf_counter()
        sid, parent, root, layer, start = token
        self._local.stack.pop()
        self.spans.append(Span(sid, parent, root, layer, start, end,
                               threading.get_ident(), trials))

    def probe(self, fn, *args):
        """Run fn(*args) as the root span of a probe."""
        token = self._open(PROBE)
        try:
            return fn(*args)
        finally:
            self._close(token, 0)

    def wrap(self, owner, attr: str, layer, trials=None, on_result=None):
        """Replace owner.attr by a wrapper recording a span per call.

        layer is a name, or a function of the call's arguments giving one;
        trials, if given, maps the arguments to the trials the call handles.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            token = self._open(layer(args) if callable(layer) else layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(token, trials(args) if trials else 0)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        return wrapper

    def install(self):
        def rows(index):
            return lambda a: int(np.shape(a[index])[0])

        estimate = self.wrap(montecarlo, "estimate_ser", MC,
                             lambda a: a[0].trials_per_point * len(a[0].p_grid_db))
        self._undo.append((cli, "estimate_ser", cli.estimate_ser))
        cli.estimate_ser = estimate
        self.wrap(rng, "stream", "rng.stream")
        self.wrap(montecarlo, "sample_channels", "model.sample_channels", lambda a: int(a[2]))
        self.wrap(DefensiveMixture, "sample", "montecarlo.proposal_sample",
                  lambda a: int(a[2]), self._weigh)
        self.wrap(FiniteEvaluator, "best_snr", "codebooks.finite_best_snr", rows(1))
        self.wrap(codebooks, "constrained_best_snr",
                  lambda a: f"codebooks.constrained_best_snr_r{np.shape(a[0])[1]}", rows(0))
        self.wrap(montecarlo, "gaussian_tail", "montecarlo.gaussian_tail",
                  lambda a: int(np.size(a[0])))
        self.wrap(SerCurve, "write_csv", "cli.csv_write")
        self.wrap(structure, "hitting_sets", "structure.hitting_sets")
        self.wrap(structure, "analyze_codebook", "structure.analyze_codebook")
        self.wrap(oracles, "run_audits", "oracles.run_audits")
        tracer = self

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.pools += 1
                super().__init__(*args, **kwargs)

        self._undo.append((montecarlo, "ThreadPoolExecutor", montecarlo.ThreadPoolExecutor))
        montecarlo.ThreadPoolExecutor = CountingPool

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def ess_shares(self) -> list:
        """Kish effective sample size over trials, per proposal drawn from so far."""
        return [a[0] ** 2 / a[1] / a[2] for a in self.weights.values()]

    def _weigh(self, args, result):
        weights = result[2]
        acc = self.weights.setdefault(id(args[0]), [0.0, 0.0, 0])
        acc[0] += float(weights.sum())
        acc[1] += float(np.square(weights).sum())
        acc[2] += weights.size

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")


def _seconds(spans) -> float:
    return sum(s.seconds for s in spans)


def layer_metrics(spans: list, pools: int, ess_shares: list, rounds: int, workers: int,
                  setup: dict) -> dict:
    """Per-layer metrics of a traced run.

    A layer the workload's rounds did not reach is read from its probe.
    `_per_1e5` times are milliseconds per 10^5 trials the layer handled;
    the other milliseconds and counts are per round (per probe call when
    probed).
    """
    work = [s for s in spans if s.root != PROBE]
    probed = [s for s in spans if s.root == PROBE]

    def source(layer, root=None):
        chosen = [s for s in work if s.layer == layer and (root is None or s.root == root)]
        if chosen:
            return chosen, rounds
        return [s for s in probed if s.layer == layer], 1

    def per_1e5(layer):
        chosen, _ = source(layer, MC)
        return 1e8 * _seconds(chosen) / sum(s.trials for s in chosen)

    def per_round(layer):
        chosen, n = source(layer)
        return 1e3 * _seconds(chosen) / n

    proposals, _ = source("montecarlo.proposal_sample", MC)
    proposal_ids = {s.id for s in proposals}
    inner = [s for s in spans if s.parent in proposal_ids]
    estimates = [s for s in work if s.layer == MC and s.root == MC]
    mc_trials = sum(s.trials for s in estimates)
    est_time = _seconds(estimates)
    stages = [s for s in work if s.root == MC and s.layer in STAGES
              and s.parent not in proposal_ids]
    streams = [s for s in work if s.root == MC and s.layer == "rng.stream"]
    analyses, n_analyses = source("structure.analyze_codebook")
    analysis_ids = {s.id for s in analyses}
    hitting, n_hitting = source("structure.hitting_sets")
    return {
        "cli.import_ms": setup["import_ms"],
        "cli.config_load_ms": setup["config_ms"],
        "cli.csv_write_ms": per_round("cli.csv_write"),
        "rng.stream_ms_per_1e5": 1e8 * _seconds(streams) / mc_trials,
        "model.sample_channels_ms_per_1e5": per_1e5("model.sample_channels"),
        "codebooks.finite_best_snr_ms_per_1e5": per_1e5("codebooks.finite_best_snr"),
        "codebooks.constrained_best_snr_ms_per_1e5_r2":
            per_1e5("codebooks.constrained_best_snr_r2"),
        "codebooks.constrained_best_snr_ms_per_1e5_r3":
            per_1e5("codebooks.constrained_best_snr_r3"),
        "montecarlo.proposal_sample_ms_per_1e5":
            1e8 * (_seconds(proposals) - _seconds(inner)) / sum(s.trials for s in proposals),
        "montecarlo.gaussian_tail_ms_per_1e5": per_1e5("montecarlo.gaussian_tail"),
        "montecarlo.estimate_ser_self_ms_per_1e5":
            1e8 * (workers * est_time - _seconds(stages)) / mc_trials,
        "montecarlo.chunks": len(streams) / rounds,
        "montecarlo.pools_created": pools / rounds,
        "montecarlo.worker_busy_share": _seconds(stages) / (workers * est_time),
        "montecarlo.kish_ess_share":
            math.exp(statistics.fmean(math.log(x) for x in ess_shares)) if ess_shares else 1.0,
        "structure.hitting_sets_calls": len(hitting) / n_hitting,
        "structure.hitting_sets_ms": 1e3 * _seconds(hitting) / n_hitting,
        "structure.analyze_self_ms": 1e3 * (_seconds(analyses) - _seconds(
            [s for s in spans if s.parent in analysis_ids])) / n_analyses,
        "oracles.run_audits_ms": per_round("oracles.run_audits"),
    }


UNITS = {
    "montecarlo.chunks": "count",
    "montecarlo.pools_created": "count",
    "structure.hitting_sets_calls": "count",
    "montecarlo.worker_busy_share": "ratio",
    "montecarlo.kish_ess_share": "ratio",
}


def unit_of(name: str) -> str:
    return UNITS.get(name, "ms")
