"""Symbol error rate estimation and diversity-order fitting.

The SER of a quantized beamforming scheme at power P is the channel average
of the Gaussian tail of the selected SNR,

    SER(P) = E_h[ Q( sqrt(2 * SNR_best(h, P)) ) ],

so the estimator averages smooth Q values instead of counting rare symbol
flips, which keeps the variance workable at moderate error rates.

Two estimators are selectable per plan:

* "plain" (the default) draws channels from their true law.  On the fig2
  curves its relative error reaches about 0.3 once the SER falls to about
  1 / trials; below that the few trials that hit an outage dominate the sum
  and the estimate is a noise floor.
* "importance" draws each trial from a DefensiveMixture, a proposal that
  over-samples the deep fades and destructive-interference cancellations
  behind outages, and weights its Q value by the likelihood ratio p/q.  The
  estimate stays unbiased, every weight is bounded by 1 / ALPHA_PLAIN, and
  the diversity-2 and -3 curves of the bundled fig2 experiment are resolved
  to a few percent at 1e6 trials even where the SER is 1e-15.  A trial costs
  roughly 1.5x (no multi-relay codebook vector) to 2.4x (three of them)
  what a plain trial costs.

Trials are split into fixed-size chunks; chunk c of grid point i draws from
the counter stream (seed, i, c) and partial sums are combined in chunk
order, so the output of either estimator is bit-identical no matter how many
worker threads run.

Diversity order is estimated as the log-log slope of the SER curve over a
power window: the fit is -log10(ser) against log10(P).  The fit also reports
the largest relative standard error in its window, so a slope fitted over
unresolved points can be told apart from a measured one.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

import numpy as np
from scipy import special

from . import rng as _rng
from .codebooks import CodebookSpec, FiniteEvaluator, resolve_codebook
from .model import NetworkConfig, PowerLevel, relay_gains, sample_channels

CHUNK_TRIALS = 4096
CSV_HEADER = "p_db,ser,std_err,trials"

ESTIMATORS = ("plain", "importance")

# Trial shares of the importance proposal: the true channel law, the per-gain
# fade component, and (split evenly) the cancellation components.  With no
# cancellation component the fade component takes the whole remainder.  The
# true-law share bounds every likelihood-ratio weight by 1 / ALPHA_PLAIN.
ALPHA_PLAIN = 0.4
ALPHA_FADE = 0.3

# A fitted window whose largest std_err / ser exceeds this is unresolved:
# its slope measures the trial budget, not the decay of the curve.
MAX_RESOLVED_REL_ERR = 0.3

# exp() arguments are clamped here: below it the result is negligible next
# to the terms it is added to, and subnormal results are slow to compute.
_EXP_FLOOR = -700.0


def gaussian_tail(x):
    """Q(x) = P[N(0,1) > x], evaluated as erfc(x / sqrt(2)) / 2."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def worker_count() -> int:
    """Thread cap for simulation chunks; RELAYQUANT_THREADS overrides."""
    env = os.environ.get("RELAYQUANT_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError as exc:
            raise ValueError(f"RELAYQUANT_THREADS must be an integer, got {env!r}") from exc
        if n < 1:
            raise ValueError(f"RELAYQUANT_THREADS must be >= 1, got {n}")
        return n
    return min(8, os.cpu_count() or 1)


@dataclass(frozen=True)
class SimulationPlan:
    """Everything that determines one SER curve, including its randomness.

    grid_resolution is ignored: it sized the magnitude grid of an earlier,
    approximate continuous-family maximizer, and the field keeps its sixth
    position so that plans built positionally (as in perfbench/) still work.
    """

    network: NetworkConfig
    codebook: CodebookSpec
    p_grid_db: tuple[float, ...]
    trials_per_point: int
    seed: int
    grid_resolution: Optional[int] = None
    estimator: str = "plain"

    def __post_init__(self):
        grid = tuple(float(p) for p in self.p_grid_db)
        if not grid:
            raise ValueError("p_grid_db must not be empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("p_grid_db must be strictly ascending")
        if int(self.trials_per_point) < 1:
            raise ValueError("trials_per_point must be >= 1")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        object.__setattr__(self, "p_grid_db", grid)
        object.__setattr__(self, "trials_per_point", int(self.trials_per_point))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class SerCurve:
    """Ordered rows of (p_db, ser, std_err, trials)."""

    p_db: tuple[float, ...]
    ser: tuple[float, ...]
    std_err: tuple[float, ...]
    trials: tuple[int, ...]

    def rows(self):
        return zip(self.p_db, self.ser, self.std_err, self.trials)

    def write_csv(self, fh: TextIO) -> None:
        fh.write(CSV_HEADER + "\n")
        for p, s, e, t in self.rows():
            fh.write(f"{p!r},{s!r},{e!r},{t}\n")

    def to_json(self) -> dict:
        return {
            "rows": [
                {"p_db": p, "ser": s, "std_err": e, "trials": t}
                for p, s, e, t in self.rows()
            ]
        }

    @classmethod
    def read_csv(cls, fh: TextIO) -> "SerCurve":
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"bad curve header {header!r}, expected {CSV_HEADER!r}")
        p, s, e, t = [], [], [], []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"bad curve row {line!r}")
            p.append(float(parts[0]))
            s.append(float(parts[1]))
            e.append(float(parts[2]))
            t.append(int(parts[3]))
        return cls(tuple(p), tuple(s), tuple(e), tuple(t))


class DefensiveMixture:
    """Importance proposal for the 2R channel gains at one power level.

    Each trial is drawn from one component of the defensive mixture

        q = ALPHA_PLAIN p + a_fade q_fade + sum_k a_k q_cancel,k,

    * p: the true channel law;
    * q_fade: each gain independently keeps its law or has |z|^2 scaled by
      1/P, with probability 1/2 each (the deep fades behind relay outages);
    * q_cancel,k: one component per canonical codebook vector k with two or
      more active relays.  The other gains fade as in q_fade; g at k's last
      active relay r* is drawn from CN(mu_k, s_k^2), where mu_k zeroes
      sum_r x_kr f_r g_r sqrt(rho_r) and s_k^2 is the noise-to-signal scale
      of vector k's SNR (destructive interference between relays).
      Components are built from the evaluator's canonical rows, so
      codebooks that differ only by per-vector phases that canonical_rows
      removes exactly (e.g. rotated selection codebooks) sample identically.
      Continuous families pass no vectors and get the fade component alone.

    `sample` weights each trial by p/q, evaluated in log space; the weight
    never exceeds 1 / ALPHA_PLAIN, so the estimator is never much worse than
    plain sampling.
    """

    def __init__(self, config: NetworkConfig, power: PowerLevel,
                 vectors: Optional[np.ndarray] = None):
        self.config = config
        self.power = power
        self.variance = np.concatenate([config.variance_f, config.variance_g])[:, None]
        rows = [row for row in (() if vectors is None else vectors)
                if np.count_nonzero(row) >= 2]
        # cancellation component k draws g at relay[k], its vector's last
        # active relay; pivot[k] is the vector's entry there and others[k]
        # the vector with that entry zeroed
        self.relay = np.array([np.flatnonzero(row)[-1] for row in rows], dtype=np.intp)
        self.pivot = np.array([row[r] for row, r in zip(rows, self.relay)],
                              dtype=np.complex128)
        self.others = np.array(rows, dtype=np.complex128).reshape(len(rows), config.relay_count)
        self.others[np.arange(len(rows)), self.relay] = 0.0
        rest = 1.0 - ALPHA_PLAIN - ALPHA_FADE
        if rows:
            alphas = [ALPHA_PLAIN, ALPHA_FADE] + [rest / len(rows)] * len(rows)
        else:
            alphas = [ALPHA_PLAIN, 1.0 - ALPHA_PLAIN]
        self.log_alpha = np.log(alphas)
        self.cum_alpha = np.cumsum(alphas)

    def _geometry(self, f, g):
        """Relay-major (coef, a, b, rho): f sqrt(rho), coef g, |g|^2 rho, rho."""
        rho = relay_gains(f.T, self.config, self.power).T
        coef = f * np.sqrt(rho)
        return coef, coef * g, (g.real ** 2 + g.imag ** 2) * rho, rho

    def _cancel_point(self, others, pivot, a, b, coef_star, rho_star):
        """(mu, s^2) of cancellation components, broadcast over trials.

        others[r] and pivot are the vector entries off and at r*; a, b come
        from _geometry, coef_star and rho_star are its coef and rho at r*.
        """
        acc = others[0] * a[0]
        den = 1.0 + (others[0].real ** 2 + others[0].imag ** 2) * b[0]
        for r in range(1, a.shape[0]):
            acc = acc + others[r] * a[r]
            den = den + (others[r].real ** 2 + others[r].imag ** 2) * b[r]
        c = pivot * coef_star
        mu = -acc / c
        den += abs(pivot) ** 2 * (mu.real ** 2 + mu.imag ** 2) * rho_star
        p0 = self.config.power_scalers[0] * self.power.linear
        return mu, den / (p0 * (c.real ** 2 + c.imag ** 2))

    def sample(self, gen: np.random.Generator, size: int):
        """Draw `size` channel states from q; returns (f, g, weights p/q).

        f and g have shape (size, R) like sample_channels.  The draws come
        from `gen` in a fixed order: the true-law gains, the component of
        each trial, then the fade coins.
        """
        r_count = self.config.relay_count
        f, g = sample_channels(self.config, gen, size)
        h = np.concatenate([f.T, g.T])               # (2R, n), relay-major
        pick = np.searchsorted(self.cum_alpha, gen.random(size), side="right")
        np.minimum(pick, len(self.cum_alpha) - 1, out=pick)
        fade = gen.integers(0, 2, (2 * r_count, size), dtype=np.bool_)
        fade &= pick > 0
        scale = np.where(fade, 1.0 / math.sqrt(self.power.linear), 1.0)
        h *= scale
        if self.relay.size:
            trials = np.flatnonzero(pick >= 2)
            k = pick[trials] - 2
            cols = np.arange(trials.size)
            row = r_count + self.relay[k]
            sub = h[:, trials]
            coef, a, b, rho = self._geometry(sub[:r_count], sub[r_count:])
            mu, s2 = self._cancel_point(self.others[k].T, self.pivot[k], a, b,
                                        coef[self.relay[k], cols], rho[self.relay[k], cols])
            # the gain's own standard draw serves as the component's CN(0, 1)
            unit = sub[row, cols] / (scale[row, trials] * np.sqrt(self.variance[row, 0]))
            h[row, trials] = mu + np.sqrt(s2) * unit
        f, g = h[:r_count], h[r_count:]
        return f.T, g.T, self._weights(h)

    def _weights(self, h):
        """Likelihood ratio p/q at each trial, bounded by 1 / ALPHA_PLAIN."""
        r_count = self.config.relay_count
        p = self.power.linear
        z2 = (h.real ** 2 + h.imag ** 2) / self.variance
        # q_fade / p per gain is (1 + P exp(-(P - 1) |z|^2)) / 2
        log_gain = np.log(0.5 + 0.5 * p * np.exp(np.maximum(-(p - 1.0) * z2, _EXP_FLOOR)))
        log_fade = log_gain.sum(axis=0)
        terms = np.empty((len(self.log_alpha), h.shape[1]))
        terms[0] = self.log_alpha[0]
        terms[1] = self.log_alpha[1] + log_fade
        if self.relay.size:
            f, g = h[:r_count], h[r_count:]
            coef, a, b, rho = self._geometry(f, g)
            mu, s2 = self._cancel_point(self.others.T[:, :, None], self.pivot[:, None], a, b,
                                        coef[self.relay], rho[self.relay])
            row = r_count + self.relay
            dev = h[row] - mu
            terms[2:] = (self.log_alpha[2:, None] + log_fade - log_gain[row]
                         + np.log(self.variance[row] / s2)
                         - (dev.real ** 2 + dev.imag ** 2) / s2 + z2[row])
        top = terms.max(axis=0)
        terms -= top
        np.maximum(terms, _EXP_FLOOR, out=terms)
        return np.exp(-top) / np.exp(terms).sum(axis=0)


def _point_chunks(trials: int):
    return [(c, min(CHUNK_TRIALS, trials - c * CHUNK_TRIALS))
            for c in range((trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS)]


def estimate_ser(plan: SimulationPlan) -> SerCurve:
    """Monte Carlo SER at every grid point of the plan.

    Deterministic for a fixed plan: chunk randomness is addressed by
    (seed, point, chunk) and partial sums combine in chunk order, so worker
    count never changes the output bits.  With plan.estimator "importance"
    each trial is drawn from a DefensiveMixture and its Q value is weighted
    by the likelihood ratio.
    """
    config = plan.network
    workers = worker_count()
    p_out, ser_out, err_out, n_out = [], [], [], []
    for point, p_db in enumerate(plan.p_grid_db):
        power = PowerLevel.from_db(p_db)
        evaluator = resolve_codebook(plan.codebook, power)
        proposal = None
        if plan.estimator == "importance":
            vectors = evaluator.canonical if isinstance(evaluator, FiniteEvaluator) else None
            proposal = DefensiveMixture(config, power, vectors)

        def run_chunk(chunk_size, _point=point, _power=power, _ev=evaluator, _q=proposal):
            chunk, size = chunk_size
            gen = _rng.stream(plan.seed, _point, chunk)
            if _q is None:
                f, g = sample_channels(config, gen, size)
                weight = 1.0
            else:
                f, g, weight = _q.sample(gen, size)
            snr = _ev.best_snr(f, g, config, _power)
            q = gaussian_tail(np.sqrt(2.0 * snr)) * weight
            return float(q.sum()), float(np.square(q).sum())

        chunks = _point_chunks(plan.trials_per_point)
        if workers == 1 or len(chunks) == 1:
            partials = [run_chunk(c) for c in chunks]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                partials = list(pool.map(run_chunk, chunks))

        total = 0.0
        total_sq = 0.0
        for s1, s2 in partials:
            total += s1
            total_sq += s2
        n = plan.trials_per_point
        mean = total / n
        if n > 1:
            var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
            std_err = math.sqrt(var / n)
        else:
            std_err = 0.0
        p_out.append(float(p_db))
        ser_out.append(mean)
        err_out.append(std_err)
        n_out.append(n)
    return SerCurve(tuple(p_out), tuple(ser_out), tuple(err_out), tuple(n_out))


@dataclass(frozen=True)
class DiversityEstimate:
    """Fitted high-power decay exponent of an SER curve.

    max_rel_err is the largest std_err / ser over the fitted points; above
    MAX_RESOLVED_REL_ERR the fit reflects the trial budget, not the curve.
    """

    slope: float
    intercept: float
    window: tuple[float, float]
    residual: float
    max_rel_err: float


def estimate_diversity(curve: SerCurve,
                       window: Optional[Sequence[float]] = None) -> DiversityEstimate:
    """Least-squares slope of -log10(ser) vs log10(P) over a dB window.

    The window defaults to the top 3 grid points.  Requires at least 3 curve
    points inside the window and positive SER at each (a zero estimate means
    the trial budget cannot see this regime).
    """
    if window is None:
        if len(curve.p_db) < 3:
            raise ValueError("curve has fewer than 3 points")
        window = (curve.p_db[-3], curve.p_db[-1])
    lo, hi = float(window[0]), float(window[1])
    sel = [(p, s, e) for p, s, e in zip(curve.p_db, curve.ser, curve.std_err)
           if lo - 1e-9 <= p <= hi + 1e-9]
    if len(sel) < 3:
        raise ValueError(f"window [{lo}, {hi}] dB covers {len(sel)} points; need >= 3")
    if any(s <= 0.0 for _, s, _ in sel):
        raise ValueError("insufficient trials for window: SER estimate is zero")
    x = np.array([p / 10.0 for p, _, _ in sel])        # log10 of linear power
    y = np.array([-math.log10(s) for _, s, _ in sel])
    xm = x.mean()
    ym = y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    residual = float(np.abs(y - (slope * x + intercept)).max())
    max_rel_err = max(e / s for _, s, e in sel)
    return DiversityEstimate(slope, intercept, (lo, hi), residual, max_rel_err)
