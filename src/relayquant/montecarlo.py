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
  to a few percent at 1e6 trials even where the SER is 1e-15.  A trial
  costs more than a plain one, and more so the more multi-relay vectors the
  codebook has (CHANGES.md records the measurements): both share one draw
  across the grid, but only this one maps, re-forms and weights it at every
  power.

Trials are split into chunks of at most CHUNK_TRIALS, and estimate_ser
picks the estimator's per-chunk code path once per plan.  Chunk c draws its
randomness once, from the counter stream (seed, 0, c), and evaluates it at
every power of the grid: the true channel law does not depend on P, and
neither do the raw draws of the importance proposal.  Under "plain" the
draw is the channels, whose power-independent products are formed once per
chunk; under "importance" it is DefensiveMixture.prepare's, which
DefensiveMixture.states maps to each power's channel states.  Either way
each power forms one SNR geometry, which the codebook's argmax reuses;
"importance" then evaluates the likelihood ratio only at the trials whose Q
value is positive, since a trial with Q = 0 adds 0 whatever its weight.
Each worker thread writes a chunk's arrays into ChunkBuffers it allocates
once per plan, so the arrays that live across a (chunk, power) take no
fresh pages from the allocator.  Per-point partial sums are combined in
chunk order, so the output of either estimator is bit-identical no matter
how many worker threads run, and point i of a curve equals a one-point plan
at that power.  The points of a curve share their draws (common random
numbers), so their errors are positively correlated, which usually steadies
slope fits; each point's std_err is still the standard error of that point
alone.

Diversity order is estimated as the log-log slope of the SER curve over a
power window: the fit is -log10(ser) against log10(P).  The fit also reports
the largest relative standard error in its window, so a slope fitted over
unresolved points can be told apart from a measured one.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence, TextIO

import numpy as np
from scipy import special

from . import rng as _rng
from .codebooks import CodebookSpec, FiniteEvaluator, resolve_codebook
from .model import (NetworkConfig, PowerLevel, beamformed_sums, channel_products,
                    geometry_at_power, sample_channels, snr_terms)

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


def power_grid(p_grid_db) -> tuple[float, ...]:
    """The grid as floats; it must be non-empty, strictly ascending, and each
    point a positive, finite power."""
    grid = tuple(float(p) for p in p_grid_db)
    if not grid:
        raise ValueError("p_grid_db must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("p_grid_db must be strictly ascending")
    for p_db in grid:
        PowerLevel.from_db(p_db)
    return grid


def check_trials(trials) -> int:
    if int(trials) < 1:
        raise ValueError("trials_per_point must be >= 1")
    return int(trials)


def check_estimator(estimator) -> str:
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    return estimator


@dataclass(frozen=True)
class SimulationPlan:
    """Everything that determines one SER curve, including its randomness.

    The codebook must resolve at every grid power (resolve_codebook), a
    finite codebook's vectors must have one entry per relay of the network,
    a pinned relay must be one of its relays, and the seed must pass
    rng.check_seed.

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
    # the codebook's evaluator at each grid power, which estimate_ser runs
    evaluators: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = power_grid(self.p_grid_db)
        trials = check_trials(self.trials_per_point)
        check_estimator(self.estimator)
        # a family that cannot be bound at some grid power (the power-dependent
        # one below P = e) fails here, before any plan runs
        evaluators = tuple(resolve_codebook(self.codebook, PowerLevel.from_db(p_db))
                           for p_db in grid)
        evaluator = evaluators[-1]
        relays = self.network.relay_count
        if isinstance(evaluator, FiniteEvaluator):
            length = evaluator.codebook.relay_count
            if length != relays:
                raise ValueError(f"codebook vectors have {length} entries, but the network "
                                 f"has {relays} relays")
        elif evaluator.pinned_relay is not None and evaluator.pinned_relay > relays:
            raise ValueError(f"pinned_relay {evaluator.pinned_relay} is out of range 1..{relays}")
        object.__setattr__(self, "p_grid_db", grid)
        object.__setattr__(self, "trials_per_point", trials)
        object.__setattr__(self, "seed", _rng.check_seed(self.seed))
        object.__setattr__(self, "evaluators", evaluators)


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

    @classmethod
    def read_csv(cls, fh: TextIO) -> "SerCurve":
        """Parse write_csv's output.  Rows must meet a plan's own rules: p_db
        a power_grid, ser and std_err finite and >= 0, and trials passing
        check_trials; an error names the line at fault."""
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"bad curve header {header!r}, expected {CSV_HEADER!r}")
        p, s, e, t = [], [], [], []
        for number, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                if len(parts) != 4:
                    raise ValueError(f"bad curve row {line!r}")
                p_db, ser, std_err = (float(x) for x in parts[:3])
                # this point must be a valid power above the previous one
                power_grid(p[-1:] + [p_db])
                for name, value in (("ser", ser), ("std_err", std_err)):
                    if not 0.0 <= value < math.inf:
                        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
                trials = check_trials(int(parts[3]))
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from exc
            p.append(p_db)
            s.append(ser)
            e.append(std_err)
            t.append(trials)
        return cls(tuple(p), tuple(s), tuple(e), tuple(t))


class ChunkBuffers:
    """Arrays that one worker thread reuses for every chunk of a plan.

    Each holds `capacity` trials of R relays; a smaller chunk uses leading
    slices, which stay contiguous.  One store holds the chunk's channel
    states: f and g as sample_channels draws them (`draw`), or the
    relay-major states of DefensiveMixture.states (`states`).  The others
    hold channel_products' and geometry_at_power's outputs.
    """

    def __init__(self, relays: int, capacity: int):
        self.relays = relays
        size = relays * capacity
        self._states = np.empty(2 * size, dtype=np.complex128)
        self._products = (np.empty(size, dtype=np.complex128), np.empty(size), np.empty(size))
        self._geometry = (np.empty(size), np.empty(size, dtype=np.complex128), np.empty(size))

    def draw(self, n):
        """(2, n, R) complex: sample_channels' f and g."""
        return self._states[:2 * self.relays * n].reshape(2, n, self.relays)

    def states(self, n):
        """(2R, n) complex: relay-major states, f above g."""
        return self._states[:2 * self.relays * n].reshape(2 * self.relays, n)

    def products(self, n):
        return tuple(x[:self.relays * n].reshape(self.relays, n) for x in self._products)

    def geometry(self, n):
        return tuple(x[:self.relays * n].reshape(self.relays, n) for x in self._geometry)


@dataclass(frozen=True)
class PreparedDraw:
    """DefensiveMixture.prepare's output: what every power of a chunk shares.

    h: (2R, n) relay-major true-law states, f above g; fade_at: the flat
    indices into h of the gains that fade by 1/P; trials: the trials drawn
    from a cancellation component, ascending, k: that component, and
    star_fades: whether g at its r* fades.
    """

    h: np.ndarray
    fade_at: np.ndarray
    trials: np.ndarray
    k: np.ndarray
    star_fades: np.ndarray


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
      vector k's SNR numerator (see model.snr_geometry) and s_k^2 is the
      noise-to-signal scale of its SNR (destructive interference between
      relays).
      Components are built from the evaluator's canonical rows, so
      codebooks that differ only by per-vector phases that canonical_rows
      removes exactly (e.g. rotated selection codebooks) sample identically.
      Continuous families pass no vectors and get the fade component alone.

    Drawing is split in three steps, so that a Monte Carlo chunk does each
    piece of work once:

    * `prepare` (once per chunk): the raw true-law states, the gains that
      fade, and the cancellation trials with their components.  None of it
      depends on P, and the mixtures of one plan share their components, so
      one prepared draw serves every power.
    * `states` (once per power): fades the draw by 1/P, redraws g at r* on
      the cancellation trials, and returns the states with their one
      snr_geometry, which the codebook's argmax reuses.
    * `weights`: the likelihood ratio p/q, evaluated in log space at the
      trials asked for; the weight never exceeds 1 / ALPHA_PLAIN, so the
      estimator is never much worse than plain sampling.

    `sample` runs all three on every trial.
    """

    def __init__(self, config: NetworkConfig, power: PowerLevel,
                 vectors: Optional[np.ndarray] = None):
        self.config = config
        self.power = power
        self.variance = np.concatenate([config.variance_f, config.variance_g])[:, None]
        self.deviation = np.sqrt(self.variance[:, 0])
        self.p0 = config.power_scalers[0] * power.linear
        self.fade_scale = 1.0 / math.sqrt(power.linear)
        rows = [row for row in (() if vectors is None else vectors)
                if np.count_nonzero(row) >= 2]
        # cancellation component k draws g at relay[k], its vector's last
        # active relay, and pivot[k] is the vector's entry there.  Its other
        # nonzero entries are entries[:, k], at relays support[:, k]; shorter
        # lists are padded with zero entries, which add exact zeros to sums
        active = [np.flatnonzero(row) for row in rows]
        self.relay = np.array([idx[-1] for idx in active], dtype=np.intp)
        self.pivot = np.array([row[idx[-1]] for row, idx in zip(rows, active)],
                              dtype=np.complex128)
        self.pivot_power = np.abs(self.pivot) ** 2
        slots = max((idx.size - 1 for idx in active), default=0)
        self.support = np.zeros((slots, len(rows)), dtype=np.intp)
        self.entries = np.zeros((slots, len(rows)), dtype=np.complex128)
        for k, (row, idx) in enumerate(zip(rows, active)):
            self.support[:idx.size - 1, k] = idx[:-1]
            self.entries[:idx.size - 1, k] = row[idx[:-1]]
        rest = 1.0 - ALPHA_PLAIN - ALPHA_FADE
        if rows:
            alphas = [ALPHA_PLAIN, ALPHA_FADE] + [rest / len(rows)] * len(rows)
        else:
            alphas = [ALPHA_PLAIN, 1.0 - ALPHA_PLAIN]
        self.log_alpha = np.log(alphas)
        self.cum_alpha = np.cumsum(alphas)

    def _cancel_point(self, k, a, b, f_star, rho_star):
        """(mu, s^2) of cancellation components k, broadcast over trials.

        a, b are snr_geometry rows at the components' support relays
        (support[:, k]), f_star and rho_star are f and rho at r*.  The sums
        run over each vector's nonzero entries off r* only.
        """
        acc, den = beamformed_sums(self.entries[:, k], a, b)
        # a at r* is linear in g there; its coefficient is a at g = 1
        coef_star, _ = snr_terms(f_star, 1.0, rho_star)
        c = self.pivot[k] * coef_star
        mu = -acc / c
        den += self.pivot_power[k] * (mu.real ** 2 + mu.imag ** 2) * rho_star
        return mu, den / (self.p0 * (c.real ** 2 + c.imag ** 2))

    def prepare(self, gen: np.random.Generator, size: int,
                buffers: ChunkBuffers) -> PreparedDraw:
        """The power-independent part of `size` trials from q, for `states`.

        Draws true-law gains, the uniform that picks each trial's component
        and the (2R, size) fade coins from `gen`, in that order.  The gains
        are drawn into `buffers`; the PreparedDraw holds a copy.
        """
        f, g = sample_channels(self.config, gen, size, buffers.draw(size))
        uniform = gen.random(size)
        coins = gen.integers(0, 2, (2 * self.config.relay_count, size), dtype=np.bool_)
        pick = np.searchsorted(self.cum_alpha, uniform, side="right")
        np.minimum(pick, len(self.cum_alpha) - 1, out=pick)
        h = np.concatenate([f.T, g.T])
        fade = coins & (pick > 0)
        trials = np.flatnonzero(pick >= 2)
        k = pick[trials] - 2
        fade_at = np.flatnonzero(fade)
        return PreparedDraw(h, fade_at, trials, k,
                            fade[self.config.relay_count + self.relay[k], trials])

    def states(self, draw: PreparedDraw, buffers: ChunkBuffers):
        """Channel states of a prepared draw at this power, with their geometry.

        Returns (h, (rho, a, b)), written into `buffers`: h holds the (2R, n)
        relay-major states, f in rows 0..R-1 and g below, and (rho, a, b) is
        their snr_geometry.  One geometry of the faded states serves the
        cancellation points; where a trial's g is redrawn, its a and b are
        recomputed in place.  The draw is left unchanged.
        """
        r_count = self.config.relay_count
        n = draw.h.shape[1]
        h = buffers.states(n)
        np.copyto(h, draw.h)
        h.ravel()[draw.fade_at] *= self.fade_scale
        f, g = h[:r_count], h[r_count:]
        products = channel_products(f.T, g.T, buffers.products(n))
        rho, a, b = geometry_at_power(products, self.config, self.power, buffers.geometry(n))
        trials, k = draw.trials, draw.k
        star, support = self.relay[k], self.support[:, k]
        row = r_count + star
        f_star, rho_star = f[star, trials], rho[star, trials]
        mu, s2 = self._cancel_point(k, a[support, trials], b[support, trials], f_star, rho_star)
        # the gain's own standard draw serves as the component's CN(0, 1)
        scale = np.where(draw.star_fades, self.fade_scale, 1.0)
        unit = h[row, trials] / (scale * self.deviation[row])
        g_star = mu + np.sqrt(s2) * unit
        g[star, trials] = g_star
        a[star, trials], b[star, trials] = snr_terms(f_star, g_star, rho_star)
        return h, (rho, a, b)

    def weights(self, h, geometry, trials):
        """Likelihood ratio p/q, bounded by 1 / ALPHA_PLAIN, from `states`' output.

        Evaluated at the given trial indices only; each trial's weight
        depends on that trial alone.
        """
        r_count = self.config.relay_count
        states = h.take(trials, axis=1)
        p = self.power.linear
        z2 = (states.real ** 2 + states.imag ** 2) / self.variance
        # q_fade / p per gain is (1 + P exp(-(P - 1) |z|^2)) / 2
        log_gain = np.log(0.5 + 0.5 * p * np.exp(np.maximum(-(p - 1.0) * z2, _EXP_FLOOR)))
        log_fade = log_gain.sum(axis=0)
        terms = np.empty((len(self.log_alpha), trials.size))
        terms[0] = self.log_alpha[0]
        terms[1] = self.log_alpha[1] + log_fade
        rho, a, b = (x.take(trials, axis=1) for x in geometry)
        mu, s2 = self._cancel_point(np.arange(self.relay.size)[:, None], a[self.support],
                                    b[self.support], states[self.relay], rho[self.relay])
        row = r_count + self.relay
        dev = states[row] - mu
        terms[2:] = (self.log_alpha[2:, None] + log_fade - log_gain[row]
                     + np.log(self.variance[row] / s2)
                     - (dev.real ** 2 + dev.imag ** 2) / s2 + z2[row])
        top = terms.max(axis=0)
        terms -= top
        np.maximum(terms, _EXP_FLOOR, out=terms)
        return np.exp(-top) / np.exp(terms).sum(axis=0)

    def sample(self, gen: np.random.Generator, size: int):
        """Draw `size` channel states from q; returns (f, g, weights p/q).

        f and g have shape (size, R) like sample_channels.  Each call
        returns fresh arrays.
        """
        buffers = ChunkBuffers(self.config.relay_count, size)
        h, geometry = self.states(self.prepare(gen, size, buffers), buffers)
        r_count = self.config.relay_count
        return h[:r_count].T, h[r_count:].T, self.weights(h, geometry, np.arange(size))


def estimate_ser(plan: SimulationPlan) -> SerCurve:
    """Monte Carlo SER at every grid point of the plan.

    Chunk c draws its trials once, from the counter stream (seed, 0, c), and
    evaluates them at every grid power; per-point partial sums combine in
    chunk order, so worker count never changes the output bits, and point i
    of a curve equals a one-point plan at p_grid_db[i].  With plan.estimator
    "importance" each power maps the draw through its own DefensiveMixture
    and weights its Q values by the likelihood ratio.
    """
    config = plan.network
    r_count = config.relay_count
    levels = [(PowerLevel.from_db(p_db), ev)
              for p_db, ev in zip(plan.p_grid_db, plan.evaluators)]

    # chunk_q(gen, size, buffers) yields a chunk's Q values at each grid power
    if plan.estimator == "plain":
        def chunk_q(gen, size, buffers):
            f, g = sample_channels(config, gen, size, buffers.draw(size))
            products = channel_products(f, g, buffers.products(size))
            for power, ev in levels:
                geometry = geometry_at_power(products, config, power, buffers.geometry(size))
                yield gaussian_tail(np.sqrt(2.0 * ev.best_snr(f, g, config, power,
                                                              geometry=geometry)))
    else:
        proposals = [DefensiveMixture(config, power, ev.canonical
                                      if isinstance(ev, FiniteEvaluator) else None)
                     for power, ev in levels]

        def chunk_q(gen, size, buffers):
            draw = proposals[0].prepare(gen, size, buffers)
            for proposal, (power, ev) in zip(proposals, levels):
                h, geometry = proposal.states(draw, buffers)
                q = gaussian_tail(np.sqrt(2.0 * ev.best_snr(
                    h[:r_count].T, h[r_count:].T, config, power, geometry=geometry)))
                # a trial with Q = 0 adds 0 whatever its weight
                hit = np.flatnonzero(q)
                q[hit] *= proposal.weights(h, geometry, hit)
                yield q

    n = plan.trials_per_point
    local = threading.local()

    def run_chunk(chunk):
        buffers = getattr(local, "buffers", None)
        if buffers is None:
            buffers = local.buffers = ChunkBuffers(r_count, min(CHUNK_TRIALS, n))
        size = min(CHUNK_TRIALS, n - chunk * CHUNK_TRIALS)
        return [(float(q.sum()), float(np.square(q).sum()))
                for q in chunk_q(_rng.stream(plan.seed, 0, chunk), size, buffers)]

    chunks = range(-(-n // CHUNK_TRIALS))
    workers = worker_count()
    if workers == 1 or len(chunks) == 1:
        partials = [run_chunk(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run_chunk, chunks))

    ser, std_err = [], []
    for point in zip(*partials):
        mean = sum(s1 for s1, _ in point) / n
        var = max(0.0, (sum(s2 for _, s2 in point) - n * mean * mean) / (n - 1)) if n > 1 else 0.0
        ser.append(mean)
        std_err.append(math.sqrt(var / n))
    return SerCurve(plan.p_grid_db, tuple(ser), tuple(std_err), (n,) * len(levels))


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
