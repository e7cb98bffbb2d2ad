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
  behind outages, and weights its Q value by the likelihood ratio p/q.  Its
  fade component scales |z|^2 by k / P, with k derived from the network by
  fade_factor, and each cancellation component pivots on its vector's
  largest entry.  The estimate stays unbiased, every weight is bounded by
  1 / ALPHA_PLAIN, and the diversity-2 and -3 curves of the bundled fig2
  experiment are resolved to a few percent at 1e6 trials even where the SER
  is 1e-15.  A trial costs more than a plain one, and more so the more
  multi-relay vectors the codebook has (CHANGES.md records the
  measurements): both share one draw across the grid, but only this one
  maps, re-forms and weights it at every power.

Trials are split into chunks of at most CHUNK_TRIALS, and estimate_ser picks
the estimator's per-chunk code path once per group of plans (below).  Chunk
c draws its randomness once, from the counter stream (seed, Lane.CHUNKS, c)
of rng, and evaluates it at every power of the grid: the true channel law
does not depend on P, and neither do the raw draws of the importance
proposal.  Under "plain" the draw is the channels, whose power-independent
products are formed once per chunk; under "importance" it is
DefensiveMixture.prepare's, which DefensiveMixture.states maps to each
power's channel states.  Either way each power forms one SNR geometry,
which the codebook's argmax reuses;
"importance" then evaluates the likelihood ratio only at the trials whose Q
value is positive, since a trial with Q = 0 adds 0 whatever its weight.
The draw, its products, each power's geometry, the codebook's argmax (the
continuous maximizer's working arrays included) and the Q values are roles
of the strand's ChunkBuffers arena (model), allocated for a full chunk at
their first request and reused by every later chunk, so later chunks take
no fresh pages for them; ChunkBuffers lists what is still allocated per call.

estimate_ser takes the plans of a whole experiment at once.  Plain plans of
one network, seed, grid and trial count draw the same channels in every
chunk, so draw_groups puts together those whose evaluators are of one kind
(finite or continuous), and each chunk of a group is drawn once: its
products are formed once, each power's geometry once, and every plan's
argmax and Gaussian tail run on that geometry.  The curves' errors were
already correlated across codebooks, since they share a seed (common random
numbers); sharing the draw changes no bit of any curve.  An importance plan
draws alone, since its proposal maps the draw to each power's channel states
through its own codebook's cancellation components.  The draw and geometry
roles of the arena do not depend on the codebook, so a group uses the roles
of one plan.

A group runs its chunks over strands, each a thread that draws and
evaluates its share of the chunks, for every plan of the group, in an arena
of its own.  A finite group runs one strand, the calling thread: its
evaluation is many short numpy calls, which would pass the interpreter lock
back and forth between threads.  A continuous group runs worker_count()
strands, at most one per chunk: its maximizer is long numpy calls, which
overlap across threads.

Per-point partial sums are combined in chunk order, one rounding per
addition, so the output of either estimator is bit-identical at any thread
count, and point i of a curve equals a one-point plan at that power.  The
bits are fixed for a given Python version and numpy build; another numpy may
round its elementwise functions differently.  The points of a curve share
their draws (common random numbers), so their errors are positively
correlated, which usually steadies slope fits; each point's std_err is still
the standard error of that point alone.

Diversity order is estimated as the log-log slope of the SER curve over a
power window: the fit is -log10(ser) against log10(P).  The fit also reports
the largest relative standard error in its window, so a slope fitted over
unresolved points can be told apart from a measured one.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence, TextIO

import numpy as np
from scipy import special

from . import rng as _rng
from .codebooks import CodebookSpec, FiniteEvaluator, json_int, resolve_codebook
from .model import (ZERO_TOL, ChunkBuffers, NetworkConfig, PowerLevel, beamformed_sums,
                    channel_products, geometry_at_power, sample_channels, snr_terms, supports)

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


def gaussian_tail(x, out=None):
    """Q(x) = P[N(0,1) > x], evaluated as erfc(x / sqrt(2)) / 2, written
    into `out` when given (which may be x itself)."""
    y = np.divide(np.asarray(x, dtype=float), math.sqrt(2.0), out=out)
    return np.multiply(0.5, special.erfc(y, out=out), out=out)


def _fold_sum(values) -> float:
    """Left-to-right float sum, one rounding per addition.

    Builtin sum is compensated (Neumaier) from Python 3.12 on, so a curve
    reduced with it would change its last bits with the interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def worker_count() -> int:
    """Threads a simulation may use; RELAYQUANT_THREADS overrides the default,
    the core count capped at 8.

    The chunks of finite codebooks run on the calling thread whatever the
    value; the chunks of continuous families are spread over this many
    strands, at most one per chunk.  The output bytes are the same either
    way.  An explicit value above the core count oversubscribes a continuous
    family: on 2 cores, fig4 under plain sampling at 65,536 trials took
    3.71 s of wall time at 8 threads against 2.49 s at 2.
    """
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
    """trials as an int by json_int's rule (1e6 passes, fractions, bools and
    strings raise), and at least 1."""
    trials = json_int(trials, "trials_per_point")
    if trials < 1:
        raise ValueError("trials_per_point must be >= 1")
    return trials


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


def _q_values(best, buffers: ChunkBuffers) -> np.ndarray:
    """The "q" role holding Q(sqrt(2 best)), each trial's Q value at its best SNR."""
    q = buffers.take("q", (), best.size)
    np.sqrt(np.multiply(best, 2.0, out=q), out=q)
    return gaussian_tail(q, out=q)


def _draw_out(buffers: ChunkBuffers, relays: int, n: int) -> np.ndarray:
    """"states" as sample_channels' (2, n, R) f and g, which `states` reads as (2R, n)."""
    return buffers.take("states", (2 * relays,), n, complex).reshape(2, n, relays)


def _products_out(buffers: ChunkBuffers, relays: int, n: int):
    """channel_products' (R, n) outputs f g, |f|^2 and |g|^2."""
    return (buffers.take("fg", (relays,), n, complex), buffers.take("f2", (relays,), n),
            buffers.take("g2", (relays,), n))


def _geometry_out(buffers: ChunkBuffers, relays: int, n: int):
    """geometry_at_power's (R, n) outputs rho, a and b."""
    return (buffers.take("rho", (relays,), n), buffers.take("a", (relays,), n, complex),
            buffers.take("b", (relays,), n))


@dataclass(frozen=True)
class PreparedDraw:
    """DefensiveMixture.prepare's output: what every power of a chunk shares.

    h: (2R, n) relay-major true-law states, f above g, a view of the
    arena's "prepared" role; fade_at: the flat indices into h of the
    gains that fade (by fade_scale).  Of the trials drawn from a cancellation
    component, in ascending order: k, that component; star_at and
    support_at, the flat indices of the trial at its r* and at its support
    relays (support[:, k]) into a relay-major (R, n) array; star_fades,
    whether g at its r* fades.
    """

    h: np.ndarray
    fade_at: np.ndarray
    k: np.ndarray
    star_at: np.ndarray
    support_at: np.ndarray
    star_fades: np.ndarray


def fade_factor(config: NetworkConfig) -> int:
    """k of the importance proposal's fade component, which scales a fading
    gain's |z|^2 by k / P: the smallest integer above

        sum_r 1 / (2 kappa_r),   kappa_r = min(s_0 var_f,r, s_r var_g,r),

    with s the network's power scalers.  Why: deep in outage at high P, a
    relay's SNR collapses when either of its gains does, so take one gain
    per relay at scale 1 / P.  In u_r = P |z_r|^2 (z normalized to unit
    variance), relay r's SNR is then about kappa_r u_r.  The fade
    component's density there is about proportional to exp(-sum_r u_r / k),
    while the squared Q value of the best relay decays as
    exp(-2 max_r kappa_r u_r) or faster, so the second moment of the
    weighted estimate stays bounded in P only when k exceeds the sum above;
    below it the defensive share still caps every weight at 1 / ALPHA_PLAIN,
    but the relative variance grows with P.  The rule gives k = 2 on the
    fig2, fig3 and fig4 networks (sums 1.79, 1.0 and 1.5); on fig2 at
    30-50 dB, k = 1 took about 1.5 times the trials to reach a 10% relative
    error (CHANGES.md).  Where P < k the component widens its gains rather
    than fading them; its density ratio to p stays positive and finite, and
    the defensive share still bounds every weight.
    """
    scalers = config.power_scalers
    threshold = sum(1.0 / (2.0 * min(scalers[0] * vf, sr * vg))
                    for sr, vf, vg in zip(scalers[1:], config.variance_f, config.variance_g))
    return math.floor(threshold) + 1


class DefensiveMixture:
    """Importance proposal for the 2R channel gains at one power level.

    Each trial is drawn from one component of the defensive mixture

        q = ALPHA_PLAIN p + a_fade q_fade + sum_k a_k q_cancel,k,

    * p: the true channel law;
    * q_fade: each gain independently keeps its law or is scaled by
      fade_scale = sqrt(F / P), so that its |z|^2 is scaled by F / P, with
      probability 1/2 each (the deep fades behind relay outages).  F is
      fade_factor(config), derived from the network alone: the smallest
      integer at which the estimator's relative variance stays bounded as
      P grows (2 on the bundled networks).  Below P = F the component
      widens the gains instead; the weights stay exact and bounded.
    * q_cancel,k: one component per canonical codebook vector k whose
      support (model.supports) holds two or more relays.  The other gains
      fade as in q_fade; g at k's pivot relay r*, the last relay of its
      support within ZERO_TOL of the vector's peak magnitude, is drawn from
      CN(mu_k, s_k^2), where mu_k zeroes vector k's SNR numerator (see
      model.snr_geometry) and s_k^2 is the noise-to-signal scale of its SNR
      (destructive interference between relays).  Pivoting on the peak
      keeps mu_k at the gains' scale: a tiny on-support entry as r* would
      put mu_k about 1 / |entry| times beyond it, where the component's
      trials get weights near 0.
      Components are built from the evaluator's canonical rows, one per
      beamformer by model's phase rule, so codebooks that differ only by
      per-vector phases, repeated vectors or off-support entries (e.g.
      rotated SRS, or SRS times U U^H) sample identically.
      Continuous families pass no vectors and get the fade component alone.

    Drawing is split in three steps, so that a Monte Carlo chunk does each
    piece of work once:

    * `prepare` (once per chunk): the raw true-law states, the gains that
      fade, and the cancellation trials with their components.  None of it
      depends on P, and the mixtures of one plan share their components, so
      one prepared draw serves every power.
    * `states` (once per power): fades the draw by fade_scale, redraws g at
      r* on the cancellation trials, and returns the states with their one
      snr_geometry, which the codebook's argmax reuses.
    * `weights`: the likelihood ratio p/q, evaluated in log space at the
      trials asked for; the weight never exceeds 1 / ALPHA_PLAIN, so the
      estimator is never much worse than plain sampling.

    The three steps take every array that grows with the trials from the
    caller's ChunkBuffers arena.  `sample` runs all three on every trial, in
    an arena of its own.
    """

    def __init__(self, config: NetworkConfig, power: PowerLevel,
                 vectors: Optional[np.ndarray] = None):
        self.config = config
        self.power = power
        self.variance = np.concatenate([config.variance_f, config.variance_g])[:, None]
        self.deviation = np.sqrt(self.variance[:, 0])
        self.p0 = config.power_scalers[0] * power.linear
        # a fading gain is scaled by sqrt(F / P), so its |z|^2 by F / P
        factor = fade_factor(config)
        self.fade_ratio = power.linear / factor
        self.fade_scale = math.sqrt(factor / power.linear)
        rows = np.zeros((0, config.relay_count)) if vectors is None else np.asarray(vectors)
        rows = rows[supports(rows).sum(axis=1) >= 2]
        # cancellation component k draws g at relay[k], the last relay of its
        # vector's support within ZERO_TOL of the vector's peak magnitude, and
        # pivot[k] is the vector's entry there.  Its other support entries are
        # entries[:, k], at relays support[:, k]; shorter lists are padded with
        # zero entries, which add exact zeros to sums
        active = [np.flatnonzero(mask) for mask in supports(rows)]
        self.relay = np.array([np.flatnonzero(m >= m.max() - ZERO_TOL)[-1]
                               for m in np.abs(rows)], dtype=np.intp)
        self.pivot = rows[np.arange(len(rows)), self.relay].astype(np.complex128)
        self.pivot_power = np.abs(self.pivot) ** 2
        self.star_deviation = self.deviation[config.relay_count + self.relay]
        slots = max((idx.size - 1 for idx in active), default=0)
        self.support = np.zeros((slots, len(rows)), dtype=np.intp)
        self.entries = np.zeros((slots, len(rows)), dtype=np.complex128)
        for k, (row, idx, star) in enumerate(zip(rows, active, self.relay)):
            others = idx[idx != star]
            self.support[:others.size, k] = others
            self.entries[:others.size, k] = row[others]
        rest = 1.0 - ALPHA_PLAIN - ALPHA_FADE
        if len(rows):
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
        # a at r* is f g sqrt(rho) (snr_terms), linear in g with this coefficient
        coef_star = f_star * np.sqrt(rho_star)
        c = self.pivot[k] * coef_star
        mu = -acc / c
        den += self.pivot_power[k] * (mu.real ** 2 + mu.imag ** 2) * rho_star
        return mu, den / (self.p0 * (c.real ** 2 + c.imag ** 2))

    def prepare(self, gen: np.random.Generator, size: int,
                buffers: ChunkBuffers) -> PreparedDraw:
        """The power-independent part of `size` trials from q, for `states`.

        Draws from `gen`, in this order, the true-law gains into `buffers`'
        "states" role, the uniform that picks each trial's component and the
        (2R, size) fade coins.  The gains are then copied, relay-major, into
        the "prepared" role, which `states` leaves unchanged; the
        PreparedDraw's h is a view of it, valid until the next `prepare` on
        the same buffers.
        """
        r_count = self.config.relay_count
        f, g = sample_channels(self.config, gen, size, _draw_out(buffers, r_count, size))
        uniform = gen.random(size)
        fade = gen.integers(0, 2, (2 * r_count, size), dtype=np.bool_)
        pick = np.searchsorted(self.cum_alpha, uniform, side="right")
        np.minimum(pick, len(self.cum_alpha) - 1, out=pick)
        h = buffers.take("prepared", (2 * r_count,), size, complex)
        np.copyto(h[:r_count], f.T)
        np.copyto(h[r_count:], g.T)
        # a coin fades its gain except on the trials drawn from the true law
        fade &= pick > 0
        trials = np.flatnonzero(pick >= 2)
        k = pick[trials] - 2
        star = self.relay[k]
        return PreparedDraw(h, np.flatnonzero(fade), k, star * size + trials,
                            self.support[:, k] * size + trials, fade[r_count + star, trials])

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
        h = buffers.take("states", (2 * r_count,), n, complex)
        np.copyto(h, draw.h)
        # the fading gains are gathered into scratch, scaled and put back; weights
        # fills the scratch's role only after this call has returned
        flat = h.ravel()
        scratch = buffers.take("hit_states", (2 * r_count,), n, complex).ravel()
        faded = np.take(flat, draw.fade_at, out=scratch[:draw.fade_at.size], mode="clip")
        faded *= self.fade_scale
        flat[draw.fade_at] = faded
        products = channel_products(h[:r_count].T, h[r_count:].T,
                                    _products_out(buffers, r_count, n))
        rho, a, b = geometry_at_power(products, self.config, self.power,
                                      _geometry_out(buffers, r_count, n))
        # f, the first R rows of h, shares the flat indices of rho, a and b;
        # g is R rows further on
        at, g_at = draw.star_at, draw.star_at + r_count * n
        f_star, rho_star = h.take(at), rho.take(at)
        mu, s2 = self._cancel_point(draw.k, a.take(draw.support_at), b.take(draw.support_at),
                                    f_star, rho_star)
        # the gain's own standard draw serves as the component's CN(0, 1)
        scale = np.where(draw.star_fades, self.fade_scale, 1.0)
        unit = h.take(g_at) / (scale * self.star_deviation[draw.k])
        g_star = mu + np.sqrt(s2) * unit
        flat[g_at] = g_star
        a.ravel()[at], b.ravel()[at] = snr_terms(f_star, g_star, rho_star)
        return h, (rho, a, b)

    def weights(self, h, geometry, trials, buffers: ChunkBuffers):
        """Likelihood ratio p/q, bounded by 1 / ALPHA_PLAIN, from `states`' output.

        Evaluated at the given trial indices only; each trial's weight
        depends on that trial alone.  The gathers at those trials and the
        intermediates are taken from `buffers`, one role each, none of which
        may hold h or geometry; the weights are a fresh array.
        """
        r_count = self.config.relay_count
        hits = trials.size
        slots, k = self.support.shape
        states = buffers.take("hit_states", (2 * r_count,), hits, complex)
        z2 = buffers.take("z2", (2 * r_count,), hits)
        log_gain = buffers.take("log_gain", (2 * r_count,), hits)
        # mode="clip" lets take write straight into `out`; every index is valid
        np.take(h, trials, axis=1, out=states, mode="clip")
        # z2 = (re^2 + im^2) / variance, with log_gain as scratch
        np.square(states.real, out=z2)
        np.square(states.imag, out=log_gain)
        z2 += log_gain
        z2 /= self.variance
        # q_fade / p per gain is (1 + r exp(-(r - 1) |z|^2)) / 2, r = P / F
        r = self.fade_ratio
        np.multiply(z2, -(r - 1.0), out=log_gain)
        if r >= 1.0:
            np.maximum(log_gain, _EXP_FLOOR, out=log_gain)
            np.exp(log_gain, out=log_gain)
            log_gain *= 0.5 * r
            log_gain += 0.5
            np.log(log_gain, out=log_gain)
        else:
            # below P = F the exponent is positive and exp could overflow
            log_gain += math.log(r)
            np.logaddexp(0.0, log_gain, out=log_gain)
            log_gain -= math.log(2.0)
        terms = buffers.take("terms", (k + 2,), hits)
        log_fade = buffers.take("log_fade", (), hits)
        np.sum(log_gain, axis=0, out=log_fade)
        terms[0] = self.log_alpha[0]
        np.add(self.log_alpha[1], log_fade, out=terms[1])
        # f, the first R rows of h, shares the flat indices of the geometry
        rho, a, b = geometry
        star_at = buffers.take("star_at", (k,), hits, np.intp)
        support_at = buffers.take("support_at", (slots, k), hits, np.intp)
        np.add((h.shape[1] * self.relay)[:, None], trials, out=star_at)
        np.add((h.shape[1] * self.support)[..., None], trials, out=support_at)
        a_support = buffers.take("a_support", (slots, k), hits, complex)
        b_support = buffers.take("b_support", (slots, k), hits)
        star = buffers.take("star", (k,), hits, complex)
        rho_star = buffers.take("rho_star", (k,), hits)
        scratch = buffers.take("scratch", (k,), hits)
        np.take(a, support_at, out=a_support, mode="clip")
        np.take(b, support_at, out=b_support, mode="clip")
        np.take(h, star_at, out=star, mode="clip")
        np.take(rho, star_at, out=rho_star, mode="clip")
        mu, s2 = self._cancel_point(np.arange(k)[:, None], a_support, b_support,
                                    star, rho_star)
        # star turns from f into dev = g - mu at r*, and rho_star into scratch
        row = r_count + self.relay
        dev = np.take(states, row, axis=0, out=star, mode="clip")
        dev -= mu
        # the cancellation terms, in the order log_alpha + log_fade - log_gain
        # + log(variance / s2) - |dev|^2 / s2 + z2 at g's row of r*
        cancel = terms[2:]
        np.add(self.log_alpha[2:, None], log_fade, out=cancel)
        cancel -= np.take(log_gain, row, axis=0, out=scratch, mode="clip")
        np.divide(self.variance[row], s2, out=scratch)
        cancel += np.log(scratch, out=scratch)
        np.square(dev.real, out=scratch)
        scratch += np.square(dev.imag, out=rho_star)
        scratch /= s2
        cancel -= scratch
        cancel += np.take(z2, row, axis=0, out=scratch, mode="clip")
        top = np.max(terms, axis=0, out=log_fade)
        terms -= top
        np.maximum(terms, _EXP_FLOOR, out=terms)
        np.exp(terms, out=terms)
        np.negative(top, out=top)
        return np.divide(np.exp(top, out=top), terms.sum(axis=0))

    def sample(self, gen: np.random.Generator, size: int):
        """Draw `size` channel states from q; returns (f, g, weights p/q).

        f and g have shape (size, R) like sample_channels.  Each call uses
        an arena of its own, so it returns fresh arrays.
        """
        r_count = self.config.relay_count
        buffers = ChunkBuffers(size)
        h, geometry = self.states(self.prepare(gen, size, buffers), buffers)
        return h[:r_count].T, h[r_count:].T, self.weights(h, geometry, np.arange(size), buffers)


def draw_groups(plans: Sequence[SimulationPlan]) -> list[list[int]]:
    """The indices of `plans` that share one draw per chunk, grouped in order
    of first appearance.

    Plain plans of one network, seed, grid and trial count draw the same
    channels in every chunk and form the same geometry at every power, so
    estimate_ser evaluates those whose evaluators are of one kind (finite or
    continuous, which picks the strand count) on one draw.  An importance
    plan maps its draw to each power's channel states through its own
    codebook's proposal, so it is a group of its own.
    """
    groups = {}
    for i, plan in enumerate(plans):
        key = ((plan.network, plan.seed, plan.p_grid_db, plan.trials_per_point,
                isinstance(plan.evaluators[0], FiniteEvaluator))
               if plan.estimator == "plain" else i)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def estimate_ser(*plans: SimulationPlan):
    """Monte Carlo SER at every grid point of each plan: a SerCurve for one
    plan, a tuple of them in argument order for several.

    Chunk c draws its trials once, from the counter stream (seed,
    Lane.CHUNKS, c), and evaluates them at every grid power; per-point
    partial sums combine in chunk order, so worker_count() never changes the
    output bits, and point i of a curve equals a one-point plan at
    p_grid_db[i].  The plans of one
    draw_groups group share each chunk's draw, products and geometry, so a
    curve's bits do not depend on the other plans of the call.  With
    estimator "importance" each power maps the draw through its own
    DefensiveMixture and weights its Q values by the likelihood ratio.
    """
    if not plans:
        raise TypeError("estimate_ser needs at least one plan")
    curves = [None] * len(plans)
    for group in draw_groups(plans):
        for i, curve in zip(group, _estimate_group([plans[i] for i in group])):
            curves[i] = curve
    return curves[0] if len(plans) == 1 else tuple(curves)


def _estimate_group(plans: list) -> list:
    """The curves of one draw_groups group, in its order."""
    lead = plans[0]
    config = lead.network
    r_count = config.relay_count
    powers = [PowerLevel.from_db(p_db) for p_db in lead.p_grid_db]

    # chunk_q(gen, size, buffers) draws a chunk of `size` trials from `gen`
    # and yields its Q values at each grid power, for each plan in turn
    if lead.estimator == "plain":
        def chunk_q(gen, size, buffers):
            f, g = sample_channels(config, gen, size, _draw_out(buffers, r_count, size))
            products = channel_products(f, g, _products_out(buffers, r_count, size))
            for i, power in enumerate(powers):
                geometry = geometry_at_power(products, config, power,
                                             _geometry_out(buffers, r_count, size))
                for plan in plans:
                    yield _q_values(plan.evaluators[i].best_snr(
                        f, g, config, power, geometry=geometry, buffers=buffers), buffers)
    else:
        proposals = [DefensiveMixture(config, power, ev.canonical
                                      if isinstance(ev, FiniteEvaluator) else None)
                     for power, ev in zip(powers, lead.evaluators)]

        def chunk_q(gen, size, buffers):
            # the mixtures of one plan share their components
            prepared = proposals[0].prepare(gen, size, buffers)
            for proposal, power, ev in zip(proposals, powers, lead.evaluators):
                h, geometry = proposal.states(prepared, buffers)
                q = _q_values(ev.best_snr(h[:r_count].T, h[r_count:].T, config, power,
                                          geometry=geometry, buffers=buffers), buffers)
                # a trial with Q = 0 adds 0 whatever its weight
                hit = np.flatnonzero(q)
                q[hit] *= proposal.weights(h, geometry, hit, buffers)
                yield q

    n = lead.trials_per_point
    capacity = min(CHUNK_TRIALS, n)

    def run_chunks(chunks):
        buffers = ChunkBuffers(capacity)
        return [[(float(q.sum()), float(np.square(q).sum()))
                 for q in chunk_q(_rng.stream(lead.seed, _rng.Lane.CHUNKS, c),
                                  min(CHUNK_TRIALS, n - c * CHUNK_TRIALS), buffers)]
                for c in chunks]

    chunks = range(-(-n // CHUNK_TRIALS))
    threads = min(worker_count(), len(chunks))
    # a finite group's many short numpy calls would contend for the
    # interpreter lock; a continuous family's maximizer is long numpy calls,
    # which overlap across threads
    strands = 1 if isinstance(lead.evaluators[0], FiniteEvaluator) else threads
    if strands == 1:
        partials = run_chunks(chunks)
    else:
        # strand w draws and evaluates chunks w, w + strands, ... in an arena
        # of its own, so chunk c is item c // strands of strand c % strands
        with ThreadPoolExecutor(max_workers=strands) as pool:
            done = list(pool.map(run_chunks, (chunks[w::strands] for w in range(strands))))
        partials = [done[c % strands][c // strands] for c in chunks]

    # a chunk's partials run over the powers and, within each power, over the
    # plans, so plan j's points are every len(plans)-th entry from j
    ser, std_err = [], []
    for point in zip(*partials):
        mean = _fold_sum(s1 for s1, _ in point) / n
        var = (max(0.0, (_fold_sum(s2 for _, s2 in point) - n * mean * mean) / (n - 1))
               if n > 1 else 0.0)
        ser.append(mean)
        std_err.append(math.sqrt(var / n))
    m = len(plans)
    return [SerCurve(lead.p_grid_db, tuple(ser[j::m]), tuple(std_err[j::m]), (n,) * len(powers))
            for j in range(m)]


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
