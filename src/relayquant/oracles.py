"""Closed-form distributional results used as non-simulation ground truth.

For R independent unit-rate gamma (exponential) variates Z_1..Z_R, the ratio
Z = max_r Z_r / min_r Z_r has the exact distribution

    F_Z(z) = Gamma(R) / prod_{r=1}^{R-1} (r + R/(z-1)),   z >= 1,

evaluated here in product form, which stays stable as z -> 1 where the
gamma-function quotient would overflow.  Together with a pointwise lower
bound on the ratio density, a classical lower bound on the Gaussian tail,
and snr_upper_bounds, a hard cap on the received SNR at each channel state
in terms of the fading ratio, these give the test suite analytically known
targets to audit the Monte Carlo machinery against.  The continuous-family
maximizer is audited by its KKT certificate, which needs no reference value
at all.

run_audits' defaults, AUDIT_SAMPLES draws at seed AUDIT_SEED, are also those
of `relayquant oracle`.  The density audit takes each bin's sigma from the
bound's own bin mass, the null, not from the bin's count.  The SNR-cap and
KKT audits draw on the fixed AUDIT_NETWORKS, and every other audit size
(DKW_CONFIDENCE, the PDF_BINS bins on [1, PDF_Z_MAX], Q_X_MAX) is a module
constant, not a parameter.

single_relay_ser is the exact SER, by quadrature, of a codebook whose
vectors each use one relay; the importance-sampling estimator is tested
against it.  It is not one of run_audits' checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import special

from . import rng as _rng
from .codebooks import constrained_best_snr
from .model import (
    NetworkConfig,
    PowerLevel,
    beamformed_snr,
    relay_columns,
    relay_gains,
    sample_channels,
    snr_geometry,
    supports,
)
from .montecarlo import gaussian_tail


@dataclass(frozen=True)
class MaxMinRatio:
    """Distribution of max/min over `count` iid unit-rate gamma variates."""

    count: int

    def __post_init__(self):
        if int(self.count) < 2:
            raise ValueError("ratio distribution needs at least 2 variates")
        object.__setattr__(self, "count", int(self.count))

    def cdf(self, z):
        """Exact CDF, vectorized; 0 for z < 1, -> 1 as z -> infinity."""
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        above = z > 1.0
        if np.any(above):
            za = z[above]
            a = self.count / (za - 1.0)
            prod = np.ones_like(za)
            for r in range(1, self.count):
                prod *= r + a
            out[above] = math.gamma(self.count) / prod
        return out if out.ndim else float(out)

    def pdf_lower_bound(self, z):
        """Pointwise lower bound on the ratio density for z > 1."""
        z = np.asarray(z, dtype=float)
        r = self.count
        coeff = (r - 1) * math.gamma(r + 1) / r**r
        out = np.where(z > 1.0, coeff * (z - 1.0) ** (r - 2) / z**r, 0.0)
        return out if out.ndim else float(out)

    def sample(self, n: int, gen: np.random.Generator) -> np.ndarray:
        draws = gen.standard_exponential((n, self.count))
        return draws.max(axis=1) / draws.min(axis=1)


def q_lower_bound(x):
    """Gaussian tail lower bound Q(x) >= x / (1 + x^2) * phi(x), x >= 0."""
    x = np.asarray(x, dtype=float)
    out = x / (1.0 + x * x) * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return out if out.ndim else float(out)


def snr_upper_bounds(f, g, x, rset: Iterable[int], config: NetworkConfig, p) -> np.ndarray:
    """Hard cap on the received SNR in terms of the fading of an index set.

    f, g and the beamforming vectors x have shape (n, R); p is the linear
    power, a float or one value per state.  The cap is c / w * P * Y * Z where
      w = max_{r in rset} |x_r|^2            (weight the set can rely on),
      Y = 1/P + sum_{r in rset} |f_r|^2 / var_f_r,
      Z = max_r(|g_r|^2/var_g_r) / min_r(|g_r|^2/var_g_r),
      c = R^2 * max(1, p_0 max_r var_f_r) * max_r(p_r var_g_r) / min_r(p_r var_g_r).

    The cap is inf where w = 0 (the bound is vacuous there).
    """
    r_count = config.relay_count
    cols = relay_columns(rset, r_count)

    scal = np.asarray(config.power_scalers)
    var_f = np.asarray(config.variance_f)
    var_g = np.asarray(config.variance_g)

    weight = (np.abs(x[:, cols]) ** 2).max(axis=1)
    relay_budget = scal[1:] * var_g
    const = (r_count**2 * max(1.0, scal[0] * var_f.max())
             * relay_budget.max() / relay_budget.min())
    y = 1.0 / p + (np.abs(f[:, cols]) ** 2 / var_f[cols]).sum(axis=1)
    gnorm = np.abs(g) ** 2 / var_g
    z = gnorm.max(axis=1) / gnorm.min(axis=1) if r_count > 1 else 1.0
    with np.errstate(divide="ignore"):
        return const / weight * p * y * z


def single_relay_ser(config: NetworkConfig, vectors, power: PowerLevel) -> float:
    """SER of a codebook whose vectors each use one relay (SRS and its
    subsets), by quadrature.

    A vector that uses relay r alone with magnitude m has SNR
    XY / (1 + X + Y), where X = p_0 P |f_r|^2 and Y = m^2 p_r P |g_r|^2 are
    independent exponentials of means mx = p_0 P var_f,r and
    my = m^2 p_r P var_g,r.  SNR > s holds iff X > s and
    Y > s (1 + X) / (X - s); integrating over X - s with
    int_0^inf exp(-a u - b / u) du = 2 sqrt(b / a) K_1(2 sqrt(a b)) gives

        P[SNR <= s] = 1 - z K_1(z) exp(-c),
        z = 2 sqrt(s (1 + s) / (mx my)),   c = s (1 / mx + 1 / my),

    evaluated as (1 - e^-c) + e^-c (1 - z K_1(z)), whose terms are both
    positive, so a tiny probability keeps its relative accuracy.  The
    selected SNR S is the largest over the relays used, each at its largest
    magnitude, so its CDF is the product of theirs, and with
    Q(sqrt(2 s)) = int_s^inf e^-x / (2 sqrt(pi x)) dx,

        SER = E[Q(sqrt(2 S))] = int_0^inf P[S <= x] e^-x / (2 sqrt(pi x)) dx.

    As F_S is increasing and at most 1, the integral past X is at most e^-X,
    so it stops at X = 30 - ln F_S(1), where that tail is below e^-30 times
    the SER's share from [1, 2].  Raises ValueError if a vector does not use
    exactly one relay.

    Importance sampling is checked against it (tests/test_oracles.py): SRS
    on the fig2 network at 30, 40 and 50 dB, 24 seeds not used in tuning
    the proposal (3001-3024, 65,536 trials each), whose pooled mean must lie
    within 3 pooled standard errors of this value at each power.  It read
    1.8, 1.9 and 1.9 pooled sigma off (+0.9% to +1.0%).  A proposal that
    fades by 1 / P (k = 1) passes this check at these seeds as well, at
    2.3, 1.5 and 1.5 sigma, because the one seed that reads far too high
    widens the pooled sigma along with the mean; the test's second check,
    a median std_err / ser of at most 0.04, fails it (0.058-0.069, against
    0.023-0.024).
    """
    from scipy import integrate  # costs about 0.3 s; the CLI never needs it

    vectors = np.asarray(vectors)
    mask = supports(vectors)
    if vectors.ndim != 2 or not np.all(mask.sum(axis=1) == 1):
        raise ValueError("every vector must use exactly one relay")
    magnitude = np.where(mask, np.abs(vectors), 0.0).max(axis=0)
    p = power.linear
    scalers = config.power_scalers
    means = [(scalers[0] * p * vf, m * m * sr * p * vg)
             for m, sr, vf, vg in zip(magnitude, scalers[1:], config.variance_f,
                                      config.variance_g) if m > 0.0]

    def cdf(s):
        if s <= 0.0:
            return 0.0
        out = 1.0
        for mx, my in means:
            z = 2.0 * math.sqrt(s * (1.0 + s) / (mx * my))
            c = s * (1.0 / mx + 1.0 / my)
            out *= -math.expm1(-c) + math.exp(-c) * (1.0 - z * float(special.k1(z)))
        return out

    def kernel(x):
        # the weight x^(-1/2) is left to quad on [0, 1]
        return cdf(x) * math.exp(-x) / (2.0 * math.sqrt(math.pi))

    end = 30.0 - math.log(cdf(1.0))
    head, _ = integrate.quad(kernel, 0.0, 1.0, weight="alg", wvar=(-0.5, 0.0),
                             epsabs=0.0, epsrel=1e-10, limit=200)
    tail, _ = integrate.quad(lambda x: kernel(x) / math.sqrt(x), 1.0, end,
                             epsabs=0.0, epsrel=1e-10, limit=200)
    return head + tail


# ---------------------------------------------------------------------------
# Audit suite.  The deterministic checks (Q bound, SNR cap, KKT certificate)
# fail only on an implementation bug.  The ratio-CDF checks test against a
# DKW band of confidence DKW_CONFIDENCE, so a correct program fails one of
# them on about one seed in a hundred; a failure there calls for a rerun at
# another seed before it is read as a bug.
# ---------------------------------------------------------------------------

AUDIT_SAMPLES = 10**6
AUDIT_SEED = 20260808
# asymmetric R = 2 and 3 networks: the SNR-cap audit uses the first, the KKT audit both
AUDIT_NETWORKS = (NetworkConfig(2, (1.0, 0.5, 2.0), (1.2, 0.8), (1.5, 0.7)),
                  NetworkConfig(3, (1.0, 0.5, 2.0, 2.0), (1.2, 0.8, 1.0), (1.5, 1.7, 0.7)))
DKW_CONFIDENCE = 0.99
PDF_Z_MAX = 11.0     # the ratio-density histogram has PDF_BINS bins on [1, PDF_Z_MAX]
PDF_BINS = 40
Q_X_MAX = 10.0       # the Q bound is checked on [0, Q_X_MAX]


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    statistic: float
    threshold: float
    detail: str


def dkw_band(samples: int) -> float:
    """Dvoretzky-Kiefer-Wolfowitz band: sup |F_hat - F| bound at DKW_CONFIDENCE."""
    alpha = 1.0 - DKW_CONFIDENCE
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * samples))


def audit_ratio_cdf(count: int, samples: int, seed: int) -> AuditCheck:
    """Empirical CDF of simulated max/min ratios vs the exact CDF, DKW band."""
    dist = MaxMinRatio(count)
    z = np.sort(dist.sample(samples, _rng.stream(seed, _rng.Lane.RATIO_CDF, count)))
    theory = dist.cdf(z)
    i = np.arange(1, samples + 1)
    dev = max(float((i / samples - theory).max()),
              float((theory - (i - 1) / samples).max()))
    band = dkw_band(samples)
    return AuditCheck(
        name=f"ratio-cdf-r{count}",
        passed=dev <= band,
        statistic=dev,
        threshold=band,
        detail=f"sup deviation over {samples} samples",
    )


def audit_ratio_pdf_bound(count: int, samples: int, seed: int) -> AuditCheck:
    """Histogram of the ratio vs its density lower bound, with 3-sigma slack.

    Each bin is tested against the null value p0 = bound * width of its
    probability, with the null's sigma sqrt(p0 (1 - p0) / samples): the
    statistic is max((p0 - frac - 3 sigma) / width).  Taking sigma from the
    null, not from the bin's own fraction, keeps the slack of an empty bin,
    which small sample counts leave often.
    """
    dist = MaxMinRatio(count)
    draws = dist.sample(samples, _rng.stream(seed, _rng.Lane.RATIO_PDF, count))
    edges = np.linspace(1.0, PDF_Z_MAX, PDF_BINS + 1)
    counts, _ = np.histogram(draws, bins=edges)
    width = edges[1] - edges[0]
    mids = 0.5 * (edges[:-1] + edges[1:])
    p0 = dist.pdf_lower_bound(mids) * width
    sigma = np.sqrt(p0 * (1.0 - p0) / samples)
    margin = float(((p0 - counts / samples - 3.0 * sigma) / width).max())
    return AuditCheck(
        name=f"ratio-pdf-bound-r{count}",
        passed=margin <= 0.0,
        statistic=margin,
        threshold=0.0,
        detail=f"max(bound - histogram - 3 null sigma) over {PDF_BINS} bins",
    )


def audit_q_bound(points: int = 1000) -> AuditCheck:
    """q_lower_bound(x) <= Q(x) on a dense grid in [0, Q_X_MAX]."""
    x = np.linspace(0.0, Q_X_MAX, points)
    gap = float((q_lower_bound(x) - gaussian_tail(x)).max())
    return AuditCheck(
        name="q-lower-bound",
        passed=gap <= 0.0,
        statistic=gap,
        threshold=0.0,
        detail=f"max(bound - Q) over {points} grid points",
    )


def audit_snr_bound(samples: int, seed: int) -> AuditCheck:
    """Randomized audit on AUDIT_NETWORKS[0] that the program's SNR kernel never
    beats its analytic cap."""
    config = AUDIT_NETWORKS[0]
    r_count = config.relay_count
    subsets = [tuple(r + 1 for r in range(r_count) if mask >> r & 1)
               for mask in range(1, 1 << r_count)]
    gen = _rng.stream(seed, _rng.Lane.SNR_BOUND, 0)
    per_subset = max(1, samples // len(subsets))
    failures = 0
    worst = -math.inf
    checked = 0
    for rset in subsets:
        f, g = sample_channels(config, gen, per_subset)
        mags = gen.uniform(0.0, 1.0, (per_subset, r_count))
        phases = gen.uniform(0.0, 2.0 * math.pi, (per_subset, r_count))
        xs = mags * np.exp(1j * phases)
        p = 10.0 ** (gen.uniform(0.0, 50.0, per_subset) / 10.0)
        _, a, b = snr_geometry(f, g, config, p)
        snr = beamformed_snr(xs.T, a, b, config.power_scalers[0] * p)
        cap = snr_upper_bounds(f, g, xs, rset, config, p)

        failures += int(np.count_nonzero(snr > cap))
        worst = max(worst, float((snr / cap).max()))
        checked += per_subset
    return AuditCheck(
        name="snr-upper-bound",
        passed=failures == 0,
        statistic=worst,
        threshold=1.0,
        detail=f"{failures} violations in {checked} random draws (max snr/cap shown)",
    )


# Fixed draw budget of the KKT audit in run_audits: the certificate is exact,
# so its cost need not grow with the suite's sample count.
KKT_SAMPLES = 4800
KKT_TOL = 1e-9


def audit_cophased_maximizer(samples: int, seed: int) -> AuditCheck:
    """KKT certificate of constrained_best_snr's magnitudes at R = 2 and 3.

    With N = u.m and D = 1 + w.(m*m), the gradient of N^2 / D in m_r has
    the sign of g_r = u_r D - N w_r m_r.  At the maximum g_r vanishes at a
    free coordinate, is >= 0 at m_r = 1 and <= 0 at m_r = lo_r (a pinned
    relay with lo_r = 1 is fixed).  The statistic is the worst violation of
    these conditions, with g_r normalized by u_r D + N w_r m_r, over
    `samples` draws spread evenly over AUDIT_NETWORKS, epsilon in
    {0, 1/16, 1/4, 1} on relay 1 and 0-50 dB.  A magnitude outside
    [lo_r, 1] counts as a violation of its size.
    """
    cells = [(config, eps, p_db) for config in AUDIT_NETWORKS
             for eps in (0.0, 1.0 / 16.0, 0.25, 1.0) for p_db in range(0, 60, 10)]
    per_cell = max(1, samples // len(cells))
    worst = 0.0
    for i, (config, eps, p_db) in enumerate(cells):
        power = PowerLevel.from_db(p_db)
        f, g = sample_channels(config, _rng.stream(seed, _rng.Lane.KKT, i), per_cell)
        mag, _ = constrained_best_snr(f, g, config, power, eps, 1)
        rho = relay_gains(f, config, power)
        u = np.abs(f * g) * np.sqrt(rho)
        w = np.abs(g) ** 2 * rho
        lo = np.zeros(config.relay_count)
        lo[0] = math.sqrt(eps)
        num = (u * mag).sum(axis=1, keepdims=True)
        den = 1.0 + (w * mag * mag).sum(axis=1, keepdims=True)
        grad = (u * den - num * w * mag) / (u * den + num * w * mag)
        slack = np.where(mag >= 1.0, -grad, np.where(mag <= lo, grad, np.abs(grad)))
        violation = np.maximum(np.where(lo < 1.0, slack, 0.0), np.maximum(lo - mag, mag - 1.0))
        worst = max(worst, float(violation.max()))
    return AuditCheck(
        name="cophased-kkt",
        passed=worst <= KKT_TOL,
        statistic=worst,
        threshold=KKT_TOL,
        detail=f"worst normalized KKT violation over {per_cell * len(cells)} draws",
    )


def run_audits(samples: int = AUDIT_SAMPLES, seed: int = AUDIT_SEED) -> list[AuditCheck]:
    """Full audit table: CDF at R in {2,3,4}, PDF bound, Q bound, SNR cap, KKT."""
    checks = [audit_ratio_cdf(r, samples, seed) for r in (2, 3, 4)]
    checks.append(audit_ratio_pdf_bound(2, samples, seed))
    checks.append(audit_q_bound())
    checks.append(audit_snr_bound(max(1000, samples // 10), seed))
    checks.append(audit_cophased_maximizer(KKT_SAMPLES, seed))
    return checks
