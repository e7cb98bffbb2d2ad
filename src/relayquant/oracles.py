"""Closed-form distributional results used as non-simulation ground truth.

For R independent unit-rate gamma (exponential) variates Z_1..Z_R, the ratio
Z = max_r Z_r / min_r Z_r has the exact distribution

    F_Z(z) = Gamma(R) / prod_{r=1}^{R-1} (r + R/(z-1)),   z >= 1,

evaluated here in product form, which stays stable as z -> 1 where the
gamma-function quotient would overflow.  Together with a pointwise lower
bound on the ratio density, a classical lower bound on the Gaussian tail,
and a hard upper bound on the received SNR in terms of the fading ratio,
these give the test suite analytically known targets to audit the Monte
Carlo machinery against.  The continuous-family maximizer is audited by its
KKT certificate, which needs no reference value at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import rng as _rng
from .codebooks import constrained_best_snr
from .model import (
    BeamformingVector,
    ChannelState,
    NetworkConfig,
    PowerLevel,
    received_snr,
    relay_gains,
    sample_channels,
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


def snr_upper_bound(h: ChannelState, x, rset: Iterable[int],
                    config: NetworkConfig, power: PowerLevel) -> float:
    """Hard cap on the received SNR in terms of the fading of an index set.

    The cap is c / w * P * Y * Z where
      w = max_{r in rset} |x_r|^2            (weight the set can rely on),
      Y = 1/P + sum_{r in rset} |f_r|^2 / var_f_r,
      Z = max_r(|g_r|^2/var_g_r) / min_r(|g_r|^2/var_g_r),
      c = R^2 * max(1, p_0 max_r var_f_r) * max_r(p_r var_g_r) / min_r(p_r var_g_r).

    Returns inf when w = 0 (the bound is vacuous there).
    """
    xv = x.x if isinstance(x, BeamformingVector) else np.asarray(x, dtype=np.complex128)
    r_count = config.relay_count
    idx = sorted({int(r) for r in rset})
    if not idx or idx[0] < 1 or idx[-1] > r_count:
        raise ValueError(f"rset must be a non-empty subset of 1..{r_count}")
    cols = [r - 1 for r in idx]

    p = power.linear
    scal = np.asarray(config.power_scalers)
    var_f = np.asarray(config.variance_f)
    var_g = np.asarray(config.variance_g)

    weight = float((np.abs(xv[cols]) ** 2).max())
    if weight == 0.0:
        return math.inf
    relay_budget = scal[1:] * var_g
    const = (r_count**2 * max(1.0, scal[0] * var_f.max())
             * relay_budget.max() / relay_budget.min())
    y = 1.0 / p + float((np.abs(h.f[cols]) ** 2 / var_f[cols]).sum())
    gnorm = np.abs(h.g) ** 2 / var_g
    z = float(gnorm.max() / gnorm.min()) if r_count > 1 else 1.0
    return const / weight * p * y * z


def snr_upper_bound_holds(h: ChannelState, x, rset: Iterable[int],
                          config: NetworkConfig, power: PowerLevel) -> bool:
    """Property check: the received SNR never exceeds its fading-ratio cap."""
    return received_snr(x, h, config, power) <= snr_upper_bound(h, x, rset, config, power)


# ---------------------------------------------------------------------------
# Audit suite.  The deterministic checks (Q bound, SNR cap, KKT certificate)
# fail only on an implementation bug.  The ratio-CDF checks test against a
# 99%-confidence DKW band, so a correct program fails one of them on about
# one seed in a hundred; a failure there calls for a rerun at another seed
# before it is read as a bug.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    statistic: float
    threshold: float
    detail: str


def dkw_band(samples: int, confidence: float = 0.99) -> float:
    """Dvoretzky-Kiefer-Wolfowitz band: sup |F_hat - F| bound at the confidence."""
    alpha = 1.0 - confidence
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * samples))


def audit_ratio_cdf(count: int, samples: int, seed: int) -> AuditCheck:
    """Empirical CDF of simulated max/min ratios vs the exact CDF, DKW band."""
    dist = MaxMinRatio(count)
    z = np.sort(dist.sample(samples, _rng.stream(seed, 1, count)))
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


def audit_ratio_pdf_bound(count: int, samples: int, seed: int,
                          z_max: float = 11.0, bins: int = 40) -> AuditCheck:
    """Histogram density of the ratio vs its lower bound, with 3-sigma slack."""
    dist = MaxMinRatio(count)
    draws = dist.sample(samples, _rng.stream(seed, 2, count))
    edges = np.linspace(1.0, z_max, bins + 1)
    counts, _ = np.histogram(draws, bins=edges)
    width = edges[1] - edges[0]
    mids = 0.5 * (edges[:-1] + edges[1:])
    frac = counts / samples
    density = frac / width
    sigma = np.sqrt(np.maximum(frac * (1.0 - frac), 1e-300) / samples) / width
    bound = dist.pdf_lower_bound(mids)
    margin = float((bound - (density + 3.0 * sigma)).max())
    return AuditCheck(
        name=f"ratio-pdf-bound-r{count}",
        passed=margin <= 0.0,
        statistic=margin,
        threshold=0.0,
        detail=f"max(bound - histogram - 3 sigma) over {bins} bins",
    )


def audit_q_bound(points: int = 1000, x_max: float = 10.0) -> AuditCheck:
    """q_lower_bound(x) <= Q(x) on a dense grid in [0, x_max]."""
    x = np.linspace(0.0, x_max, points)
    gap = float((q_lower_bound(x) - gaussian_tail(x)).max())
    return AuditCheck(
        name="q-lower-bound",
        passed=gap <= 0.0,
        statistic=gap,
        threshold=0.0,
        detail=f"max(bound - Q) over {points} grid points",
    )


def audit_snr_bound(samples: int, seed: int,
                    config: Optional[NetworkConfig] = None) -> AuditCheck:
    """Randomized audit that the received SNR never beats its analytic cap."""
    if config is None:
        config = NetworkConfig(2, (1.0, 0.5, 2.0), (1.2, 0.8), (1.5, 0.7))
    r_count = config.relay_count
    subsets = [tuple(r + 1 for r in range(r_count) if mask >> r & 1)
               for mask in range(1, 1 << r_count)]
    gen = _rng.stream(seed, 3, 0)
    per_subset = max(1, samples // len(subsets))
    failures = 0
    worst = -math.inf
    checked = 0
    for rset in subsets:
        cols = [r - 1 for r in rset]
        zf = gen.standard_normal((per_subset, r_count, 2))
        zg = gen.standard_normal((per_subset, r_count, 2))
        sf = np.sqrt(np.asarray(config.variance_f) / 2.0)
        sg = np.sqrt(np.asarray(config.variance_g) / 2.0)
        f = (zf[..., 0] + 1j * zf[..., 1]) * sf
        g = (zg[..., 0] + 1j * zg[..., 1]) * sg
        mags = gen.uniform(0.0, 1.0, (per_subset, r_count))
        phases = gen.uniform(0.0, 2.0 * math.pi, (per_subset, r_count))
        xs = mags * np.exp(1j * phases)
        p_db = gen.uniform(0.0, 50.0, per_subset)

        p = 10.0 ** (p_db / 10.0)
        scal = np.asarray(config.power_scalers)
        var_f = np.asarray(config.variance_f)
        var_g = np.asarray(config.variance_g)
        absf2 = np.abs(f) ** 2
        rho = (scal[1:] * p[:, None]) / (1.0 + absf2 * (scal[0] * p[:, None]))
        num = np.abs((xs * f * g * np.sqrt(rho)).sum(axis=1)) ** 2
        den = 1.0 + ((mags**2) * np.abs(g) ** 2 * rho).sum(axis=1)
        snr = scal[0] * p * num / den

        weight = (mags[:, cols] ** 2).max(axis=1)
        relay_budget = scal[1:] * var_g
        const = (r_count**2 * max(1.0, scal[0] * var_f.max())
                 * relay_budget.max() / relay_budget.min())
        y = 1.0 / p + (absf2[:, cols] / var_f[cols]).sum(axis=1)
        gnorm = np.abs(g) ** 2 / var_g
        z = gnorm.max(axis=1) / gnorm.min(axis=1) if r_count > 1 else np.ones(per_subset)
        cap = const / weight * p * y * z

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
    `samples` draws spread evenly over two asymmetric networks, epsilon in
    {0, 1/16, 1/4, 1} on relay 1 and 0-50 dB.  A magnitude outside
    [lo_r, 1] counts as a violation of its size.
    """
    networks = (NetworkConfig(2, (1.0, 0.5, 2.0), (1.2, 0.8), (1.5, 0.7)),
                NetworkConfig(3, (1.0, 0.5, 2.0, 2.0), (1.2, 0.8, 1.0), (1.5, 1.7, 0.7)))
    cells = [(config, eps, p_db) for config in networks
             for eps in (0.0, 1.0 / 16.0, 0.25, 1.0) for p_db in range(0, 60, 10)]
    per_cell = max(1, samples // len(cells))
    worst = 0.0
    for i, (config, eps, p_db) in enumerate(cells):
        power = PowerLevel.from_db(p_db)
        f, g = sample_channels(config, _rng.stream(seed, 4, i), per_cell)
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


def run_audits(samples: int = 10**6, seed: int = 20260808) -> list[AuditCheck]:
    """Full audit table: CDF at R in {2,3,4}, PDF bound, Q bound, SNR cap, KKT."""
    checks = [audit_ratio_cdf(r, samples, seed) for r in (2, 3, 4)]
    checks.append(audit_ratio_pdf_bound(2, samples, seed))
    checks.append(audit_q_bound())
    checks.append(audit_snr_bound(max(1000, samples // 10), seed))
    checks.append(audit_cophased_maximizer(KKT_SAMPLES, seed))
    return checks
