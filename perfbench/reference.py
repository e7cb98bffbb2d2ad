"""Reference computations the benchmark checks the program against.

None of these call into relayquant: they are worked out again from the
model's definitions, so an error in the program cannot hide in its own check.

* srs_ser: the SER of single-relay selection by numerical quadrature.
* exact_cophased_snr: the exact maximum SNR of a constrained continuous
  family, from its KKT conditions.
* min_hitting_set: the smallest relay set that meets every vector's support,
  by enumeration over itertools.combinations.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate


def _tail_gap(lam: float) -> float:
    """J(lam) = int_0^inf (1 - e^{-lam / z}) e^{-z} dz, for lam > 0.

    Integrated over tau = ln z, where the integrand is smooth for any lam.
    """
    def integrand(tau):
        z = math.exp(tau)
        return -math.expm1(-lam / z) * math.exp(-z) * z

    centre = math.log(lam)
    value, _ = integrate.quad(integrand, min(centre, 0.0) - 40.0, 5.0, points=[centre],
                              epsabs=0.0, epsrel=1e-10, limit=200)
    return value


def _relay_cdf(x, p0, pr, vf, vg):
    """P[SNR_r <= x] for one relay used alone.

    With a = |f_r|^2 ~ Exp(vf) and b = |g_r|^2 ~ Exp(vg), the relay gain is
    rho = pr / (1 + p0 a) and SNR_r = p0 a b rho / (1 + b rho).  Below
    a0 = x / p0 the SNR stays under x whatever b is; above it SNR_r <= x
    exactly when b <= x (1 + p0 a) / (pr (p0 a - x)).  Writing
    p0 a - x = p0 vf z with z ~ Exp(1), that bound over vg is
    kappa (1 + gamma / z) with kappa = x / (vg pr), gamma = (1 + x) / (p0 vf), so

        F = (1 - e^{-a0/vf}) + e^{-a0/vf} [(1 - e^{-kappa}) + e^{-kappa} J(kappa gamma)].

    Every term is positive, so F keeps its relative accuracy when it is tiny.
    """
    if x <= 0.0:
        return 0.0
    a0 = x / p0
    kappa = x / (vg * pr)
    gamma = (1.0 + x) / (p0 * vf)
    inner = -math.expm1(-kappa) + math.exp(-kappa) * _tail_gap(kappa * gamma)
    return -math.expm1(-a0 / vf) + math.exp(-a0 / vf) * inner


def srs_ser(power_scalers, variance_f, variance_g, p_db: float) -> float:
    """SER of single-relay selection at p_db, by quadrature.

    SER = E[Q(sqrt(2 S))] with S = max_r SNR_r over independent relays, so

        SER = int_0^inf e^{-x} / (2 sqrt(pi x)) prod_r F_r(x) dx.

    The substitution x = t^2 removes the singularity at 0.
    """
    p = 10.0 ** (p_db / 10.0)
    p0 = power_scalers[0] * p
    relays = [(power_scalers[r + 1] * p, variance_f[r], variance_g[r])
              for r in range(len(variance_f))]

    def integrand(t):
        x = t * t
        prod = 1.0
        for pr, vf, vg in relays:
            prod *= _relay_cdf(x, p0, pr, vf, vg)
        return math.exp(-x) / math.sqrt(math.pi) * prod

    # the integrand is negligible past t = 7 (e^-49 against a first factor
    # of at least P^-R at t ~ 1 for every network the benchmark runs)
    value, _ = integrate.quad(integrand, 0.0, 7.0, epsabs=0.0, epsrel=1e-9, limit=200)
    return value


def _objective(m, u, w, p0):
    num = (u * m).sum(axis=1)
    return p0 * num * num / (1.0 + (w * m * m).sum(axis=1))


def exact_cophased_snr(u, w, p0: float, lo):
    """Exact max over m in prod_r [lo_r, 1] of p0 (u.m)^2 / (1 + w.(m*m)).

    u, w: (n, R) non-negative co-phased coefficients (u_r = |f_r g_r| sqrt(rho_r),
    w_r = |g_r|^2 rho_r); lo: (R,) lower bounds.  At the maximum the KKT
    conditions give m = clip(c u / w, lo, 1) with c = D / N.  Along that curve
    the set of unclipped coordinates changes only at the breakpoints
    c = lo_r w_r / u_r and c = w_r / u_r; between two breakpoints the
    objective (N0 + c A)^2 / (D0 + c^2 A) has its one stationary point at
    c = D0 / N0, where N0 and D0 are the clipped coordinates' sums.  The
    maximum is the best of these stationary points and the breakpoints.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), u.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(u > 0.0, w / u, np.inf)       # c at which m_r reaches 1
        slope = np.where(w > 0.0, u / w, np.inf)       # dm_r / dc while free
    breaks = np.sort(np.concatenate([lo * ratio, ratio], axis=1), axis=1)
    breaks = np.where(np.isfinite(breaks), breaks, 0.0)

    def at(c):
        with np.errstate(invalid="ignore"):
            m = np.clip(c[:, None] * slope, lo, 1.0)
        m = np.where(np.isnan(m), np.where(slope == 0.0, lo, 1.0), m)
        return _objective(m, u, w, p0)

    best = at(np.full(u.shape[0], np.inf))
    edges = np.concatenate([np.zeros((u.shape[0], 1)), breaks,
                            np.full((u.shape[0], 1), np.inf)], axis=1)
    for s in range(edges.shape[1] - 1):
        left, right = edges[:, s], edges[:, s + 1]
        best = np.maximum(best, at(left))
        mid = np.where(np.isfinite(right), 0.5 * (left + right), left + 1.0)
        with np.errstate(invalid="ignore"):
            m_mid = np.clip(mid[:, None] * slope, lo, 1.0)
        m_mid = np.where(np.isnan(m_mid), np.where(slope == 0.0, lo, 1.0), m_mid)
        free = (m_mid > lo) & (m_mid < 1.0)
        fixed = np.where(free, 0.0, m_mid)
        n0 = (u * fixed).sum(axis=1)
        d0 = 1.0 + (w * fixed * fixed).sum(axis=1)
        with np.errstate(divide="ignore"):
            c_star = np.where(n0 > 0.0, d0 / n0, right)
        c_star = np.clip(c_star, left, right)
        best = np.maximum(best, at(np.where(np.isfinite(c_star), c_star, left)))
    return best


def cophased_coefficients(f, g, power_scalers, p_db: float):
    """(u, w, p0) of the co-phased SNR for channel draws f, g of shape (n, R)."""
    p = 10.0 ** (p_db / 10.0)
    scal = np.asarray(power_scalers, dtype=float)
    absf2 = f.real ** 2 + f.imag ** 2
    rho = scal[1:] * p / (1.0 + absf2 * scal[0] * p)
    u = np.abs(f) * np.abs(g) * np.sqrt(rho)
    w = (g.real ** 2 + g.imag ** 2) * rho
    return u, w, scal[0] * p


def min_hitting_set(supports) -> int:
    """Size of the smallest relay set that meets every support.

    supports: one set of 0-based relay indices per vector.  Walks
    itertools.combinations by increasing size; raises on an empty support.
    """
    masks = [sum(1 << r for r in s) for s in supports]
    if any(mask == 0 for mask in masks):
        raise ValueError("a vector has empty support")
    relays = sorted(set().union(*supports))
    for size in range(1, len(relays) + 1):
        for combo in itertools.combinations(relays, size):
            chosen = sum(1 << r for r in combo)
            if all(mask & chosen for mask in masks):
                return size
    raise ValueError("no hitting set")
