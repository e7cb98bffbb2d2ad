"""Network model for a parallel amplify-and-forward relay hop.

A transmitter reaches a receiver through R relays and no direct link.  Relay r
hears the transmitter over channel f_r, the receiver hears relay r over g_r,
and the relay retransmits a scaled, phase-rotated copy of its noisy input.
Noise is unit-variance complex Gaussian at every node.  The transmitter and
relay power budgets all scale linearly with one common constraint P, and each
relay normalizes its gain by the channel-inversion factor

    rho_r = p_r P / (1 + |f_r|^2 p_0 P)

which keeps its instantaneous output inside the short-term budget.  All power
arithmetic is done in linear scale; dB appears only at I/O boundaries.

Every SNR in the package, p_0 P |sum_r x_r a_r|^2 / (1 + sum_r |x_r|^2 b_r)
with a_r = f_r g_r sqrt(rho_r) and b_r = |g_r|^2 rho_r, is read off
snr_geometry, the one place that forms (rho, a, b).  It returns them
relay-major, as contiguous (R, n) rows over n channel states, so that sums
over relays add whole rows; beamformed_snr evaluates the SNR on them.

Relay indices in public arguments and reports are 1-based, matching the usual
"relay 1 .. relay R" numbering; arrays are of course 0-based internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Beamforming magnitudes may exceed 1 by at most this much (hand-entered data).
MAGNITUDE_TOL = 1e-9

# |peak| within this of 1 is treated as an exact unit peak when vectors are
# rotated to canonical phase; keeps phase-rotated selection vectors bit-equal.
UNIT_SNAP_TOL = 1e-12


def _positive_tuple(name: str, values, expect_len: int) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if len(out) != expect_len:
        raise ValueError(f"{name} must have length {expect_len}, got {len(out)}")
    for v in out:
        if not (v > 0.0) or not math.isfinite(v):
            raise ValueError(f"{name} entries must be positive and finite, got {v}")
    return out


@dataclass(frozen=True)
class NetworkConfig:
    """Fixed network parameters.

    power_scalers has length R + 1: entry 0 scales the transmitter budget and
    entry r scales relay r; the common constraint P multiplies every scaler.
    variance_f[r-1] and variance_g[r-1] are the variances of f_r and g_r.
    """

    relay_count: int
    power_scalers: tuple[float, ...]
    variance_f: tuple[float, ...]
    variance_g: tuple[float, ...]

    def __post_init__(self):
        r = self.relay_count
        if not isinstance(r, int) or r < 1:
            raise ValueError(f"relay_count must be an integer >= 1, got {r!r}")
        object.__setattr__(
            self, "power_scalers", _positive_tuple("power_scalers", self.power_scalers, r + 1)
        )
        object.__setattr__(self, "variance_f", _positive_tuple("variance_f", self.variance_f, r))
        object.__setattr__(self, "variance_g", _positive_tuple("variance_g", self.variance_g, r))


@dataclass(frozen=True)
class PowerLevel:
    """Common power constraint P, stored in linear scale."""

    linear: float

    def __post_init__(self):
        p = float(self.linear)
        if not (p > 0.0) or not math.isfinite(p):
            raise ValueError(f"power must be positive and finite, got {self.linear!r}")
        object.__setattr__(self, "linear", p)

    @classmethod
    def from_db(cls, db: float) -> "PowerLevel":
        return cls(10.0 ** (float(db) / 10.0))

    @property
    def db(self) -> float:
        return 10.0 * math.log10(self.linear)


@dataclass(frozen=True)
class ChannelState:
    """One realization of all 2R channel gains."""

    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=np.complex128)
        g = np.asarray(self.g, dtype=np.complex128)
        if f.ndim != 1 or g.ndim != 1 or f.shape != g.shape:
            raise ValueError("f and g must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(f.real)) and np.all(np.isfinite(f.imag))
                and np.all(np.isfinite(g.real)) and np.all(np.isfinite(g.imag))):
            raise ValueError("channel gains must be finite")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

    @property
    def relay_count(self) -> int:
        return self.f.shape[0]


@dataclass(frozen=True)
class BeamformingVector:
    """Per-relay complex weights with |x_r| <= 1 (short-term power constraint)."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.complex128)
        if x.ndim != 1 or x.shape[0] < 1:
            raise ValueError("beamforming vector must be a non-empty 1-d array")
        mags = np.abs(x)
        if not np.all(np.isfinite(mags)):
            raise ValueError("beamforming weights must be finite")
        worst = float(mags.max())
        if worst > 1.0 + MAGNITUDE_TOL:
            raise ValueError(f"beamforming magnitude {worst} exceeds 1")
        object.__setattr__(self, "x", x)


def sample_channels(config: NetworkConfig, gen: np.random.Generator, count: int):
    """Draw `count` independent channel states; returns (f, g) of shape (count, R).

    Real and imaginary parts of f_r are independent Gaussians with variance
    variance_f[r-1] / 2, likewise for g_r, so E|f_r|^2 = variance_f[r-1].
    """
    r = config.relay_count
    zf = gen.standard_normal((count, r, 2))
    zg = gen.standard_normal((count, r, 2))
    sf = np.sqrt(np.asarray(config.variance_f) / 2.0)
    sg = np.sqrt(np.asarray(config.variance_g) / 2.0)
    # each trailing (re, im) pair of float64 normals is one complex128
    f = zf.view(np.complex128)[..., 0] * sf
    g = zg.view(np.complex128)[..., 0] * sg
    return f, g


def sample_channel(config: NetworkConfig, gen: np.random.Generator) -> ChannelState:
    """Draw a single channel state from `gen`."""
    f, g = sample_channels(config, gen, 1)
    return ChannelState(f[0], g[0])


def relay_gains(f, config: NetworkConfig, power) -> np.ndarray:
    """Channel-inversion gains rho_r = p_r P / (1 + |f_r|^2 p_0 P), vectorized.

    `f` has shape (..., R); the result matches its shape.  `power` is a
    PowerLevel, or linear power: a float or one value per channel state.
    """
    f = np.asarray(f, dtype=np.complex128)
    p = np.asarray(getattr(power, "linear", power), dtype=float)[..., None]
    scal = np.asarray(config.power_scalers)
    absf2 = f.real * f.real + f.imag * f.imag
    return (scal[1:] * p) / (1.0 + absf2 * (scal[0] * p))


def relay_gain(relay: int, h: ChannelState, config: NetworkConfig, power: PowerLevel) -> float:
    """Normalization gain of one relay (1-based index)."""
    if not 1 <= relay <= config.relay_count:
        raise ValueError(f"relay index {relay} out of range 1..{config.relay_count}")
    return float(relay_gains(h.f, config, power)[relay - 1])


def snr_terms(f, g, rho):
    """Elementwise SNR terms (a, b) = (f g sqrt(rho), |g|^2 rho).

    a is linear in g, so at g = 1 it is the coefficient that multiplies g.
    """
    return f * g * np.sqrt(rho), (g.real * g.real + g.imag * g.imag) * rho


def snr_geometry(f, g, config: NetworkConfig, power):
    """Relay-major SNR geometry (rho, a, b) of channel states f, g of shape (n, R).

    Returns three contiguous (R, n) arrays: the relay gains rho (see
    relay_gains, which also documents `power`) and the terms a, b of
    snr_terms.  Row r holds relay r over all n states.
    """
    f = np.ascontiguousarray(np.asarray(f, dtype=np.complex128).T)
    g = np.ascontiguousarray(np.asarray(g, dtype=np.complex128).T)
    rho = np.ascontiguousarray(relay_gains(f.T, config, power).T)
    return (rho,) + snr_terms(f, g, rho)


def beamformed_sums(x, a, b):
    """(sum_r x_r a_r, 1 + sum_r |x_r|^2 b_r) on a relay-major geometry.

    x[r] is relay r's weight: a scalar, or an array that broadcasts against
    a[r] (one weight per state, say).  The reduction over relays is an
    explicit accumulation, so results are bit-identical regardless of BLAS
    backend or thread count; zero scalar weights are skipped.
    """
    acc = den = None
    for r, xr in enumerate(x):
        if np.ndim(xr) or xr != 0:
            term = a[r] * xr
            weight = b[r] * (xr.real * xr.real + xr.imag * xr.imag)
            if acc is None:
                acc, den = term, 1.0 + weight
            else:
                acc += term
                den += weight
    if acc is None:
        return np.zeros(a.shape[1:], dtype=np.complex128), np.ones(a.shape[1:])
    return acc, den


def beamformed_snr(x, a, b, p0) -> np.ndarray:
    """SNR p0 |sum_r x_r a_r|^2 / (1 + sum_r |x_r|^2 b_r), see beamformed_sums."""
    acc, den = beamformed_sums(x, a, b)
    return (p0 * (acc.real * acc.real + acc.imag * acc.imag)) / den


def snr_per_vector(vectors: np.ndarray, f: np.ndarray, g: np.ndarray,
                   config: NetworkConfig, power: PowerLevel, *, geometry=None) -> np.ndarray:
    """Received SNR of each candidate vector at each channel state.

    vectors: (K, R) complex, f/g: (n, R).  Returns (n, K), evaluated by
    beamformed_snr on one snr_geometry: `geometry` when the caller already
    holds snr_geometry(f, g, config, power), else a fresh one.
    """
    vectors = np.asarray(vectors, dtype=np.complex128)
    p0 = config.power_scalers[0] * power.linear
    _, a, b = geometry if geometry is not None else snr_geometry(f, g, config, power)
    out = np.empty((a.shape[1], vectors.shape[0]))
    for k, x in enumerate(vectors):
        out[:, k] = beamformed_snr(x, a, b, p0)
    return out


def received_snr(x, h: ChannelState, config: NetworkConfig, power: PowerLevel) -> float:
    """Received SNR for one beamforming vector at one channel state."""
    xv = x.x if isinstance(x, BeamformingVector) else np.asarray(x, dtype=np.complex128)
    if xv.shape[0] != h.relay_count:
        raise ValueError("vector length does not match channel state")
    return float(snr_per_vector(xv[None, :], h.f[None, :], h.g[None, :], config, power)[0, 0])


def canonical_rows(vectors: np.ndarray) -> np.ndarray:
    """Rotate each row's global phase so its largest-magnitude entry is real >= 0.

    Received SNR is invariant under a global phase on the beamforming vector,
    so evaluating the canonical representative is operationally equivalent and
    makes phase-rotated copies of a vector compare bit-identically.  A peak
    within UNIT_SNAP_TOL of magnitude 1 is snapped to exactly 1.0.
    """
    vectors = np.asarray(vectors, dtype=np.complex128)
    out = vectors.copy()
    for i, row in enumerate(vectors):
        mags = np.abs(row)
        pivot = int(np.argmax(mags))
        peak = float(mags[pivot])
        if peak == 0.0:
            continue
        out[i] = row * (np.conj(row[pivot]) / peak)
        out[i, pivot] = 1.0 if abs(peak - 1.0) <= UNIT_SNAP_TOL else peak
    return out
