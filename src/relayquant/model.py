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
snr_geometry is two steps in a row: channel_products forms the products
that do not depend on P, (f g, |f|^2, |g|^2), and geometry_at_power forms
(rho, a, b) from them at one power.  A caller that evaluates one draw at
many powers runs the first step once.  Both steps, and sample_channels,
can write into arrays the caller holds; ChunkBuffers is the arena that a
Monte Carlo strand holds them in.

Which rows of a codebook are one beamformer, in simulate and analyze alike,
is decided here: supports (entries above ZERO_TOL), canonical_rows (pivot on
the first entry within ZERO_TOL of the peak) and phase_classes.

Relay indices in public arguments and reports are 1-based, matching the usual
"relay 1 .. relay R" numbering; arrays are of course 0-based internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Beamforming magnitudes may exceed 1 by at most this much (hand-entered data).
MAGNITUDE_TOL = 1e-9

# Magnitudes, entrywise distances and deviations from 1 at most this large
# count as zero: an entry is in its vector's support, the relays the vector
# uses, iff its magnitude exceeds ZERO_TOL (see supports).
ZERO_TOL = 1e-12


def _positive_tuple(name: str, values, expect_len: int) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if len(out) != expect_len:
        raise ValueError(f"{name} must have length {expect_len}, got {len(out)}")
    for v in out:
        if not (v > 0.0) or not math.isfinite(v):
            raise ValueError(f"{name} entries must be positive and finite, got {v}")
    return out


def relay_columns(rset, relay_count: int) -> list[int]:
    """Ascending 0-based columns of rset, a non-empty set of 1-based relays."""
    idx = sorted({int(r) for r in rset})
    if not idx or idx[0] < 1 or idx[-1] > relay_count:
        raise ValueError(f"rset must be a non-empty subset of 1..{relay_count}")
    return [r - 1 for r in idx]


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
        try:
            return cls(10.0 ** (float(db) / 10.0))
        except OverflowError:
            raise ValueError(f"power must be positive and finite, got {db!r} dB") from None


class ChunkBuffers:
    """The scratch arena that one strand reuses for its chunks.

    `take` hands out views of named roles.  A role's flat store is
    allocated at its first request, for `capacity` trials, and each caller
    requests a role with one (rows, dtype) throughout, so a chunk after the
    first takes no fresh pages for it, and a caller allocates only the roles
    it requests.  Each strand has an arena of its own, so no role is taken
    by two threads.

    montecarlo's chunk loop draws the channels, forms their products and
    each power's geometry, and writes the Q values into roles; the
    importance proposal's prepare, states and weights, and the evaluators'
    best_snr (with codebooks.constrained_best_snr) do the same with theirs.
    An array they return from the arena is a view, valid until the next
    call on the same arena.  Still allocated per call: beamformed_sums'
    accumulators (each finite beamformer's SNR and the importance
    proposal's cancellation points), the proposal's per-chunk coins and
    indices, its gathers at r* and its weights, and the squared Q values
    that a chunk's sums fold.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._flat = {}

    def take(self, role: str, rows: tuple, n: int, dtype=float) -> np.ndarray:
        """The C-contiguous (*rows, n) leading view of `role`'s store."""
        size = math.prod(rows)
        store = self._flat.get(role)
        if store is None:
            store = self._flat[role] = np.empty(size * self.capacity, dtype=dtype)
        return store[:size * n].reshape(*rows, n)


def sample_channels(config: NetworkConfig, gen: np.random.Generator, count: int, out=None):
    """Draw `count` independent channel states; returns (f, g) of shape (count, R).

    Real and imaginary parts of f_r are independent Gaussians with variance
    variance_f[r-1] / 2, likewise for g_r, so E|f_r|^2 = variance_f[r-1].
    `out`, a contiguous complex (2, count, R) array, receives f and g in
    place; the draws are the same either way.
    """
    r = config.relay_count
    if out is None:
        out = np.empty((2, count, r), dtype=np.complex128)
    for states, variance in zip(out, (config.variance_f, config.variance_g)):
        # each trailing (re, im) pair of float64 normals is one complex128
        gen.standard_normal((count, r, 2), out=states.view(np.float64).reshape(count, r, 2))
        np.multiply(states, np.sqrt(np.asarray(variance) / 2.0), out=states)
    return out[0], out[1]


def relay_gains(f, config: NetworkConfig, power, absf2=None, out=None) -> np.ndarray:
    """Channel-inversion gains rho_r = p_r P / (1 + |f_r|^2 p_0 P), vectorized.

    `f` has shape (..., R); the result matches its shape.  `power` is a
    PowerLevel, or linear power: a float or one value per channel state.  A
    caller that already holds |f|^2 passes it as `absf2` in place of f, and
    `out` receives the result.
    """
    if absf2 is None:
        f = np.asarray(f, dtype=np.complex128)
        absf2 = f.real * f.real + f.imag * f.imag
    p = np.asarray(getattr(power, "linear", power), dtype=float)[..., None]
    scal = np.asarray(config.power_scalers)
    out = np.multiply(absf2, scal[0] * p, out=out)
    out += 1.0
    return np.divide(scal[1:] * p, out, out=out)


def snr_terms(f, g, rho):
    """Elementwise SNR terms (a, b) = (f g sqrt(rho), |g|^2 rho).

    a is linear in g, so at g = 1 it is the coefficient that multiplies g.
    """
    return f * g * np.sqrt(rho), (g.real * g.real + g.imag * g.imag) * rho


def channel_products(f, g, out=None):
    """Relay-major, power-independent products (f g, |f|^2, |g|^2) of states f, g.

    f, g have shape (n, R).  Returns three contiguous (R, n) arrays, complex,
    float and float, written into `out` when given.  Row r holds relay r.
    """
    f = np.asarray(f, dtype=np.complex128).T
    g = np.asarray(g, dtype=np.complex128).T
    if out is None:
        out = (np.empty(f.shape, dtype=np.complex128), np.empty(f.shape), np.empty(f.shape))
    fg, f2, g2 = out
    # |z|^2 = re^2 + im^2, with the real part of fg as scratch before f g
    scratch = fg.real
    for z, z2 in ((f, f2), (g, g2)):
        np.multiply(z.real, z.real, out=z2)
        np.multiply(z.imag, z.imag, out=scratch)
        z2 += scratch
    np.multiply(f, g, out=fg)
    return out


def geometry_at_power(products, config: NetworkConfig, power, out=None):
    """SNR geometry (rho, a, b) at one power from channel_products' output.

    rho are the relay gains (see relay_gains, which also documents `power`),
    a = (f g) sqrt(rho) and b = |g|^2 rho.  Returns three contiguous (R, n)
    arrays, float, complex and float, written into `out` when given.
    """
    fg, f2, g2 = products
    if out is None:
        out = (np.empty(f2.shape), np.empty(fg.shape, dtype=np.complex128), np.empty(f2.shape))
    rho, a, b = out
    relay_gains(None, config, power, f2.T, rho.T)
    np.sqrt(rho, out=b)
    np.multiply(fg, b, out=a)
    np.multiply(g2, rho, out=b)
    return out


def snr_geometry(f, g, config: NetworkConfig, power):
    """Relay-major SNR geometry (rho, a, b) of channel states f, g of shape (n, R).

    channel_products followed by geometry_at_power: three contiguous (R, n)
    arrays, the relay gains rho and the terms a, b of snr_terms.
    """
    return geometry_at_power(channel_products(f, g), config, power)


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


def beamformed_snr(x, a, b, p0, out=None) -> np.ndarray:
    """SNR p0 |sum_r x_r a_r|^2 / (1 + sum_r |x_r|^2 b_r), see beamformed_sums,
    written into `out` when given."""
    acc, den = beamformed_sums(x, a, b)
    return np.divide(p0 * (acc.real * acc.real + acc.imag * acc.imag), den, out=out)


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
    # K-major storage: each vector's column is contiguous, so a reduction
    # over vectors runs over whole rows
    out = np.empty((vectors.shape[0], a.shape[1])).T
    for k, x in enumerate(vectors):
        beamformed_snr(x, a, b, p0, out=out[:, k])
    return out


def supports(vectors) -> np.ndarray:
    """(K, R) bool mask of the entries of (K, R) `vectors` that are in their
    row's support: those whose magnitude exceeds ZERO_TOL."""
    return np.abs(np.asarray(vectors)) > ZERO_TOL


def canonical_rows(vectors: np.ndarray) -> np.ndarray:
    """Rotate each row's global phase so its pivot entry is real >= 0.

    The pivot is the row's first entry within ZERO_TOL of its peak magnitude,
    so copies of a vector that differ by a global phase pivot alike and agree
    entrywise within ZERO_TOL; received SNR does not change under that phase.
    A pivot within ZERO_TOL of magnitude 1 is snapped to exactly 1.0, and every
    entry outside its row's support is set to exactly 0, so code that skips
    zero entries follows the support rule.
    """
    vectors = np.asarray(vectors, dtype=np.complex128)
    out = vectors.copy()
    for i, row in enumerate(vectors):
        mags = np.abs(row)
        pivot = int(np.argmax(mags >= mags.max() - ZERO_TOL))
        peak = float(mags[pivot])
        if peak == 0.0:
            continue
        out[i] = row * (np.conj(row[pivot]) / peak)
        out[i, pivot] = 1.0 if abs(peak - 1.0) <= ZERO_TOL else peak
    out[~supports(vectors)] = 0.0
    return out


def phase_classes(vectors: np.ndarray) -> list[int]:
    """Index of the first row of each phase class, the rows that agree
    entrywise within ZERO_TOL in canonical phase: one beamformer per class."""
    canon = canonical_rows(vectors)
    kept: list[int] = []
    for i, row in enumerate(canon):
        if not kept or np.abs(canon[kept] - row).max(axis=1).min() > ZERO_TOL:
            kept.append(i)
    return kept
