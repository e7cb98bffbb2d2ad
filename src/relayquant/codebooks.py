"""Codebook construction and evaluation.

Covers every quantizer family the simulator needs: explicit finite lists,
single-relay selection (SRS), unitary transforms of finite codebooks, and the
constrained continuous families

    C(eps, r) = { x : |x_q| <= 1 for all q, |x_r|^2 >= eps }

optimized per channel state by an inner maximizer.  A power-dependent variant
resolves eps = 1/log(P) at each power level, so one spec object describes a
whole family of per-power codebooks.

The continuous maximizer is exact.  For fixed magnitudes the best phases
align every numerator term: set arg(x_q) = -arg(f_q g_q).  That leaves the
magnitude problem max (u.m)^2 / (1 + w.(m*m)) over a box, whose objective is
quasi-concave; its KKT conditions put the optimum on the one-parameter curve
m(c) = clip(c u / w, lo, 1), which has at most 2R breakpoints and one
closed-form stationary point between each pair (Jing & Jafarkhani, IEEE
Trans. IT 55(6), 2009).  Checking those O(R) candidates costs O(R^2) per
channel state and needs no tuning knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .model import (
    MAGNITUDE_TOL,
    BeamformingVector,
    ChannelState,
    NetworkConfig,
    PowerLevel,
    canonical_rows,
    snr_geometry,
    snr_per_vector,
)

UNITARY_TOL = 1e-10


class CodebookError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class FiniteCodebook:
    """A finite list of beamforming vectors, stored as a (K, R) complex matrix."""

    vectors: np.ndarray
    label: str = ""

    def __post_init__(self):
        mat = np.asarray(self.vectors, dtype=np.complex128)
        if mat.ndim == 1:
            mat = mat[None, :]
        if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
            raise CodebookError("codebook must be a non-empty list of non-empty vectors")
        mags = np.abs(mat)
        if not np.all(np.isfinite(mags)):
            raise CodebookError("codebook entries must be finite")
        worst = float(mags.max())
        if worst > 1.0 + MAGNITUDE_TOL:
            raise CodebookError(f"beamforming magnitude {worst} exceeds 1")
        object.__setattr__(self, "vectors", mat)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def relay_count(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class SrsSpec:
    """Single-relay selection: R vectors, the r-th puts e^{j theta_r} on relay r."""

    theta: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))
        if len(self.theta) < 1:
            raise CodebookError("srs spec needs at least one phase")


@dataclass(frozen=True)
class UnitarySpec:
    """Right-multiply every vector of a finite base codebook by a unitary matrix."""

    base: "FiniteSpec"
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        deviation = _unitary_deviation(mat)
        if deviation > UNITARY_TOL:
            raise CodebookError(f"matrix is not unitary: max |U U^H - I| = {deviation:.3e}")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class ConstrainedSpec:
    """Continuous family with the pinned relay forced to |x_r|^2 >= epsilon."""

    epsilon: float
    pinned_relay: int

    def __post_init__(self):
        e = float(self.epsilon)
        if not 0.0 <= e <= 1.0:
            raise CodebookError(f"epsilon must lie in [0, 1], got {e}")
        if int(self.pinned_relay) < 1:
            raise CodebookError("pinned_relay is a 1-based relay index")
        object.__setattr__(self, "epsilon", e)
        object.__setattr__(self, "pinned_relay", int(self.pinned_relay))


@dataclass(frozen=True)
class FullCsiSpec:
    """Unconstrained short-term-power beamforming (epsilon = 0, no pinned relay)."""


@dataclass(frozen=True)
class PowerDependentSpec:
    """Constrained family whose bound tightens with power: epsilon = 1/log P."""

    pinned_relay: int

    def __post_init__(self):
        if int(self.pinned_relay) < 1:
            raise CodebookError("pinned_relay is a 1-based relay index")
        object.__setattr__(self, "pinned_relay", int(self.pinned_relay))


FiniteSpec = Union[FiniteCodebook, SrsSpec, UnitarySpec]
CodebookSpec = Union[FiniteSpec, ConstrainedSpec, FullCsiSpec, PowerDependentSpec]


def _unitary_deviation(mat: np.ndarray) -> float:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return math.inf
    gram = mat @ mat.conj().T
    return float(np.abs(gram - np.eye(mat.shape[0])).max())


def make_srs(relay_count: int, theta) -> FiniteCodebook:
    """Build the single-relay selection codebook for the given per-relay phases."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (relay_count,):
        raise CodebookError(
            f"theta must have length {relay_count}, got shape {theta.shape}")
    mat = np.zeros((relay_count, relay_count), dtype=np.complex128)
    for r in range(relay_count):
        mat[r, r] = np.exp(1j * theta[r])
    return FiniteCodebook(mat, label=f"srs({relay_count})")


def apply_unitary(cb: FiniteCodebook, matrix) -> FiniteCodebook:
    """Transform a codebook by a unitary matrix: each row vector x becomes x U."""
    mat = np.asarray(matrix, dtype=np.complex128)
    deviation = _unitary_deviation(mat)
    if deviation > UNITARY_TOL:
        raise CodebookError(f"matrix is not unitary: max |U U^H - I| = {deviation:.3e}")
    if mat.shape[0] != cb.relay_count:
        raise CodebookError("matrix size does not match codebook vector length")
    k, r = cb.vectors.shape
    out = np.zeros((k, r), dtype=np.complex128)
    for q in range(r):
        for rr in range(r):
            out[:, q] += cb.vectors[:, rr] * mat[rr, q]
    label = f"{cb.label}*U" if cb.label else "unitary"
    return FiniteCodebook(out, label=label)


def to_finite(spec: FiniteSpec) -> FiniteCodebook:
    """Materialize a power-independent finite spec into its vector list."""
    if isinstance(spec, FiniteCodebook):
        return spec
    if isinstance(spec, SrsSpec):
        return make_srs(len(spec.theta), spec.theta)
    if isinstance(spec, UnitarySpec):
        return apply_unitary(to_finite(spec.base), spec.matrix)
    raise CodebookError(f"not a finite codebook spec: {type(spec).__name__}")


def resolve_epsilon(spec, power: PowerLevel) -> float:
    """Constraint level of a continuous family at a given power."""
    if isinstance(spec, FullCsiSpec):
        return 0.0
    if isinstance(spec, ConstrainedSpec):
        return spec.epsilon
    if isinstance(spec, PowerDependentSpec):
        logp = math.log(power.linear)
        if logp < 1.0:
            raise CodebookError(
                f"power-dependent constraint needs P >= e, got P = {power.linear:g}")
        return 1.0 / logp
    raise CodebookError(f"not a constrained codebook spec: {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Continuous-family inner maximizer
# ---------------------------------------------------------------------------


def constrained_best_snr(f: np.ndarray, g: np.ndarray, config: NetworkConfig,
                         power: PowerLevel, epsilon: float,
                         pinned_relay: Optional[int],
                         grid_resolution: Optional[int] = None, *, geometry=None):
    """Exact per-state maximum SNR over a constrained family, vectorized.

    f, g: (n, R).  Returns (magnitudes (n, R), snr (n,)).  Phases are implied:
    the maximizer co-phases, arg(x_q) = -arg(f_q g_q), which leaves

        max  p0 (u.m)^2 / (1 + w.(m*m))   over   lo_r <= m_r <= 1

    with u_r = |a_r| and w_r = b_r from snr_geometry, and lo_r =
    sqrt(epsilon) at the pinned relay, 0 elsewhere.  The KKT conditions put
    the optimum on the curve m(c) = clip(c u / w, lo, 1), c >= 0.  Between
    two consecutive breakpoints c = lo_r w_r / u_r and c = w_r / u_r the
    clipped coordinates stay fixed, and the objective peaks at
    c = (1 + sum_fixed w_r m_r^2) / sum_fixed u_r m_r.  Each segment's peak,
    clipped into the segment, is a candidate; the best candidate is the
    maximum.  The work is O(R^2) per state.

    `geometry` is snr_geometry(f, g, config, power) when the caller already
    holds it.  grid_resolution is ignored.  It sized the magnitude grid of
    an earlier, approximate maximizer, and callers that pass it positionally
    (such as the benchmark in perfbench/) keep working.
    """
    n, r_count = f.shape
    if not 0.0 <= epsilon <= 1.0:
        raise CodebookError(f"epsilon must lie in [0, 1], got {epsilon}")
    lo = np.zeros(r_count)
    if pinned_relay is not None:
        if not 1 <= pinned_relay <= r_count:
            raise CodebookError(f"pinned relay {pinned_relay} out of range 1..{r_count}")
        lo[pinned_relay - 1] = math.sqrt(epsilon)

    p0 = config.power_scalers[0] * power.linear
    # relay-major (R, n) layout: sums over relays add contiguous rows
    _, a, w = geometry if geometry is not None else snr_geometry(f, g, config, power)
    u = np.abs(a)
    lo = lo[:, None]

    # Along the curve m_r leaves lo_r at c = enter_r and reaches 1 at
    # c = leave_r.  A relay with u_r = 0 adds nothing to the numerator, so
    # it stays at lo_r: both of its breakpoints are infinite.  A relay with
    # lo_r = 0 leaves it at c = 0, which adds no breakpoint.
    active = u > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(active, u / w, 0.0)
        leave = np.where(active, w / u, np.inf)
        enter = np.where(active, lo * leave, np.inf)
    edges = np.sort(np.concatenate([enter[lo[:, 0] > 0.0], leave]), axis=0)
    lefts = np.concatenate([np.zeros((1, n)), edges])
    rights = np.concatenate([edges, np.full((1, n), np.inf)])

    best_mag = np.empty((r_count, n))
    best_val = np.full(n, -np.inf)
    for left, right in zip(lefts, rights):
        fixed = np.where(right <= enter, lo, left >= leave)
        num0 = (u * fixed).sum(axis=0)
        den0 = 1.0 + (w * fixed * fixed).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            # num0 = 0 (nothing fixed above 0): the objective rises through
            # the segment, and the peak is its right end
            c = np.clip(den0 / num0, left, right)
            # m(c), with coordinates at a breakpoint set exactly to 1 or lo_r
            mag = np.where(c >= leave, 1.0, np.where(c <= enter, lo, c * slope))
        np.clip(mag, lo, 1.0, out=mag)
        num = (u * mag).sum(axis=0)
        val = p0 * num * num / (1.0 + (w * mag * mag).sum(axis=0))
        better = val > best_val
        np.copyto(best_val, val, where=better)
        np.copyto(best_mag, mag, where=better)
    return best_mag.T, best_val


def constrained_best_vector(spec, h: ChannelState, config: NetworkConfig,
                            power: PowerLevel):
    """Exact SNR maximizer over a constrained family at one channel state.

    Returns (BeamformingVector, snr).  The reported SNR is evaluated on the
    co-phased closed form, which equals received_snr of the returned vector
    up to roundoff.
    """
    evaluator = ConstrainedEvaluator(resolve_epsilon(spec, power),
                                     getattr(spec, "pinned_relay", None))
    return evaluator.choose(h, config, power)


# ---------------------------------------------------------------------------
# Evaluators: one per-channel-state "best vector" interface for all families
# ---------------------------------------------------------------------------


class FiniteEvaluator:
    """Brute-force argmax over an explicit vector list (canonical phases)."""

    def __init__(self, codebook: FiniteCodebook):
        self.codebook = codebook
        self.canonical = canonical_rows(codebook.vectors)

    def best_snr(self, f, g, config: NetworkConfig, power: PowerLevel, *,
                 geometry=None) -> np.ndarray:
        """Largest SNR over the codebook at each state; `geometry` as in snr_per_vector."""
        return snr_per_vector(self.canonical, f, g, config, power,
                              geometry=geometry).max(axis=1)

    def choose(self, h: ChannelState, config: NetworkConfig, power: PowerLevel):
        """SNR-maximizing entry at one state; returns (index, BeamformingVector).

        Ties go to the lowest index.  Entries are compared in canonical phase,
        so rotating one by a global phase never changes the winning SNR, only
        (possibly) which member of the phase class is reported.
        """
        if h.relay_count != self.codebook.relay_count:
            raise ValueError("codebook vector length does not match channel state")
        snrs = snr_per_vector(self.canonical, h.f[None, :], h.g[None, :], config, power)[0]
        idx = int(np.argmax(snrs))
        return idx, BeamformingVector(self.codebook.vectors[idx])


def optimal_encoder(codebook, h: ChannelState, config: NetworkConfig, power: PowerLevel):
    """FiniteEvaluator.choose on a FiniteCodebook, a sequence of vectors or an array."""
    if not isinstance(codebook, FiniteCodebook):
        rows = [getattr(v, "x", v) for v in codebook]
        if not rows:
            raise ValueError("empty codebook")
        codebook = FiniteCodebook(rows)
    return FiniteEvaluator(codebook).choose(h, config, power)


class ConstrainedEvaluator:
    """Exact co-phased maximizer of a constrained continuous family at one epsilon."""

    def __init__(self, epsilon: float, pinned_relay: Optional[int]):
        if not 0.0 <= epsilon <= 1.0:
            raise CodebookError(f"epsilon must lie in [0, 1], got {epsilon}")
        self.epsilon = float(epsilon)
        self.pinned_relay = pinned_relay

    def best_snr(self, f, g, config: NetworkConfig, power: PowerLevel, *,
                 geometry=None) -> np.ndarray:
        """Maximum SNR over the family at each state; `geometry` as in constrained_best_snr."""
        _, val = constrained_best_snr(f, g, config, power, self.epsilon, self.pinned_relay,
                                      geometry=geometry)
        return val

    def choose(self, h: ChannelState, config: NetworkConfig, power: PowerLevel):
        mag, val = constrained_best_snr(h.f[None, :], h.g[None, :], config, power,
                                        self.epsilon, self.pinned_relay)
        phases = np.exp(-1j * np.angle(h.f * h.g))
        return BeamformingVector(mag[0] * phases), float(val[0])


def resolve_codebook(spec: CodebookSpec, power: PowerLevel):
    """Bind a codebook spec to a power level, yielding a per-state evaluator.

    Finite specs ignore the power level; the power-dependent family resolves
    its constraint at P first.  This is the map "power level -> codebook"
    realized as something callable per channel state.
    """
    if isinstance(spec, (FiniteCodebook, SrsSpec, UnitarySpec)):
        return FiniteEvaluator(to_finite(spec))
    if isinstance(spec, (ConstrainedSpec, FullCsiSpec, PowerDependentSpec)):
        eps = resolve_epsilon(spec, power)
        return ConstrainedEvaluator(eps, getattr(spec, "pinned_relay", None))
    raise CodebookError(f"unknown codebook spec: {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Phase-class utilities (SNR is invariant under a global phase per vector)
# ---------------------------------------------------------------------------


def phase_classes(vectors: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Distinct vectors up to a global phase, compared entrywise within tol."""
    canon = canonical_rows(np.asarray(vectors, dtype=np.complex128))
    kept: list[np.ndarray] = []
    for row in canon:
        if not any(np.abs(row - rep).max() <= tol for rep in kept):
            kept.append(row)
    return np.stack(kept) if kept else np.empty((0, canon.shape[1]), dtype=np.complex128)


def same_codebook(a, b, tol: float = 1e-12) -> bool:
    """Multiset equality of two vector lists up to global phases and tol."""
    av = canonical_rows(_vectors_of(a))
    bv = canonical_rows(_vectors_of(b))
    if av.shape != bv.shape:
        return False
    remaining = list(range(bv.shape[0]))
    for row in av:
        hit = next((j for j in remaining if np.abs(row - bv[j]).max() <= tol), None)
        if hit is None:
            return False
        remaining.remove(hit)
    return True


def _vectors_of(cb) -> np.ndarray:
    if isinstance(cb, FiniteCodebook):
        return cb.vectors
    mat = np.asarray(cb, dtype=np.complex128)
    return mat[None, :] if mat.ndim == 1 else mat


# ---------------------------------------------------------------------------
# JSON wire format: complex numbers are always [re, im] pairs
# ---------------------------------------------------------------------------


def _pairs_from_vector(v: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in v]


def _vector_from_pairs(pairs, where: str) -> np.ndarray:
    try:
        return np.array([complex(float(p[0]), float(p[1])) for p in pairs],
                        dtype=np.complex128)
    except (TypeError, ValueError, IndexError) as exc:
        raise CodebookError(f"{where}: complex entries must be [re, im] pairs") from exc


def spec_to_json(spec: CodebookSpec) -> dict:
    if isinstance(spec, FiniteCodebook):
        return {"label": spec.label,
                "vectors": [_pairs_from_vector(v) for v in spec.vectors]}
    if isinstance(spec, SrsSpec):
        return {"type": "srs", "theta": list(spec.theta)}
    if isinstance(spec, UnitarySpec):
        return {"type": "unitary", "base": spec_to_json(spec.base),
                "matrix": [_pairs_from_vector(row) for row in spec.matrix]}
    if isinstance(spec, ConstrainedSpec):
        return {"type": "constrained", "epsilon": spec.epsilon,
                "pinned_relay": spec.pinned_relay}
    if isinstance(spec, FullCsiSpec):
        return {"type": "full_csi"}
    if isinstance(spec, PowerDependentSpec):
        return {"type": "power_dep_constrained", "pinned_relay": spec.pinned_relay}
    raise CodebookError(f"cannot serialize {type(spec).__name__}")


def spec_from_json(obj: dict, where: str = "codebook") -> CodebookSpec:
    if not isinstance(obj, dict):
        raise CodebookError(f"{where}: expected an object")
    kind = obj.get("type")
    if kind is None and "vectors" in obj:
        kind = "explicit"
    if kind == "explicit":
        vectors = obj.get("vectors")
        if not isinstance(vectors, list) or not vectors:
            raise CodebookError(f"{where}.vectors: need a non-empty list of vectors")
        rows = [_vector_from_pairs(v, f"{where}.vectors[{i}]") for i, v in enumerate(vectors)]
        lengths = {len(r) for r in rows}
        if len(lengths) != 1:
            raise CodebookError(f"{where}.vectors: vector length mismatch {sorted(lengths)}")
        return FiniteCodebook(np.stack(rows), label=str(obj.get("label", "")))
    if kind == "srs":
        return SrsSpec(tuple(obj.get("theta", ())))
    if kind == "unitary":
        base = spec_from_json(obj.get("base", {}), f"{where}.base")
        if not isinstance(base, (FiniteCodebook, SrsSpec, UnitarySpec)):
            raise CodebookError(f"{where}.base: must be a finite codebook spec")
        matrix = obj.get("matrix")
        if not isinstance(matrix, list):
            raise CodebookError(f"{where}.matrix: need a square complex matrix")
        rows = [_vector_from_pairs(r, f"{where}.matrix[{i}]") for i, r in enumerate(matrix)]
        return UnitarySpec(base, np.stack(rows))
    if kind == "constrained":
        return ConstrainedSpec(obj.get("epsilon", -1.0), obj.get("pinned_relay", 0))
    if kind == "full_csi":
        return FullCsiSpec()
    if kind == "power_dep_constrained":
        return PowerDependentSpec(obj.get("pinned_relay", 0))
    raise CodebookError(f"{where}: unknown codebook type {kind!r}")
