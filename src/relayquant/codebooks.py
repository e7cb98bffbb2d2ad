"""Codebook construction and evaluation.

Covers every quantizer family the simulator needs: explicit finite lists,
single-relay selection (SRS), unitary transforms of finite codebooks, and the
constrained continuous families

    C(eps, r) = { x : |x_q| <= 1 for all q, |x_r|^2 >= eps }

optimized per channel state by an inner maximizer.  A power-dependent variant
resolves eps = 1/log(P) at each power level, so one spec object describes a
whole family of per-power codebooks.  The spec classes check their numbers by
json_float's and json_int's rules (types before ranges), from JSON or Python.

The continuous maximizer is exact.  For fixed magnitudes the best phases
align every numerator term: set arg(x_q) = -arg(f_q g_q).  That leaves the
magnitude problem max (u.m)^2 / (1 + w.(m*m)) over a box, whose objective is
quasi-concave; its KKT conditions put the optimum on the one-parameter curve
m(c) = clip(c u / w, lo, 1), which has at most 2R breakpoints and one
closed-form stationary point between each pair (Jing & Jafarkhani, IEEE
Trans. IT 55(6), 2009).  Checking those O(R) candidates costs O(R^2) per
channel state and needs no tuning knob.  A finite codebook's argmax runs
over FiniteCodebook.beamformers, one row per beamformer by model's phase rule.

Both argmaxes work in a model.ChunkBuffers arena, the caller's or a private
one: the maximizer's (R, n) and (n,) working arrays, its breakpoints and
its result, and the finite argmax's running maximum, are roles of it, so a
Monte Carlo strand evaluates chunk after chunk without fresh pages.  What
they return is a view of the arena, valid until the next call on it.  The
finite argmax's beamformed_sums accumulators are still allocated per call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .model import (
    MAGNITUDE_TOL,
    ChunkBuffers,
    NetworkConfig,
    PowerLevel,
    beamformed_snr,
    canonical_rows,
    json_float,
    json_int,
    phase_classes,
    snr_geometry,
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

    @functools.cached_property
    def beamformers(self) -> np.ndarray:
        """One row per beamformer, the first of each model.phase_classes class."""
        return self.vectors[phase_classes(self.vectors)]


@dataclass(frozen=True)
class SrsSpec:
    """Single-relay selection: R vectors, the r-th puts e^{j theta_r} on relay r."""

    theta: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(_spec_number(json_float, t, f"theta[{i}]")
                                                for i, t in enumerate(self.theta)))
        if len(self.theta) < 1:
            raise CodebookError("srs spec needs at least one phase")
        for i, t in enumerate(self.theta):
            if not math.isfinite(t):
                raise CodebookError(f"theta[{i}] must be finite, got {t}")


@dataclass(frozen=True)
class UnitarySpec:
    """Right-multiply every vector of a finite base codebook by a unitary matrix."""

    base: "FiniteSpec"
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _unitary(self.matrix))


@dataclass(frozen=True)
class ConstrainedSpec:
    """Continuous family with the pinned relay forced to |x_r|^2 >= epsilon."""

    epsilon: float
    pinned_relay: int

    def __post_init__(self):
        e = _spec_number(json_float, self.epsilon, "epsilon")
        r = _spec_number(json_int, self.pinned_relay, "pinned_relay")
        if not 0.0 <= e <= 1.0:
            raise CodebookError(f"epsilon must lie in [0, 1], got {e}")
        if r < 1:
            raise CodebookError("pinned_relay is a 1-based relay index")
        object.__setattr__(self, "epsilon", e)
        object.__setattr__(self, "pinned_relay", r)


@dataclass(frozen=True)
class FullCsiSpec:
    """Unconstrained short-term-power beamforming (epsilon = 0, no pinned relay)."""


@dataclass(frozen=True)
class PowerDependentSpec:
    """Constrained family whose bound tightens with power: epsilon = 1/log P."""

    pinned_relay: int

    def __post_init__(self):
        r = _spec_number(json_int, self.pinned_relay, "pinned_relay")
        if r < 1:
            raise CodebookError("pinned_relay is a 1-based relay index")
        object.__setattr__(self, "pinned_relay", r)


FiniteSpec = Union[FiniteCodebook, SrsSpec, UnitarySpec]
ContinuousSpec = Union[ConstrainedSpec, FullCsiSpec, PowerDependentSpec]
CodebookSpec = Union[FiniteSpec, ContinuousSpec]


def _unitary(matrix) -> np.ndarray:
    """matrix as a complex array, if it is square, finite and unitary within UNITARY_TOL."""
    mat = np.asarray(matrix, dtype=np.complex128)
    # checked before the product, which warns on an infinite entry
    if not np.isfinite(mat).all():
        raise CodebookError("matrix is not unitary: it has a non-finite entry")
    deviation = math.inf
    if mat.ndim == 2 and mat.shape[0] == mat.shape[1]:
        deviation = float(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0])).max())
    if not deviation <= UNITARY_TOL:
        raise CodebookError(f"matrix is not unitary: max |U U^H - I| = {deviation:.3e}")
    return mat


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
    mat = _unitary(matrix)
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


# ---------------------------------------------------------------------------
# Continuous-family inner maximizer
# ---------------------------------------------------------------------------


def constrained_best_snr(f: np.ndarray, g: np.ndarray, config: NetworkConfig,
                         power: PowerLevel, epsilon: float,
                         pinned_relay: Optional[int],
                         grid_resolution: Optional[int] = None, *, geometry=None,
                         buffers: Optional[ChunkBuffers] = None):
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
    holds it.  Every working array that grows with n is a role of
    `buffers`, a ChunkBuffers of capacity >= n, or of a private one when
    none is passed; both results are views of it (the magnitudes
    transposed), valid until the next call on the same arena.
    grid_resolution is ignored.  It sized the magnitude grid of an earlier,
    approximate maximizer, and callers that pass it positionally (such as
    the benchmark in perfbench/) keep working.
    """
    n, r_count = f.shape
    if not 0.0 <= epsilon <= 1.0:
        raise CodebookError(f"epsilon must lie in [0, 1], got {epsilon}")
    lo = np.zeros((r_count, 1))
    if pinned_relay is not None:
        if not 1 <= pinned_relay <= r_count:
            raise CodebookError(f"pinned relay {pinned_relay} out of range 1..{r_count}")
        lo[pinned_relay - 1] = math.sqrt(epsilon)

    p0 = config.power_scalers[0] * power.linear
    # relay-major (R, n) layout: sums over relays add contiguous rows
    _, a, w = geometry if geometry is not None else snr_geometry(f, g, config, power)
    if buffers is None:
        buffers = ChunkBuffers(n)

    def take(role, rows=(r_count,), dtype=float):
        return buffers.take(role, rows, n, dtype)

    u = np.abs(a, out=take("u"))
    slope, enter, leave = take("slope"), take("enter"), take("leave")
    mag, summand, mask = take("mag"), take("summand"), take("mask", dtype=bool)

    # Along the curve m_r leaves lo_r at c = enter_r and reaches 1 at
    # c = leave_r.  A relay with u_r = 0 adds nothing to the numerator, so
    # it stays at lo_r: both of its breakpoints are infinite.  A relay with
    # lo_r = 0 leaves it at c = 0, which adds no breakpoint.
    inactive = np.logical_not(np.greater(u, 0.0, out=mask), out=mask)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(u, w, out=slope)
        np.divide(w, u, out=leave)
        np.copyto(leave, np.inf, where=inactive)
        np.multiply(lo, leave, out=enter)
    np.copyto(slope, 0.0, where=inactive)
    np.copyto(enter, np.inf, where=inactive)
    # the edges role has room for the pinned relay's entry point, so that
    # families with and without one share it; it is sorted in place
    cut = int(pinned_relay is not None and lo[pinned_relay - 1, 0] > 0.0)
    edges = take("edges", (r_count + 1,))[:r_count + cut]
    if cut:
        edges[0] = enter[pinned_relay - 1]
    edges[cut:] = leave
    edges.sort(axis=0)

    def curve(c):
        """m(c) into mag, with coordinates at a breakpoint set exactly to 1 or lo_r."""
        np.multiply(c, slope, out=mag)
        np.copyto(mag, lo, where=np.less_equal(c, enter, out=mask))
        np.copyto(mag, 1.0, where=np.greater_equal(c, leave, out=mask))
        return np.clip(mag, lo, 1.0, out=mag)

    def sums():
        """u.mag into num and 1 + w.(mag*mag) into den."""
        np.multiply(u, mag, out=summand).sum(axis=0, out=num)
        np.multiply(np.multiply(w, mag, out=summand), mag, out=summand)
        np.add(summand.sum(axis=0, out=den), 1.0, out=den)

    num, den, c, val = take("num", ()), take("den", ()), take("c", ()), take("val", ())
    best_c, best_val, better = take("best_c", ()), take("snr", ()), take("better", (), bool)
    best_val.fill(-np.inf)
    # num = 0 (nothing fixed above 0) makes c infinite, and c * slope in
    # m(c) then meets slope = 0; the clips and breakpoint rules replace both
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(edges.shape[0] + 1):
            left = edges[i - 1] if i else 0.0
            right = edges[i] if i < edges.shape[0] else np.inf
            # the coordinates fixed on this segment, in mag: lo_r before
            # relay r enters, 1 once it has left, 0 for the free ones
            np.copyto(mag, np.greater_equal(left, leave, out=mask))
            np.copyto(mag, lo, where=np.less_equal(right, enter, out=mask))
            sums()
            # at num = 0 the objective rises through the segment, and the
            # peak is its right end
            np.clip(np.divide(den, num, out=c), left, right, out=c)
            curve(c)
            sums()
            np.multiply(num, p0, out=val)
            val *= num
            val /= den
            np.greater(val, best_val, out=better)
            np.copyto(best_val, val, where=better)
            np.copyto(best_c, c, where=better)
        # m(c) is a function of c alone, so the winning c gives the magnitudes
        return curve(best_c).T, best_val


# ---------------------------------------------------------------------------
# Evaluators: best_snr(f, g, config, power) maps channel states, the rows of
# (n, R) arrays f and g, to the best SNR the family reaches at each one
# ---------------------------------------------------------------------------


class FiniteEvaluator:
    """Largest SNR over an explicit vector list, one canonical row per phase class."""

    def __init__(self, codebook: FiniteCodebook):
        self.codebook = codebook
        self.canonical = canonical_rows(codebook.beamformers)

    def best_snr(self, f, g, config: NetworkConfig, power: PowerLevel, *,
                 geometry=None, buffers: Optional[ChunkBuffers] = None) -> np.ndarray:
        """Largest SNR over the codebook at each state, the running maximum
        of each canonical row's beamformed_snr; `geometry` and `buffers` as
        in constrained_best_snr.  The max rounds nothing, so it equals, bit
        for bit, the largest of the rows' beamformed_snr values on the same
        geometry, taken in any order."""
        p0 = config.power_scalers[0] * power.linear
        _, a, b = geometry if geometry is not None else snr_geometry(f, g, config, power)
        n = a.shape[1]
        if buffers is None:
            buffers = ChunkBuffers(n)
        best = beamformed_snr(self.canonical[0], a, b, p0, out=buffers.take("snr", (), n))
        for x in self.canonical[1:]:
            np.maximum(best, beamformed_snr(x, a, b, p0, out=buffers.take("snr_row", (), n)),
                       out=best)
        return best


class ConstrainedEvaluator:
    """Exact co-phased maximizer of a constrained continuous family at one epsilon."""

    def __init__(self, epsilon: float, pinned_relay: Optional[int]):
        self.epsilon = epsilon
        self.pinned_relay = pinned_relay

    def best_snr(self, f, g, config: NetworkConfig, power: PowerLevel, *,
                 geometry=None, buffers: Optional[ChunkBuffers] = None) -> np.ndarray:
        """Maximum SNR over the family at each state; `geometry` and
        `buffers` as in constrained_best_snr."""
        _, val = constrained_best_snr(f, g, config, power, self.epsilon, self.pinned_relay,
                                      geometry=geometry, buffers=buffers)
        return val


def resolve_codebook(spec: CodebookSpec, power: PowerLevel):
    """Bind a codebook spec to a power level, yielding its evaluator.

    Finite specs ignore the power level; a continuous family binds to its
    (epsilon, pinned relay), with epsilon = 1/log P (P >= e) for the
    power-dependent one.  This is the map "power level -> codebook", and the
    evaluator's best_snr gives the best SNR at each row of the (n, R) f, g.
    """
    if isinstance(spec, FiniteSpec):
        return FiniteEvaluator(to_finite(spec))
    if isinstance(spec, FullCsiSpec):
        return ConstrainedEvaluator(0.0, None)
    if isinstance(spec, ConstrainedSpec):
        return ConstrainedEvaluator(spec.epsilon, spec.pinned_relay)
    if isinstance(spec, PowerDependentSpec):
        logp = math.log(power.linear)
        if logp < 1.0:
            raise CodebookError(
                f"power-dependent constraint needs P >= e, got P = {power.linear:g}")
        return ConstrainedEvaluator(1.0 / logp, spec.pinned_relay)
    raise CodebookError(f"unknown codebook spec: {type(spec).__name__}")


# ---------------------------------------------------------------------------
# JSON wire format: complex numbers are always [re, im] pairs
# ---------------------------------------------------------------------------


def _pairs_from_vector(v: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in v]


def json_required(obj: dict, key: str):
    """obj[key]; a missing key raises, naming it."""
    if key not in obj:
        raise ValueError(f"missing required field {key!r}")
    return obj[key]


def json_fields(obj: dict, fields) -> None:
    """Raise, naming the first key of obj that is not one of fields."""
    for key in obj:
        if key not in fields:
            raise ValueError(f"unknown field {key!r}")


def json_label(obj: dict, default: str = "") -> str:
    """obj["label"], which must be a non-empty string when present, else default."""
    if "label" not in obj:
        return default
    label = obj["label"]
    if not isinstance(label, str) or not label:
        raise ValueError(f"label must be a non-empty string, got {label!r}")
    return label


def _spec_number(parse, value, name: str):
    """parse(value, name), json_float or json_int, raising CodebookError."""
    try:
        return parse(value, name)
    except ValueError as exc:
        raise CodebookError(str(exc)) from None


def json_list(value, name: str) -> list:
    """value itself, if it is a JSON list."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _matrix_from_json(rows, name: str) -> np.ndarray:
    """A list of equal-length lists of [re, im] pairs as a complex matrix."""
    out = []
    for i, row in enumerate(json_list(rows, name)):
        pairs = json_list(row, f"each row of {name}")
        if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
            raise ValueError(f"{name}: complex entries must be [re, im] pairs")
        out.append([complex(json_float(re, f"{name}[{i}][{j}][0]"),
                            json_float(im, f"{name}[{i}][{j}][1]"))
                    for j, (re, im) in enumerate(pairs)])
    lengths = sorted({len(row) for row in out})
    if len(lengths) > 1:
        raise ValueError(f"{name}: row length mismatch {lengths}")
    return np.array(out, dtype=np.complex128)


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
    """Decode one codebook spec.  Any malformed, missing or unknown field
    raises one CodebookError whose message starts with `where`."""
    try:
        return _decode_spec(obj)
    except (TypeError, ValueError) as exc:
        raise CodebookError(f"{where}: {exc}") from exc


# the fields of each spec type besides "type" and "label"
_SPEC_FIELDS = {"explicit": ("vectors",), "srs": ("theta",), "unitary": ("base", "matrix"),
                "constrained": ("epsilon", "pinned_relay"), "full_csi": (),
                "power_dep_constrained": ("pinned_relay",)}


def _decode_spec(obj) -> CodebookSpec:
    if not isinstance(obj, dict):
        raise CodebookError("expected an object")
    kind = obj.get("type")
    if kind is None and "vectors" in obj:
        kind = "explicit"
    if not isinstance(kind, str) or kind not in _SPEC_FIELDS:
        raise CodebookError(f"unknown codebook type {kind!r}")
    json_fields(obj, _SPEC_FIELDS[kind] + ("type", "label"))
    label = json_label(obj)
    if kind == "explicit":
        return FiniteCodebook(_matrix_from_json(json_required(obj, "vectors"), "vectors"),
                              label=label)
    if kind == "srs":
        return SrsSpec(json_list(json_required(obj, "theta"), "theta"))
    if kind == "unitary":
        base = spec_from_json(json_required(obj, "base"), "base")
        if not isinstance(base, FiniteSpec):
            raise CodebookError("base: must be a finite codebook spec")
        return UnitarySpec(base, _matrix_from_json(json_required(obj, "matrix"), "matrix"))
    if kind == "constrained":
        return ConstrainedSpec(json_required(obj, "epsilon"), json_required(obj, "pinned_relay"))
    if kind == "full_csi":
        return FullCsiSpec()
    return PowerDependentSpec(json_required(obj, "pinned_relay"))
