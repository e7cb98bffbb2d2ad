"""Exact combinatorial analysis of finite codebooks.

The central object is the collection of hitting sets of a codebook: index
sets that intersect the support of every vector.  The smallest hitting set
caps the achievable diversity order, so computing the collection exactly (by
enumeration over all non-empty subsets, exponential in R but R is small here)
turns high-power decay questions into finite combinatorics.  The module also
classifies codebooks as orthogonal multiple-relay selection (OMRS: pairwise
magnitude-disjoint supports) or single-relay selection (SRS: the cardinality-R
special case), and emits finite-power convergence diagnostics for
power-dependent families.

Relay indices in all inputs, outputs, and reports are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import rng as _rng
from .codebooks import (
    CodebookSpec,
    ConstrainedSpec,
    FiniteCodebook,
    FullCsiSpec,
    PowerDependentSpec,
    constrained_best_snr,
    phase_classes,
    resolve_epsilon,
    to_finite,
)
from .model import NetworkConfig, PowerLevel, sample_channels

ZERO_TOL = 1e-12
MAX_ENUMERATION_RELAYS = 20


@dataclass(frozen=True)
class HittingSets:
    """All index sets that contain a nonzero coordinate of every vector.

    Upward closed by construction: any superset of a member is a member.
    Sets are sorted by (cardinality, lexicographic order).
    """

    relay_count: int
    sets: tuple[tuple[int, ...], ...]

    def __contains__(self, rset) -> bool:
        return tuple(sorted(int(r) for r in rset)) in set(self.sets)

    def min_witness(self) -> tuple[int, ...]:
        if not self.sets:
            raise ValueError("no hitting sets exist (codebook contains a zero vector)")
        return self.sets[0]


def _magnitudes(cb: FiniteCodebook) -> np.ndarray:
    return np.abs(cb.vectors)


def hitting_sets(cb: FiniteCodebook, zero_tol: float = ZERO_TOL) -> HittingSets:
    """Enumerate the hitting-set collection exactly.

    An entry counts as nonzero iff its magnitude exceeds zero_tol.  Guarded at
    R <= 20 because the enumeration walks all 2^R - 1 subsets.
    """
    r_count = cb.relay_count
    if r_count > MAX_ENUMERATION_RELAYS:
        raise ValueError(
            f"exponential enumeration cap: relay_count {r_count} > {MAX_ENUMERATION_RELAYS}")
    supports = _magnitudes(cb) > zero_tol
    masks = [int(sum(1 << r for r in range(r_count) if row[r])) for row in supports]
    found = []
    for subset in range(1, 1 << r_count):
        if all(mask & subset for mask in masks):
            found.append(tuple(r + 1 for r in range(r_count) if subset >> r & 1))
    found.sort(key=lambda s: (len(s), s))
    return HittingSets(r_count, tuple(found))


def min_max_weight(cb: FiniteCodebook, rset: Iterable[int]) -> float:
    """Worst case over the codebook of the best squared magnitude inside rset.

    This is the coefficient that controls how fast errors can be forced when
    all relays in rset fade together: min over vectors of max_{r in rset}
    |x_r|^2.
    """
    idx = sorted({int(r) for r in rset})
    if not idx or idx[0] < 1 or idx[-1] > cb.relay_count:
        raise ValueError(f"rset must be a non-empty subset of 1..{cb.relay_count}")
    cols = [r - 1 for r in idx]
    mags2 = _magnitudes(cb)[:, cols] ** 2
    return float(mags2.max(axis=1).min())


def _nonzero_hitting_sets(cb: FiniteCodebook, zero_tol: float) -> HittingSets:
    """hitting_sets, after rejecting a zero vector (no set can hit it)."""
    if bool((_magnitudes(cb) <= zero_tol).all(axis=1).any()):
        raise ValueError("codebook contains zero vector")
    return hitting_sets(cb, zero_tol)


def diversity_cap(cb: FiniteCodebook, zero_tol: float = ZERO_TOL):
    """Smallest hitting-set size and a witness set achieving it.

    The cap equals min{|S| : S hits every support}; it never exceeds
    min(relay_count, number of distinct phase classes), the cardinality cap,
    because one nonzero index per vector always forms a hitting set.
    Raises if the codebook contains a zero vector (no set can hit it).
    """
    witness = _nonzero_hitting_sets(cb, zero_tol).min_witness()
    return len(witness), witness


def cardinality_cap(cb: FiniteCodebook, tol: float = ZERO_TOL) -> int:
    """min(relay_count, codebook size after phase-class deduplication)."""
    return min(cb.relay_count, phase_classes(cb.vectors, tol).shape[0])


def max_pairwise_overlap(cb: FiniteCodebook) -> float:
    """Largest magnitude overlap sum over distinct entry pairs.

    overlap(x, y) = sum_r |x_r| |y_r|; zero for every pair means the codebook
    selects disjoint relay subsets.  Duplicated entries count as a pair.
    """
    if len(cb) < 2:
        raise ValueError("overlap needs at least two codebook entries")
    mags = _magnitudes(cb)
    worst = 0.0
    for i in range(len(cb)):
        for j in range(i + 1, len(cb)):
            worst = max(worst, float(np.dot(mags[i], mags[j])))
    return worst


def is_omrs(cb: FiniteCodebook, tol: float = ZERO_TOL) -> bool:
    """Orthogonal multiple-relay selection: pairwise magnitude-disjoint supports.

    True iff the set of distinct vectors is a singleton or every distinct pair
    satisfies sum_r |x_r||y_r| <= tol.  Exact duplicates collapse first (they
    are the same vector, not a violating pair).
    """
    distinct = np.unique(cb.vectors, axis=0)
    if distinct.shape[0] <= 1:
        return True
    mags = np.abs(distinct)
    for i in range(distinct.shape[0]):
        for j in range(i + 1, distinct.shape[0]):
            if float(np.dot(mags[i], mags[j])) > tol:
                return False
    return True


def is_srs(cb: FiniteCodebook, tol: float = ZERO_TOL) -> bool:
    """Single-relay selection: exactly R vectors, each a unit weight on its own relay.

    Requires the codebook to present exactly R entries forming R distinct
    phase classes; duplicated entries (even with different global phases)
    disqualify, since the codebook then cannot select all R relays.
    """
    r_count = cb.relay_count
    if len(cb) != r_count:
        return False
    if phase_classes(cb.vectors, tol).shape[0] != r_count:
        return False
    if not is_omrs(cb, tol):
        return False
    mags = _magnitudes(cb)
    for row in mags:
        order = np.sort(row)
        if abs(order[-1] - 1.0) > tol:
            return False
        if r_count > 1 and order[-2] > tol:
            return False
    return True


def is_admissible(cb: FiniteCodebook, tol: float = 1e-9) -> bool:
    """True iff every vector spends full power on some relay (unit peak magnitude)."""
    peaks = _magnitudes(cb).max(axis=1)
    return bool(np.all(np.abs(peaks - 1.0) <= tol))


@dataclass(frozen=True)
class StructuralReport:
    """Full structural classification of one finite codebook."""

    label: str
    relay_count: int
    codebook_size: int
    diversity_cap: int
    min_witness_set: tuple[int, ...]
    cap_from_hitting_sets: int
    cap_from_cardinality: int
    index_sets: tuple[tuple[int, ...], ...]
    min_max_weight: tuple[tuple[tuple[int, ...], float], ...]
    is_omrs: bool
    is_srs: bool
    is_admissible: bool
    max_pairwise_overlap: Optional[float]

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "relay_count": self.relay_count,
            "codebook_size": self.codebook_size,
            "diversity_cap": self.diversity_cap,
            "min_witness_set": list(self.min_witness_set),
            "cap_from_hitting_sets": self.cap_from_hitting_sets,
            "cap_from_cardinality": self.cap_from_cardinality,
            "index_sets": [list(s) for s in self.index_sets],
            "min_max_weight": [
                {"set": list(s), "value": v} for s, v in self.min_max_weight
            ],
            "is_omrs": self.is_omrs,
            "is_srs": self.is_srs,
            "is_admissible": self.is_admissible,
            "max_pairwise_overlap": self.max_pairwise_overlap,
        }


def analyze_codebook(cb: FiniteCodebook, zero_tol: float = ZERO_TOL) -> StructuralReport:
    """Run every structural check and collect the results.

    The hitting sets are enumerated once; the cap and its witness come from
    that one collection.
    """
    collection = _nonzero_hitting_sets(cb, zero_tol)
    witness = collection.min_witness()
    cap = len(witness)
    card = cardinality_cap(cb)
    full_set = tuple(range(1, cb.relay_count + 1))
    weights = [(witness, min_max_weight(cb, witness))]
    if full_set != witness:
        weights.append((full_set, min_max_weight(cb, full_set)))
    overlap = max_pairwise_overlap(cb) if len(cb) >= 2 else None
    return StructuralReport(
        label=cb.label,
        relay_count=cb.relay_count,
        codebook_size=len(cb),
        diversity_cap=min(cap, card),
        min_witness_set=witness,
        cap_from_hitting_sets=cap,
        cap_from_cardinality=card,
        index_sets=collection.sets,
        min_max_weight=tuple(weights),
        is_omrs=is_omrs(cb, zero_tol),
        is_srs=is_srs(cb, zero_tol),
        is_admissible=is_admissible(cb),
        max_pairwise_overlap=overlap,
    )


# ---------------------------------------------------------------------------
# Finite-power convergence diagnostics for power-dependent families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticRow:
    power: float
    max_pairwise_overlap: float
    off_support_max: float


def _off_support_max(vectors: np.ndarray) -> float:
    """Largest squared magnitude outside each vector's peak coordinate."""
    worst = 0.0
    for row in np.abs(vectors):
        if row.shape[0] < 2:
            continue
        pivot = int(np.argmax(row))
        rest = np.delete(row, pivot)
        worst = max(worst, float(rest.max()) ** 2)
    return worst


def convergence_diagnostic(
    source: Union[CodebookSpec, Callable[[float], FiniteCodebook]],
    powers: Sequence[float],
    config: Optional[NetworkConfig] = None,
    *,
    channel_samples: int = 64,
    seed: int = 0,
) -> list[DiagnosticRow]:
    """Tabulate decay statistics of a power-indexed codebook family.

    For each power level (linear scale) the row reports the largest pairwise
    magnitude overlap and the largest off-peak squared magnitude.  Finite and
    callable sources are measured on their vectors directly; constrained
    continuous families report their constraint level as the off-support
    bound and measure overlap on inner-maximizer outputs over sampled channel
    states (which requires `config`).  No verdict is attached; callers fit the
    decay shape themselves (see fit_log_decay).
    """
    rows = []
    for i, p in enumerate(powers):
        power = PowerLevel(float(p))
        if callable(source) and not isinstance(source, type):
            cb = source(power.linear)
            vecs = cb.vectors
            overlap = max_pairwise_overlap(cb) if len(cb) >= 2 else 0.0
            off = _off_support_max(vecs)
        elif isinstance(source, (ConstrainedSpec, FullCsiSpec, PowerDependentSpec)):
            off = resolve_epsilon(source, power)
            if config is None:
                raise ValueError("constrained families need a NetworkConfig to sample")
            gen = _rng.stream(seed, 1_000_000 + i, 0)
            f, g = sample_channels(config, gen, channel_samples)
            pinned = getattr(source, "pinned_relay", None)
            mag, _ = constrained_best_snr(f, g, config, power, off, pinned)
            overlap = 0.0
            for a in range(mag.shape[0]):
                for b in range(a + 1, mag.shape[0]):
                    overlap = max(overlap, float(np.dot(mag[a], mag[b])))
        else:
            cb = to_finite(source)
            overlap = max_pairwise_overlap(cb) if len(cb) >= 2 else 0.0
            off = _off_support_max(cb.vectors)
        rows.append(DiagnosticRow(power.linear, overlap, off))
    return rows


def fit_log_decay(powers: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares constant c in the model value = c / log(power), through origin."""
    inv = np.array([1.0 / math.log(p) for p in powers])
    vals = np.asarray(values, dtype=float)
    denom = float(np.dot(inv, inv))
    if denom == 0.0:
        raise ValueError("need powers with log(P) != 0")
    return float(np.dot(vals, inv) / denom)
