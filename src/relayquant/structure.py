"""Exact combinatorial analysis of finite codebooks.

The central object is the collection of hitting sets of a codebook: index
sets that intersect the support of every vector.  The smallest hitting set
caps the achievable diversity order, so computing the collection exactly
turns high-power decay questions into finite combinatorics.  hitting_sets
returns it as a plain tuple of relay tuples, tuple[tuple[int, ...], ...],
whose first member is a smallest one.  It is computed in one vectorized pass
over all 2^R - 1 non-empty subsets, each held as an int32 bitmask (relay r
is bit r - 1): the subsets that AND nonzero with every support mask are
kept, sorted by (cardinality, lexicographic order of the relay tuple) and
turned into tuples by joining two precomputed half-tuples.  The pass is
exponential in R, so it is capped at R = 20.  The module also classifies
codebooks as orthogonal multiple-relay selection (OMRS: pairwise disjoint
supports) or single-relay selection (SRS: the cardinality-R special case),
counting each model.phase_classes class as one vector, as simulate does.

Entries and peak deviations from 1 count as zero when they are at most
ZERO_TOL: a vector's support is model.supports, which the SNR kernel and the
importance proposal follow too.  Only is_admissible, which tests hand-entered
unit peaks, allows MAGNITUDE_TOL.  Relay indices in all inputs, outputs, and
reports are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Optional

import numpy as np

from .codebooks import FiniteCodebook
from .model import MAGNITUDE_TOL, ZERO_TOL, phase_classes, relay_columns, supports

MAX_ENUMERATION_RELAYS = 20


def _half_tables(bits: int):
    """Tables over the values v < 2^bits of one half of a subset mask: the
    popcount of v, v with its bits reversed, and the 0-based positions of
    its set bits."""
    positions = [tuple(b for b in range(bits) if v >> b & 1) for v in range(1 << bits)]
    popcount = np.array([len(p) for p in positions], dtype=np.int32)
    reversed_bits = np.array([sum(1 << (bits - 1 - b) for b in p) for p in positions],
                             dtype=np.int32)
    return popcount, reversed_bits, positions


def _tuple_table(positions, offset: int) -> np.ndarray:
    """Object array of the 1-based relay tuples, shifted by offset relays."""
    return np.fromiter((tuple(offset + b + 1 for b in p) for p in positions),
                       dtype=object, count=len(positions))


def hitting_sets(cb: FiniteCodebook) -> tuple[tuple[int, ...], ...]:
    """Enumerate the hitting-set collection exactly: every 1-based relay tuple
    that contains a nonzero coordinate of every vector, in the order below.
    The collection is upward closed: any superset of a member is a member.

    An entry counts as nonzero iff model.supports holds it.  Every
    non-empty subset is an int32 mask with relay r at bit r - 1; one
    vectorized pass keeps the masks that AND nonzero with every support mask,
    so a zero vector leaves the collection empty.  Guarded at R <= 20 because
    the pass holds all 2^R - 1 subsets; the guard also keeps the sort key
    below, at most 20 * 2^20, inside int32.

    Ordering rule: by cardinality, then lexicographically by the ascending
    relay tuple.  For two sets of one size, that order is the descending
    order of the mask read with relay 1 as the high bit (the bit-reversed
    mask, below 2^R), so one integer key, popcount * 2^R - reversed mask,
    sorts ascending into it.  Popcount and reversal come from tables over
    the low and high halves of each mask, and the tuples are joined from two
    tables of precomputed half-tuples; nothing loops per subset or per bit.
    """
    r_count = cb.relay_count
    if r_count > MAX_ENUMERATION_RELAYS:
        raise ValueError(
            f"exponential enumeration cap: relay_count {r_count} > {MAX_ENUMERATION_RELAYS}")
    bits = np.int32(1) << np.arange(r_count, dtype=np.int32)
    masks = np.unique(supports(cb.vectors) @ bits)
    subsets = np.arange(1, 1 << r_count, dtype=np.int32)
    hits = np.ones(subsets.size, dtype=bool)
    for mask in masks:
        hits &= (subsets & mask) != 0
    subsets = subsets[hits]

    half = (r_count + 1) // 2
    popcount, reversed_bits, positions = _half_tables(half)
    low = subsets & ((1 << half) - 1)
    high = subsets >> half
    # Reversal over r_count bits: the low half lands on top, and the high half
    # (r_count - half bits wide) drops the zero padding of its reversal.
    reversed_mask = (reversed_bits[low] << (r_count - half)
                     | reversed_bits[high] >> (2 * half - r_count))
    order = np.argsort(((popcount[low] + popcount[high]) << r_count) - reversed_mask)
    joined = _tuple_table(positions, 0)[low[order]] + _tuple_table(positions, half)[high[order]]
    return tuple(joined.tolist())


def min_max_weight(cb: FiniteCodebook, rset: Iterable[int]) -> float:
    """Worst case over the codebook of the best squared magnitude inside rset.

    This is the coefficient that controls how fast errors can be forced when
    all relays in rset fade together: min over vectors, one per phase class,
    of max_{r in rset} |x_r|^2.
    """
    cols = relay_columns(rset, cb.relay_count)
    mags2 = np.abs(cb.vectors[phase_classes(cb.vectors)])[:, cols] ** 2
    return float(mags2.max(axis=1).min())


def _nonzero_hitting_sets(cb: FiniteCodebook) -> tuple[tuple[int, ...], ...]:
    """hitting_sets, after rejecting a zero vector (no set can hit it)."""
    if not supports(cb.vectors).any(axis=1).all():
        raise ValueError("codebook contains zero vector")
    return hitting_sets(cb)


def diversity_cap(cb: FiniteCodebook):
    """Smallest hitting-set size and a witness set achieving it.

    The cap equals min{|S| : S hits every support}; it never exceeds
    min(relay_count, number of distinct phase classes), the cardinality cap,
    because one nonzero index per vector always forms a hitting set.
    Raises if the codebook contains a zero vector (no set can hit it).
    """
    witness = _nonzero_hitting_sets(cb)[0]
    return len(witness), witness


def _pairwise_overlaps(mags: np.ndarray) -> np.ndarray:
    """Overlaps sum_r m_ir m_jr of every row pair i < j of a magnitude matrix.

    This is the upper triangle of the Gram matrix M M^T, accumulated relay
    by relay so that its bits do not depend on the BLAS backend.
    """
    gram = np.zeros((mags.shape[0], mags.shape[0]))
    for col in mags.T:
        gram += col[:, None] * col[None, :]
    return gram[np.triu_indices(mags.shape[0], 1)]


def max_pairwise_overlap(cb: FiniteCodebook) -> float:
    """Largest magnitude overlap over pairs of distinct vectors.

    overlap(x, y) = sum_r |x_r| |y_r|, taken over one vector per phase class
    (vectors equal up to a global phase are one beamformer, not a pair), as
    is_omrs counts them.  Raises if there are fewer than two distinct vectors.
    """
    overlaps = _pairwise_overlaps(np.abs(cb.vectors[phase_classes(cb.vectors)]))
    if not overlaps.size:
        raise ValueError("overlap needs at least two distinct codebook vectors")
    return float(overlaps.max())


def is_omrs(cb: FiniteCodebook) -> bool:
    """Orthogonal multiple-relay selection: pairwise disjoint supports.

    True iff no relay is in the support of two distinct vectors, one per
    phase class; a single distinct vector is OMRS.
    """
    return bool((supports(cb.vectors[phase_classes(cb.vectors)]).sum(axis=0) <= 1).all())


def is_srs(cb: FiniteCodebook) -> bool:
    """Single-relay selection: exactly R vectors, each a unit weight on its own relay.

    SRS is OMRS at cardinality R: exactly R entries forming R phase classes
    (so duplicates, even up to phase, disqualify), is_omrs, and every peak
    magnitude within ZERO_TOL of 1.  R disjoint supports on R relays are one
    relay each.
    """
    r_count = cb.relay_count
    if len(cb) != r_count or len(phase_classes(cb.vectors)) != r_count:
        return False
    peaks = np.abs(cb.vectors).max(axis=1)
    return bool(np.all(np.abs(peaks - 1.0) <= ZERO_TOL) and is_omrs(cb))


def is_admissible(cb: FiniteCodebook) -> bool:
    """True iff every vector spends full power on some relay (unit peak magnitude)."""
    peaks = np.abs(cb.vectors).max(axis=1)
    return bool(np.all(np.abs(peaks - 1.0) <= MAGNITUDE_TOL))


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
        """The fields in order, each weight as {"set", "value"}; relay sets
        stay tuples, which json.dumps writes as arrays."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["min_max_weight"] = [{"set": s, "value": v} for s, v in self.min_max_weight]
        return out


def analyze_codebook(cb: FiniteCodebook) -> StructuralReport:
    """Run every structural check and collect the results.

    The hitting sets are enumerated once; the cap and its witness come from
    that one collection.
    """
    collection = _nonzero_hitting_sets(cb)
    witness = collection[0]
    cap = len(witness)
    classes = phase_classes(cb.vectors)
    card = min(cb.relay_count, len(classes))
    full_set = tuple(range(1, cb.relay_count + 1))
    weights = [(witness, min_max_weight(cb, witness))]
    if full_set != witness:
        weights.append((full_set, min_max_weight(cb, full_set)))
    overlap = max_pairwise_overlap(cb) if len(classes) >= 2 else None
    return StructuralReport(
        label=cb.label,
        relay_count=cb.relay_count,
        codebook_size=len(cb),
        diversity_cap=min(cap, card),
        min_witness_set=witness,
        cap_from_hitting_sets=cap,
        cap_from_cardinality=card,
        index_sets=collection,
        min_max_weight=tuple(weights),
        is_omrs=is_omrs(cb),
        is_srs=is_srs(cb),
        is_admissible=is_admissible(cb),
        max_pairwise_overlap=overlap,
    )
