"""Counter-based random streams for reproducible, schedule-independent sampling.

Every stream is addressed by (seed, lane, block) through the 256-bit Philox
counter, so the values drawn from one stream never depend on how many other
streams were consumed, in which order, or on which thread.  Lane names the
consumer of a stream, one lane each.
"""

from __future__ import annotations

import enum
import numbers

import numpy as np

_MASK64 = (1 << 64) - 1


@enum.unique
class Lane(enum.IntEnum):
    """The lane of each consumer of streams, with the block it draws from.

    A lane's number is part of every value drawn on it, so no number changes
    or is reused.  Lanes 1 and 2 drew the retired max/min fading-ratio
    audits; they stay unused.
    """

    CHUNKS = 0      # montecarlo: trial chunk c, block c
    SNR_BOUND = 3   # oracles.audit_snr_bound: block 0
    KKT = 4         # oracles.audit_cophased_maximizer: block = cell index


def _check_word(name: str, value, bits: int) -> int:
    """value as an int, if it is an integer in [0, 2^bits) (bools excluded)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not 0 <= value < 1 << bits):
        raise ValueError(f"{name} must be an integer in [0, 2**{bits}), got {value!r}")
    return int(value)


def check_seed(seed) -> int:
    """seed as an int, if it is an integer in [0, 2^128), the Philox key range;
    a seed outside it would alias one inside."""
    return _check_word("seed", seed, 128)


def stream(seed: int, lane: int, block: int) -> np.random.Generator:
    """Return the generator for a given (seed, lane, block) address.

    Two calls with identical arguments yield identical generators; distinct
    addresses give statistically independent streams with disjoint counter
    ranges (each block owns 2^64 Philox states).  The seed must pass
    check_seed, and lane and block must be integers in [0, 2^64), the range
    of their counter words; a value outside it would alias one inside.
    """
    seed = check_seed(seed)
    key = np.array([seed & _MASK64, seed >> 64], dtype=np.uint64)
    counter = np.array([0, _check_word("block", block, 64), _check_word("lane", lane, 64), 0],
                       dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))
