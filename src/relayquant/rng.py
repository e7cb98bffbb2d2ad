"""Counter-based random streams for reproducible, schedule-independent sampling.

Every stream is addressed by (seed, lane, block) through the 256-bit Philox
counter, so the values drawn from one stream never depend on how many other
streams were consumed, in which order, or on which thread.  Monte Carlo code
draws each trial chunk from lane 0, one block per chunk, and evaluates that
draw at every power-grid point; the audits in oracles use other lanes.
"""

from __future__ import annotations

import numbers

import numpy as np

_MASK64 = (1 << 64) - 1


def check_seed(seed) -> int:
    """seed as an int, if it is an integer in [0, 2^128), the Philox key range;
    a seed outside it would alias one inside."""
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or not 0 <= seed < 1 << 128):
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    return int(seed)


def stream(seed: int, lane: int, block: int) -> np.random.Generator:
    """Return the generator for a given (seed, lane, block) address.

    Two calls with identical arguments yield identical generators; distinct
    addresses give statistically independent streams with disjoint counter
    ranges (each block owns 2^64 Philox states).  The seed must pass
    check_seed.
    """
    seed = check_seed(seed)
    key = np.array([seed & _MASK64, (seed >> 64) & _MASK64], dtype=np.uint64)
    counter = np.array([0, block & _MASK64, lane & _MASK64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))
