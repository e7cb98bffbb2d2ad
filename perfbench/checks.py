"""Correctness checks on the program's outputs.

Each check takes plain numbers, so the benchmark's own tests can feed it a
perturbed output and see it fail.  A check returns a Check; it never raises
on a wrong value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))


def within_sigma(name: str, ser: Sequence[float], sigma: Sequence[float],
                 ref: Sequence[float], z: float) -> Check:
    """|ser - ref| <= z sigma at every point."""
    worst = max(abs(s - r) / e if e > 0 else math.inf for s, e, r in zip(ser, sigma, ref))
    return Check(name, worst <= z, f"max |ser - ref| / sigma = {worst:.3f} (limit {z})")


def geomean_ratio(ser: Sequence[float], ref: Sequence[float]) -> float:
    """Geometric mean over the points of ser / ref."""
    return math.exp(sum(math.log(s / r) for s, r in zip(ser, ref)) / len(ref))


def within_ratio(name: str, ratio: float, tol: float) -> Check:
    """1 / (1 + tol) <= ratio <= 1 + tol."""
    ok = 1.0 / (1.0 + tol) <= ratio <= 1.0 + tol
    return Check(name, ok, f"ser / reference = {ratio:.4f} (limit 1 +- {tol})")


def ordered(name: str, curves: Sequence[Sequence[float]],
            slack: Sequence[Sequence[float]] = ()) -> Check:
    """curves[0] <= curves[1] <= ... at every point, each step within its slack.

    slack[i][j] is the allowance on curves[i][j] <= curves[i + 1][j]; none
    means the order must hold exactly.
    """
    worst = -math.inf
    for i in range(len(curves) - 1):
        for j, (lo, hi) in enumerate(zip(curves[i], curves[i + 1])):
            allowance = slack[i][j] if slack else 0.0
            worst = max(worst, lo - hi - allowance)
    return Check(name, worst <= 0.0, f"largest excess over the order = {worst:.3g}")


def decreasing(name: str, ser: Sequence[float]) -> Check:
    """Strictly falling as power rises."""
    ok = all(b < a for a, b in zip(ser, ser[1:]))
    return Check(name, ok, "ser falls at every step" if ok else f"not decreasing: {list(ser)}")


def slope_near_cap(name: str, slope: float, cap: int, band: float) -> Check:
    """|slope - cap| <= band."""
    return Check(name, abs(slope - cap) <= band,
                 f"slope {slope:.3f}, diversity cap {cap} (band +- {band})")


def maximizer_bounded(name: str, program: Sequence[float], exact: Sequence[float],
                      shortfall: float, roundoff: float = 1e-12) -> Check:
    """exact (1 - shortfall) <= program <= exact (1 + roundoff) at every draw."""
    above = max(p / e - 1.0 for p, e in zip(program, exact))
    below = max(1.0 - p / e for p, e in zip(program, exact))
    ok = above <= roundoff and below <= shortfall
    return Check(name, ok, f"max excess {above:.3g} (limit {roundoff}), "
                           f"max shortfall {below:.3g} (limit {shortfall})")


def equal(name: str, program, reference) -> Check:
    return Check(name, program == reference, f"program {program!r}, reference {reference!r}")


def same_truth(name: str, left: bool, right: bool, what: str) -> Check:
    """left holds exactly when right holds."""
    return Check(name, left == right, f"{what}: {left} vs {right}")
