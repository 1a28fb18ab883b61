"""Analytical performance bounds for ML decoding over AWGN/BPSK.

Word and bit union bounds from a (possibly partial) weight enumerator, and
the truncated bit bound over a PWE's estimated counts.  Sums use math.fsum
since the terms span many orders of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "RateContext",
    "BoundCurve",
    "q_function",
    "union_bound_word",
    "union_bound_bit",
    "bound_curve",
]

CURVE_KINDS = ("word_bound", "bit_bound", "truncated_bound", "simulated_ber")


@dataclass(frozen=True)
class RateContext:
    n: int
    k: int

    def __post_init__(self):
        if not 0 < self.k <= self.n:
            raise ValueError("need 0 < k <= n")

    @property
    def rate(self) -> float:
        return self.k / self.n


@dataclass(frozen=True)
class BoundCurve:
    """Pointwise curve over an increasing Eb/N0 grid (dB)."""

    kind: str
    points: tuple[tuple[float, float], ...]
    # Optional per-point (lower, upper) companions, e.g. a PWE's interval.
    intervals: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        dbs = [p[0] for p in self.points]
        if dbs != sorted(dbs) or len(set(dbs)) != len(dbs):
            raise ValueError("grid must be strictly increasing")
        if self.intervals is not None and len(self.intervals) != len(self.points):
            raise ValueError("interval count disagrees with point count")

    def values(self) -> list[float]:
        return [v for _, v in self.points]


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _terms(weights: dict[int, int] | dict[int, float], ctx: RateContext,
           ebn0_db: float, per_bit: bool) -> list[float]:
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    out = []
    for w in sorted(weights):
        a = weights[w]
        if w == 0:
            raise ValueError("weight maps must not include w = 0")
        term = a * q_function(math.sqrt(2.0 * w * ctx.rate * ebn0))
        if per_bit:
            term *= w / ctx.n
        out.append(term)
    return out


def union_bound_word(weights, ctx: RateContext, ebn0_db: float) -> float:
    """Union bound on the ML word-error probability (may exceed 1; not clamped)."""
    return math.fsum(_terms(weights, ctx, ebn0_db, per_bit=False))


def union_bound_bit(weights, ctx: RateContext, ebn0_db: float) -> float:
    """Union bound on the information-bit error rate of systematic encoding."""
    return math.fsum(_terms(weights, ctx, ebn0_db, per_bit=True))


def bound_curve(weights_or_pwe, ctx: RateContext, snr_grid_db: Sequence[float],
                kind: str = "bit_bound") -> BoundCurve:
    """Evaluate the selected bound pointwise over an increasing grid.

    "truncated_bound" is the bit bound truncated to a PWE's weight classes,
    at its count estimates, with the bound at the lower and upper ends of
    each count interval as the point's interval."""
    grid = [float(x) for x in snr_grid_db]
    if not grid:
        raise ValueError("empty SNR grid")
    if kind == "word_bound":
        pts = [(db, union_bound_word(weights_or_pwe, ctx, db)) for db in grid]
        return BoundCurve(kind, tuple(pts))
    if kind == "bit_bound":
        pts = [(db, union_bound_bit(weights_or_pwe, ctx, db)) for db in grid]
        return BoundCurve(kind, tuple(pts))
    if kind == "truncated_bound":
        entries = weights_or_pwe.entries
        if not entries:
            raise ValueError("empty partial weight enumerator")
        est = {e.w: e.count_estimate for e in entries}
        lo = {e.w: e.count_interval[0] for e in entries}
        hi = {e.w: e.count_interval[1] for e in entries}
        pts = tuple((db, union_bound_bit(est, ctx, db)) for db in grid)
        ivs = tuple((union_bound_bit(lo, ctx, db), union_bound_bit(hi, ctx, db)) for db in grid)
        return BoundCurve(kind, pts, ivs)
    raise ValueError(f"unknown bound kind {kind!r}")
