"""Bit-packed GF(2) vectors, polynomials and matrices.

Everything is stored LSB-first in Python integers: bit i of the integer is
coordinate i of a vector, or the coefficient of x^i of a polynomial.  Row i
of a matrix is one such integer.  All values are immutable after
construction, so they can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "BitWord",
    "GF2Matrix",
    "poly_from_exponents",
    "poly_exponents",
    "poly_mul",
    "poly_divmod",
    "poly_gcd",
    "rref",
]


@dataclass(frozen=True)
class BitWord:
    """A fixed-length binary word; bit i of ``value`` is coordinate i.

    Words are ints below 2^n everywhere but at ``codes.encode`` and the
    one-row decoders, which take and return this wrapper."""

    length: int
    value: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be non-negative")
        if not 0 <= self.value < (1 << self.length):
            raise ValueError(f"value out of range for length {self.length}")


def poly_from_exponents(exponents: Iterable[int]) -> int:
    """The polynomial with coefficient 1 at each of the exponents."""
    value = 0
    for e in exponents:
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        value |= 1 << e
    return value


def poly_exponents(p: int) -> list[int]:
    """The exponents of p's nonzero coefficients, in increasing order."""
    return [i for i in range(p.bit_length()) if p >> i & 1]


def poly_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    if a < 0 or b < 0:
        raise ValueError("polynomials are non-negative ints")
    out = 0
    while b:
        low = b & -b
        out ^= a * low  # multiplying by a power of two is a shift
        b ^= low
    return out


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of GF(2) polynomial long division."""
    if a < 0 or b < 0:
        raise ValueError("polynomials are non-negative ints")
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    q = 0
    while (shift := a.bit_length() - b.bit_length()) >= 0:
        q |= 1 << shift
        a ^= b << shift
    return q, a


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor by the Euclidean algorithm."""
    if a == 0 and b == 0:
        raise ValueError("gcd of two zero polynomials is undefined")
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a


@dataclass(frozen=True)
class GF2Matrix:
    """Dense binary matrix; row i is the integer ``rows[i]``, LSB = column 0."""

    rows: tuple[int, ...]
    ncols: int

    def __post_init__(self):
        limit = 1 << self.ncols
        for r in self.rows:
            if not 0 <= r < limit:
                raise ValueError("row value exceeds column count")

    @property
    def nrows(self) -> int:
        return len(self.rows)


def rref(rows: Iterable[int], ncols: int) -> tuple[tuple[int, ...], list[int]]:
    """Reduced row-echelon form over GF(2) of int rows of ncols bits.

    Returns (R rows, pivot columns); the rank is the number of pivots.
    Pivots are chosen at the lowest available row/column index so the
    output is deterministic.
    """
    rows = list(rows)
    nrows = len(rows)
    pivot_cols: list[int] = []
    pr = 0
    for col in range(ncols):
        if pr == nrows:
            break
        mask = 1 << col
        found = -1
        for i in range(pr, nrows):
            if rows[i] & mask:
                found = i
                break
        if found < 0:
            continue
        rows[pr], rows[found] = rows[found], rows[pr]
        piv = rows[pr]
        for i in range(nrows):
            if i != pr and rows[i] & mask:
                rows[i] ^= piv
        pivot_cols.append(col)
        pr += 1
    return tuple(rows), pivot_cols
