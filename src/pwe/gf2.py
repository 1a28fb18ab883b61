"""Bit-packed GF(2) vectors, polynomials and matrices.

Everything is stored LSB-first in Python integers: bit i of the integer is
coordinate i of a vector, or the coefficient of x^i of a polynomial.  Row i
of a matrix is one such integer.  All values are immutable after
construction, so they can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = [
    "BitWord",
    "GF2Poly",
    "GF2Matrix",
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


@dataclass(frozen=True)
class GF2Poly:
    """Polynomial over GF(2); bit i of ``value`` is the coefficient of x^i."""

    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("polynomial value must be non-negative")

    @classmethod
    def zero(cls) -> "GF2Poly":
        return cls(0)

    @classmethod
    def one(cls) -> "GF2Poly":
        return cls(1)

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "GF2Poly":
        value = 0
        for e in exponents:
            value |= 1 << e
        return cls(value)

    def exponents(self) -> list[int]:
        return [i for i in range(self.value.bit_length()) if (self.value >> i) & 1]

    @property
    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        if self.value == 0:
            return None
        return self.value.bit_length() - 1

    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other: "GF2Poly") -> "GF2Poly":
        return GF2Poly(self.value ^ other.value)

    __sub__ = __add__

    def __str__(self) -> str:
        if self.value == 0:
            return "0"
        terms = []
        for e in self.exponents():
            terms.append("1" if e == 0 else ("x" if e == 1 else f"x^{e}"))
        return " + ".join(terms)


def poly_mul(a: GF2Poly, b: GF2Poly) -> GF2Poly:
    """Carry-less product of two GF(2) polynomials."""
    av, bv = a.value, b.value
    if av == 0 or bv == 0:
        return GF2Poly(0)
    out = 0
    while bv:
        low = bv & -bv
        out ^= av * low  # multiplying by a power of two is a shift
        bv ^= low
    return GF2Poly(out)


def poly_divmod(a: GF2Poly, b: GF2Poly) -> tuple[GF2Poly, GF2Poly]:
    """Quotient and remainder of GF(2) polynomial long division."""
    if b.value == 0:
        raise ZeroDivisionError("division by zero polynomial")
    r = a.value
    bv = b.value
    db = bv.bit_length() - 1
    q = 0
    while r.bit_length() - 1 >= db and r:
        shift = (r.bit_length() - 1) - db
        q |= 1 << shift
        r ^= bv << shift
    return GF2Poly(q), GF2Poly(r)


def poly_mod(a: GF2Poly, b: GF2Poly) -> GF2Poly:
    return poly_divmod(a, b)[1]


def poly_gcd(a: GF2Poly, b: GF2Poly) -> GF2Poly:
    """Greatest common divisor by the Euclidean algorithm."""
    if a.value == 0 and b.value == 0:
        raise ValueError("gcd of two zero polynomials is undefined")
    x, y = a, b
    while y.value != 0:
        x, y = y, poly_mod(x, y)
    return x


def x_n_plus_1(n: int) -> GF2Poly:
    """x^n + 1 (equal to x^n - 1 over GF(2))."""
    return GF2Poly((1 << n) | 1)


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

    def mul_vector(self, v: int) -> int:
        """v (row vector of nrows bits) times this matrix, over GF(2)."""
        out = 0
        vv = v
        i = 0
        while vv:
            if vv & 1:
                out ^= self.rows[i]
            vv >>= 1
            i += 1
        return out


def rref(M: GF2Matrix) -> tuple[GF2Matrix, int, list[int]]:
    """Reduced row-echelon form over GF(2).

    Returns (R, rank, pivot_columns).  Pivots are chosen at the lowest
    available row/column index so the output is deterministic.
    """
    rows = list(M.rows)
    nrows = len(rows)
    pivot_cols: list[int] = []
    pr = 0
    for col in range(M.ncols):
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
    return GF2Matrix(tuple(rows), M.ncols), len(pivot_cols), pivot_cols
