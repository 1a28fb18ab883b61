"""Binary linear block codes: construction, encoding, membership, enumeration.

Codes are described by a CodeSpec holding a full-rank generator matrix plus
optional cyclic structure (generator polynomial) and an optional link to the
cyclic parent a shortened code was cut from.  Exhaustive weight-distribution
enumeration walks all 2^k codewords in Gray-code order so each step costs a
single row XOR.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .gf2 import (
    BitWord,
    GF2Matrix,
    GF2Poly,
    invert_permutation,
    parity_check_from_generator,
    permute_columns,
    permute_word,
    poly_divmod,
    poly_gcd,
    poly_mod,
    systematic_form,
    x_n_plus_1,
)

DEFAULT_EXHAUSTIVE_LIMIT = 26
EXHAUSTIVE_LIMIT_ENV = "PWE_EXHAUSTIVE_LIMIT"


def exhaustive_limit() -> int:
    """Largest dimension k for which 2^k enumeration is allowed."""
    raw = os.environ.get(EXHAUSTIVE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_EXHAUSTIVE_LIMIT
    return int(raw)


@dataclass(frozen=True)
class CodeSpec:
    """An [n, k] binary linear block code."""

    name: str
    n: int
    k: int
    generator_matrix: GF2Matrix
    d_known: Optional[int] = None
    generator_poly: Optional[GF2Poly] = None
    is_cyclic: bool = False
    # (parent code, coordinates of the parent that were removed), for
    # shortened codes.
    parent: Optional[tuple["CodeSpec", tuple[int, ...]]] = field(default=None)

    def __post_init__(self):
        if self.generator_matrix.nrows != self.k or self.generator_matrix.ncols != self.n:
            raise ValueError("generator matrix shape disagrees with (n, k)")

    @property
    def rate(self) -> float:
        return self.k / self.n


@dataclass(frozen=True)
class WeightDistribution:
    """Codeword counts by weight: counts[w] = A_w."""

    counts: tuple[tuple[int, int], ...]  # sorted (w, A_w) pairs, A_w > 0

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "WeightDistribution":
        return cls(tuple(sorted((w, a) for w, a in d.items() if a)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def __getitem__(self, w: int) -> int:
        return self.as_dict().get(w, 0)

    def total(self) -> int:
        return sum(a for _, a in self.counts)


# ---------------------------------------------------------------------------
# Systematic-form machinery, cached per code.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _systematic(code: CodeSpec):
    """(G_sys, perm, inv_perm, H) for a code, computed once.

    G_sys is in the permuted coordinates; H is in the original ones, so a
    membership test needs no per-word permutation."""
    G_sys, perm = systematic_form(code.generator_matrix)
    inv_perm = invert_permutation(perm)
    H = permute_columns(parity_check_from_generator(G_sys), inv_perm)
    return G_sys, tuple(perm), tuple(inv_perm), H


def info_positions(code: CodeSpec) -> tuple[int, ...]:
    """Original-coordinate positions carrying the k information bits."""
    _, perm, _, _ = _systematic(code)
    return perm[: code.k]


def encode(code: CodeSpec, info: BitWord) -> BitWord:
    """Systematic encoding of a k-bit information word."""
    if info.length != code.k:
        raise ValueError(f"information word length {info.length} != k = {code.k}")
    G_sys, _, inv_perm, _ = _systematic(code)
    cw_perm = G_sys.mul_vector(info.value)
    return BitWord(code.n, permute_word(cw_perm, inv_perm))


def extract_info(code: CodeSpec, word: BitWord) -> BitWord:
    """Information bits of a codeword (the systematic positions)."""
    _, perm, _, _ = _systematic(code)
    pw = permute_word(word.value, perm)
    return BitWord(code.k, pw & ((1 << code.k) - 1))


def contains(code: CodeSpec, word: BitWord) -> bool:
    """Parity-check membership test."""
    if word.length != code.n:
        raise ValueError(f"word length {word.length} != n = {code.n}")
    return _systematic(code)[3].syndrome(word.value) == 0


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def cyclic_code(
    g: GF2Poly, n: int, name: Optional[str] = None, d_known: Optional[int] = None
) -> CodeSpec:
    """Cyclic code of length n generated by g; rows are x^i·g(x)."""
    if g.is_zero() or g.degree >= n:
        raise ValueError("generator polynomial degree must lie in [0, n)")
    if not poly_mod(x_n_plus_1(n), g).is_zero():
        raise ValueError(f"g does not divide x^{n} + 1")
    k = n - g.degree
    rows = tuple(g.value << i for i in range(k))
    return CodeSpec(
        name=name or f"cyclic-{n}-{k}",
        n=n,
        k=k,
        generator_matrix=GF2Matrix(rows, n),
        d_known=d_known,
        generator_poly=g,
        is_cyclic=True,
    )


def shorten(
    parent: CodeSpec, s: int, name: Optional[str] = None, d_known: Optional[int] = None
) -> CodeSpec:
    """Shorten a cyclic code by s information positions.

    Restricting the message polynomial to degree < k - s zeroes the last s
    coordinates of every codeword, so those coordinates are removed.
    """
    if not parent.is_cyclic or parent.generator_poly is None:
        raise ValueError("shortening requires a cyclic parent with a generator polynomial")
    if s >= parent.k:
        raise ValueError(f"cannot shorten by {s} >= k = {parent.k}")
    if s <= 0:
        raise ValueError("shortening count must be positive")
    g = parent.generator_poly
    n = parent.n - s
    k = parent.k - s
    rows = tuple(g.value << i for i in range(k))
    removed = tuple(range(parent.n - s, parent.n))
    return CodeSpec(
        name=name or f"{parent.name}-shortened-{s}",
        n=n,
        k=k,
        generator_matrix=GF2Matrix(rows, n),
        d_known=d_known if d_known is not None else parent.d_known,
        generator_poly=g,
        is_cyclic=False,
        parent=(parent, removed),
    )


def extend_with_parity(code: CodeSpec, name: Optional[str] = None,
                       d_known: Optional[int] = None) -> CodeSpec:
    """Append an overall parity bit, making every codeword even-weight."""
    n = code.n + 1
    rows = []
    for r in code.generator_matrix.rows:
        parity = r.bit_count() & 1
        rows.append(r | (parity << code.n))
    return CodeSpec(
        name=name or f"{code.name}-extended",
        n=n,
        k=code.k,
        generator_matrix=GF2Matrix(tuple(rows), n),
        d_known=d_known,
    )


def quadratic_residues(p: int) -> set[int]:
    return {(i * i) % p for i in range(1, p)}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def qr_generator_polynomial(p: int) -> GF2Poly:
    """Generator polynomial of the binary quadratic-residue code of length p.

    Built as gcd(x^p + 1, θ) where θ is the residue-exponent sum; idempotent
    variants are tried until a degree-(p-1)/2 factor appears.
    """
    if not _is_prime(p) or p % 8 not in (1, 7):
        raise ValueError("p must be a prime with 2 a quadratic residue (p ≡ ±1 mod 8)")
    qr = quadratic_residues(p)
    nqr = set(range(1, p)) - qr
    theta = GF2Poly.from_exponents(qr)
    theta_n = GF2Poly.from_exponents(nqr) + GF2Poly.one()
    target = (p - 1) // 2
    for cand in (theta, theta_n, theta + GF2Poly.one()):
        g = poly_gcd(x_n_plus_1(p), cand)
        if g.degree == target:
            return g
    raise ValueError(f"no quadratic-residue generator of degree {target} found for p = {p}")


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------

def _check_exhaustive(k: int):
    limit = exhaustive_limit()
    if k > limit:
        raise ValueError(f"dimension k = {k} exceeds the exhaustive limit {limit}")


def iter_codewords(code: CodeSpec) -> Iterator[int]:
    """All 2^k codewords as integers, in Gray-code order (one XOR per step)."""
    _check_exhaustive(code.k)
    rows = code.generator_matrix.rows
    cw = 0
    yield cw
    for i in range(1, 1 << code.k):
        cw ^= rows[(i & -i).bit_length() - 1]
        yield cw


def _weight_counts_numpy(rows: tuple[int, ...], n: int) -> np.ndarray:
    """Vectorized weight histogram for n <= 64 via packed uint64 XOR tables."""
    k = len(rows)
    k_hi = min(k, 17)
    k_lo = k - k_hi
    table = np.zeros(1, dtype=np.uint64)
    for r in rows[k_lo:]:
        table = np.concatenate([table, table ^ np.uint64(r)])
    counts = np.zeros(n + 1, dtype=np.int64)
    acc = 0
    counts += np.bincount(np.bitwise_count(table), minlength=n + 1)
    for i in range(1, 1 << k_lo):
        acc ^= rows[(i & -i).bit_length() - 1]
        arr = table ^ np.uint64(acc)
        counts += np.bincount(np.bitwise_count(arr), minlength=n + 1)
    return counts


def exact_weight_distribution(
    code: CodeSpec, max_weight: Optional[int] = None
) -> WeightDistribution:
    """Complete (or weight-truncated) A_w by enumerating all 2^k codewords."""
    _check_exhaustive(code.k)
    n = code.n
    if n <= 64:
        counts = _weight_counts_numpy(code.generator_matrix.rows, n)
        d = {w: int(counts[w]) for w in range(n + 1) if counts[w]}
    else:
        d: dict[int, int] = {}
        for cw in iter_codewords(code):
            w = cw.bit_count()
            d[w] = d.get(w, 0) + 1
    if max_weight is not None:
        d = {w: a for w, a in d.items() if w <= max_weight}
    return WeightDistribution.from_dict(d)


def codewords_of_weight(code: CodeSpec, w: int) -> list[int]:
    """All codewords of one weight, as integers (requires small k)."""
    _check_exhaustive(code.k)
    return [cw for cw in iter_codewords(code) if cw.bit_count() == w]


def minimum_distance_exhaustive(code: CodeSpec) -> int:
    wd = exact_weight_distribution(code)
    return min(w for w, _ in wd.counts if w > 0)


# ---------------------------------------------------------------------------
# Catalog of named codes
# ---------------------------------------------------------------------------

# Generator polynomial of the two-error-correcting-beyond-design BCH(127,50)
# code, listed by its exponents.
G1_EXPONENTS = (
    0, 1, 2, 3, 5, 6, 9, 10, 11, 13, 14, 15, 17, 18, 26, 27, 28, 33, 35, 36,
    37, 38, 42, 43, 45, 47, 48, 51, 56, 57, 58, 59, 60, 64, 65, 68, 72, 75, 77,
)

# Generator polynomial of the primitive BCH(255,191) code.
G2_EXPONENTS = (
    0, 2, 3, 5, 6, 9, 10, 11, 14, 15, 16, 22, 23, 24, 25, 26, 27, 31, 34, 35,
    37, 39, 40, 42, 43, 45, 46, 47, 48, 49, 52, 53, 56, 58, 59, 60, 62, 63, 64,
)

# Generator polynomial of the primitive BCH(127,71) code.
G3_EXPONENTS = (
    0, 4, 10, 11, 13, 16, 17, 20, 23, 24, 25, 28, 32, 35, 39, 40, 41, 42, 43,
    44, 45, 46, 48, 49, 51, 53, 56,
)

# Degree-24 generator of the t=4 primitive BCH code of length 63 (octal
# 166623567 in the standard tables), stored as a constant because deriving it
# needs GF(2^m) arithmetic this package deliberately omits.
G_BCH_63_39 = 0o166623567


@functools.lru_cache(maxsize=1)
def catalog() -> dict[str, CodeSpec]:
    """The named codes used throughout the package and its validation suite."""
    codes: dict[str, CodeSpec] = {}

    def add(c: CodeSpec):
        codes[c.name] = c

    add(cyclic_code(GF2Poly.from_exponents([0, 1, 3]), 7, name="hamming-7-4", d_known=3))

    qr23 = cyclic_code(qr_generator_polynomial(23), 23, name="qr-23-12", d_known=7)
    add(qr23)
    add(extend_with_parity(qr23, name="golay-24-12", d_known=8))

    add(cyclic_code(qr_generator_polynomial(47), 47, name="qr-47-24", d_known=11))
    add(cyclic_code(qr_generator_polynomial(71), 71, name="qr-71-36", d_known=11))
    add(cyclic_code(qr_generator_polynomial(73), 73, name="qr-73-37", d_known=13))

    add(cyclic_code(GF2Poly.from_exponents(G1_EXPONENTS), 127,
                    name="bch-127-50", d_known=27))

    bch255 = cyclic_code(GF2Poly.from_exponents(G2_EXPONENTS), 255,
                         name="bch-255-191", d_known=17)
    add(bch255)
    add(shorten(bch255, 125, name="bch-130-66", d_known=17))

    bch127 = cyclic_code(GF2Poly.from_exponents(G3_EXPONENTS), 127,
                         name="bch-127-71", d_known=19)
    add(bch127)
    add(shorten(bch127, 24, name="bch-103-47", d_known=19))
    add(shorten(bch127, 16, name="bch-111-55", d_known=19))

    add(cyclic_code(GF2Poly(G_BCH_63_39), 63, name="bch-63-39", d_known=9))

    return codes


def get_code(name: str) -> CodeSpec:
    codes = catalog()
    if name not in codes:
        raise KeyError(f"unknown code {name!r}; known: {', '.join(sorted(codes))}")
    return codes[name]
