"""Binary linear block codes: construction, encoding, membership, enumeration.

Codes are described by a CodeSpec holding a full-rank generator matrix plus
optional cyclic structure (generator polynomial) and an optional link to the
cyclic parent a shortened code was cut from.  Exhaustive enumeration walks
all 2^k codewords in Gray-code order on packed 64-bit words, one table of
2^17 codewords at a time, each XORed with one combination of the other rows.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .bitops import ints_to_bits
from .gf2 import BitWord, GF2Matrix, GF2Poly, poly_gcd, poly_mod, rref, x_n_plus_1

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
    # The cyclic code a shortened code was cut from; shortening removes the
    # parent's top parent.n - n coordinates.
    parent: Optional["CodeSpec"] = None

    def __post_init__(self):
        if self.generator_matrix.nrows != self.k or self.generator_matrix.ncols != self.n:
            raise ValueError("generator matrix shape disagrees with (n, k)")

    @property
    def rate(self) -> float:
        return self.k / self.n

    @functools.cached_property
    def systematic(self) -> "SystematicForm":
        """The systematic form, derived on first use and kept on the code
        (outside its fields, so it takes no part in == or hashing)."""
        return _systematic_form(self.generator_matrix)


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
        return next((a for v, a in self.counts if v == w), 0)

    def total(self) -> int:
        return sum(a for _, a in self.counts)


# ---------------------------------------------------------------------------
# Systematic form, in original coordinates
# ---------------------------------------------------------------------------

class SystematicForm(NamedTuple):
    """A code's reduced generator R = rref(G) and what follows from it.

    R carries the identity on its pivot columns, which are the information
    positions, so it encodes systematically without moving any coordinate.
    """

    generator: GF2Matrix  # R; row i has its pivot at info_positions[i]
    info_positions: tuple[int, ...]
    generator_bits: np.ndarray  # R as a k x n uint8 array


def _systematic_form(G: GF2Matrix) -> SystematicForm:
    R, rank, pivots = rref(G)
    if rank != G.nrows:
        raise ValueError(f"generator matrix is rank-deficient: rank {rank} < {G.nrows} rows")
    bits = ints_to_bits(R.rows, G.ncols)
    bits.flags.writeable = False
    return SystematicForm(R, tuple(pivots), bits)


def info_positions(code: CodeSpec) -> tuple[int, ...]:
    """Positions carrying the k information bits."""
    return code.systematic.info_positions


def encode(code: CodeSpec, info: BitWord) -> BitWord:
    """Systematic encoding of a k-bit information word."""
    if info.length != code.k:
        raise ValueError(f"information word length {info.length} != k = {code.k}")
    return BitWord(code.n, code.systematic.generator.mul_vector(info.value))


def extract_info(code: CodeSpec, word: BitWord) -> BitWord:
    """Information bits of a codeword (the systematic positions)."""
    value = word.value
    info = 0
    for i, p in enumerate(code.systematic.info_positions):
        info |= ((value >> p) & 1) << i
    return BitWord(code.k, info)


def contains(code: CodeSpec, word: BitWord | int) -> bool:
    """Membership test of a BitWord, or of an int holding the n bits of a
    word, by the rule of codeword_rows: the XOR of R's rows at the word's
    set information positions must equal the word."""
    if isinstance(word, BitWord):
        if word.length != code.n:
            raise ValueError(f"word length {word.length} != n = {code.n}")
        word = word.value
    elif not 0 <= word < 1 << code.n:
        raise ValueError(f"word {word:#x} does not fit in n = {code.n} bits")
    form = code.systematic
    reencoded = 0
    for p, r in zip(form.info_positions, form.generator.rows):
        if word >> p & 1:
            reencoded ^= r
    return reencoded == word


def codeword_rows(code: CodeSpec, bits: np.ndarray) -> np.ndarray:
    """Membership of each row of an m x n bit array, as m booleans: a row
    is a codeword when it equals the re-encoding of its information bits."""
    form = code.systematic
    info = bits[:, form.info_positions].astype(np.float32)  # exact: sums stay below 2^24
    reencoded = (info @ form.generator_bits).astype(np.int32) & 1
    return np.all(reencoded == bits, axis=1)


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
    return CodeSpec(
        name=name or f"{parent.name}-shortened-{s}",
        n=n,
        k=k,
        generator_matrix=GF2Matrix(rows, n),
        d_known=d_known if d_known is not None else parent.d_known,
        generator_poly=g,
        is_cyclic=False,
        parent=parent,
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

# Codewords per chunk: the table over the first _TABLE_ROWS generator rows.
_TABLE_ROWS = 17


def _codeword_chunks(code: CodeSpec) -> Iterator[np.ndarray]:
    """All 2^k codewords, in chunks of at most 2^17 rows of ceil(n/64)
    little-endian 64-bit words.  Each chunk is overwritten by the next, so a
    consumer reads it before drawing another.

    Codeword i is the XOR of the generator rows at the set bits of i's
    reflected Gray code i ^ (i >> 1), so consecutive codewords differ by one
    row.  The table over the first 17 rows holds one chunk in that order;
    chunk c is the table, reversed when c is odd, XOR the rows 17 on at the
    set bits of c's Gray code.
    """
    limit = exhaustive_limit()
    if code.k > limit:
        raise ValueError(f"dimension k = {code.k} exceeds the exhaustive limit {limit}")
    nwords = -(-code.n // 64)
    raw = b"".join(r.to_bytes(8 * nwords, "little") for r in code.generator_matrix.rows)
    rows = np.frombuffer(raw, dtype="<u8").reshape(code.k, nwords)
    table = np.zeros((1, nwords), dtype="<u8")
    for row in rows[:_TABLE_ROWS]:
        table = np.concatenate([table, table[::-1] ^ row])
    # Reversed once: XOR over a reversed view takes about 1.5 times as long.
    tables, acc = (table, table[::-1].copy()), np.zeros(nwords, dtype="<u8")
    # One buffer per call: after MLD decoding, a fresh chunk per step was
    # mapped from the OS and released again each time, 31,000 page faults in
    # a qr-47-24 enumeration against 800 with the buffer.
    chunk = np.empty_like(table)
    for c in range(1 << max(code.k - _TABLE_ROWS, 0)):
        if c:
            acc ^= rows[_TABLE_ROWS + (c & -c).bit_length() - 1]
        yield np.bitwise_xor(tables[c & 1], acc, out=chunk)


def _weights(code: CodeSpec, chunk: np.ndarray) -> np.ndarray:
    """Hamming weight of each packed row: its words' popcounts added one word
    at a time, in the least type that holds n (for n <= 64, the popcounts)."""
    dtype = np.min_scalar_type(code.n)
    return functools.reduce(lambda a, b: np.add(a, b, dtype=dtype), np.bitwise_count(chunk).T)


def exact_weight_distribution(
    code: CodeSpec, max_weight: Optional[int] = None
) -> WeightDistribution:
    """Complete (or weight-truncated) A_w by enumerating all 2^k codewords."""
    counts = sum(np.bincount(_weights(code, chunk), minlength=code.n + 1)
                 for chunk in _codeword_chunks(code))
    top = code.n if max_weight is None else min(max_weight, code.n)
    return WeightDistribution.from_dict({w: int(counts[w]) for w in range(top + 1)})


def codewords_of_weight(code: CodeSpec, w: int) -> list[int]:
    """All codewords of one weight, as integers in enumeration order
    (requires small k)."""
    raw = b"".join(chunk[_weights(code, chunk) == w].tobytes()
                   for chunk in _codeword_chunks(code))
    size = 8 * -(-code.n // 64)
    return [int.from_bytes(raw[at:at + size], "little") for at in range(0, len(raw), size)]


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
