"""Binary linear block codes: construction, encoding, membership, enumeration.

Codes are described by a CodeSpec holding a full-rank generator matrix plus
optional cyclic structure (generator polynomial) and an optional link to the
cyclic parent a shortened code was cut from.  Exhaustive enumeration walks
all 2^k codewords in Gray-code order on packed 64-bit words, one table of
2^17 codewords at a time, each XORed with one combination of the other rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .bitops import bits_to_ints, gf2_matmul, ints_to_bits
from .gf2 import BitWord, GF2Matrix, poly_divmod, poly_from_exponents, poly_gcd, rref

# Largest k whose 2^k codewords may be enumerated, as MLD_MAX_K caps MLD's
# codebook.
EXHAUSTIVE_MAX_K = 26


@dataclass(frozen=True)
class CodeSpec:
    """An [n, k] binary linear block code."""

    name: str
    n: int
    k: int
    generator_matrix: GF2Matrix
    d_known: Optional[int] = None
    # Bit i is the coefficient of x^i, on cyclic codes and their shortenings.
    generator_poly: Optional[int] = None
    # The cyclic code a shortened code was cut from; shortening removes the
    # parent's top parent.n - n coordinates.
    parent: Optional["CodeSpec"] = None

    def __post_init__(self):
        if self.generator_matrix.nrows != self.k or self.generator_matrix.ncols != self.n:
            raise ValueError("generator matrix shape disagrees with (n, k)")

    @property
    def rate(self) -> float:
        return self.k / self.n

    @property
    def is_cyclic(self) -> bool:
        """A cyclic code has a generator polynomial and no parent."""
        return self.generator_poly is not None and self.parent is None

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


# ---------------------------------------------------------------------------
# Systematic form, in original coordinates
# ---------------------------------------------------------------------------

class SystematicForm(NamedTuple):
    """A code's reduced generator R = rref(G), as bits.

    R carries the identity on its pivot columns, which are the information
    positions, so it encodes systematically without moving any coordinate.
    """

    info_positions: tuple[int, ...]  # R's pivot columns, row i's at info_positions[i]
    generator_bits: np.ndarray  # R as a k x n uint8 array


def _systematic_form(G: GF2Matrix) -> SystematicForm:
    R, pivots = rref(G.rows, G.ncols)
    if len(pivots) != G.nrows:
        raise ValueError(f"generator matrix is rank-deficient: rank {len(pivots)} < {G.nrows}")
    bits = ints_to_bits(R, G.ncols)
    bits.flags.writeable = False
    return SystematicForm(tuple(pivots), bits)


def encode(code: CodeSpec, info: BitWord) -> BitWord:
    """Systematic encoding of a k-bit information word."""
    if info.length != code.k:
        raise ValueError(f"information word length {info.length} != k = {code.k}")
    bits = gf2_matmul(ints_to_bits([info.value], code.k), code.systematic.generator_bits)
    return BitWord(code.n, bits_to_ints(bits)[0])


def contains(code: CodeSpec, word: int) -> bool:
    """Membership test of a word, an int below 2^n: codeword_rows of one row."""
    if not 0 <= word < 1 << code.n:
        raise ValueError(f"word {word:#x} does not fit in n = {code.n} bits")
    return bool(codeword_rows(code, ints_to_bits([word], code.n))[0])


@functools.lru_cache(maxsize=16)
def _syndrome_table(code: CodeSpec) -> np.ndarray:
    """table[j, v]: the syndrome of the word whose byte j is v, its other
    bytes 0, in max(1, ceil((n - k)/64)) uint64 words.  A syndrome is a word
    XOR the re-encoding of its information bits, on the redundancy positions:
    0 exactly for a codeword, and linear, so each set bit adds its unit's."""
    (n, k), form = (code.n, code.k), code.systematic
    words, info = max(1, -(-(n - k) // 64)), list(form.info_positions)
    # Row i: unit i XOR its re-encoding, on the redundancy columns and 0s.
    units = np.zeros((8 * -(-n // 8), k + 64 * words), dtype=np.uint8)
    units[np.arange(n), np.arange(n)] = 1
    units[info, :n] ^= form.generator_bits
    units = np.packbits(np.delete(units, info, axis=1), axis=1, bitorder="little")
    units = np.ascontiguousarray(units).view("<u8").reshape(-1, 8, words)
    # Entry v of byte j: entries below 2^b, then those XOR bit b's unit.
    table = np.zeros((len(units), 1, words), dtype="<u8")
    for b in range(8):
        table = np.concatenate([table, table ^ units[:, b:b + 1]], axis=1)
    table.flags.writeable = False
    return table


def packed_syndromes(code: CodeSpec, packed: np.ndarray) -> np.ndarray:
    """The syndrome (_syndrome_table) of each row of an m x ceil(n/8) uint8 array
    of little-endian word bytes, bits past n clear: one table entry per byte."""
    table = _syndrome_table(code)
    out = np.zeros((len(packed), table.shape[2]), dtype="<u8")
    for j in range(len(table)):
        out ^= table[j].take(packed[:, j], axis=0)
    return out


def codeword_rows(code: CodeSpec, bits: np.ndarray) -> np.ndarray:
    """Membership of each row of an m x n bit array, as m booleans."""
    return ~packed_syndromes(code, np.packbits(bits, axis=1, bitorder="little")).any(axis=1)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def cyclic_code(
    g: int, n: int, name: Optional[str] = None, d_known: Optional[int] = None
) -> CodeSpec:
    """Cyclic code of length n generated by the polynomial g; rows are x^i·g(x)."""
    if not 0 < g < 1 << n:
        raise ValueError("generator polynomial degree must lie in [0, n)")
    if poly_divmod(1 << n | 1, g)[1]:
        raise ValueError(f"g does not divide x^{n} + 1")
    k = n - g.bit_length() + 1
    rows = tuple(g << i for i in range(k))
    return CodeSpec(
        name=name or f"cyclic-{n}-{k}",
        n=n,
        k=k,
        generator_matrix=GF2Matrix(rows, n),
        d_known=d_known,
        generator_poly=g,
    )


def shorten(
    parent: CodeSpec, s: int, name: Optional[str] = None, d_known: Optional[int] = None
) -> CodeSpec:
    """Shorten a cyclic code by s information positions.

    Restricting the message polynomial to degree < k - s zeroes the last s
    coordinates of every codeword, so those coordinates are removed.
    """
    if not parent.is_cyclic:
        raise ValueError("shortening requires a cyclic parent with a generator polynomial")
    if s >= parent.k:
        raise ValueError(f"cannot shorten by {s} >= k = {parent.k}")
    if s <= 0:
        raise ValueError("shortening count must be positive")
    g = parent.generator_poly
    n = parent.n - s
    k = parent.k - s
    rows = tuple(g << i for i in range(k))
    return CodeSpec(
        name=name or f"{parent.name}-shortened-{s}",
        n=n,
        k=k,
        generator_matrix=GF2Matrix(rows, n),
        d_known=d_known if d_known is not None else parent.d_known,
        generator_poly=g,
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


def qr_generator_polynomial(p: int) -> int:
    """Generator polynomial of the binary quadratic-residue code of length p.

    Built as gcd(x^p + 1, θ), θ the sum of x^r over the residues r when
    p ≡ 7 (mod 8), else 1 plus the sum over the non-residues.
    """
    if not _is_prime(p) or p % 8 not in (1, 7):
        raise ValueError("p must be a prime with 2 a quadratic residue (p ≡ ±1 mod 8)")
    qr = quadratic_residues(p)
    if p % 8 == 7:
        theta = poly_from_exponents(qr)
    else:
        theta = poly_from_exponents(set(range(1, p)) - qr) ^ 1
    g, target = poly_gcd(1 << p | 1, theta), (p - 1) // 2
    if g.bit_length() - 1 != target:
        raise ValueError(f"no quadratic-residue generator of degree {target} found for p = {p}")
    return g


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------

# Codewords per chunk: the table over the first _TABLE_ROWS generator rows.
_TABLE_ROWS = 17


def _codeword_chunks(code: CodeSpec, generators: Optional[list[int]] = None) -> Iterator[np.ndarray]:
    """All 2^k codewords, or every word the rows generators span, in chunks
    of at most 2^17 rows of ceil(n/64) little-endian 64-bit words.  Each
    chunk is overwritten by the next, so a consumer reads it before drawing
    another.

    Word i is the XOR of the rows at the set bits of i's reflected Gray code
    i ^ (i >> 1), so consecutive words differ by one row.  The table over
    the first 17 rows holds one chunk in that order; chunk c is the table,
    reversed when c is odd, XOR the rows 17 on at the set bits of c's Gray
    code.
    """
    if code.k > EXHAUSTIVE_MAX_K:
        raise ValueError(f"enumeration needs k <= {EXHAUSTIVE_MAX_K}, got k = {code.k}")
    nwords = -(-code.n // 64)
    raw = b"".join(r.to_bytes(8 * nwords, "little")
                   for r in (code.generator_matrix.rows if generators is None else generators))
    rows = np.frombuffer(raw, dtype="<u8").reshape(-1, nwords, 1)
    # Word-major, handed out transposed: row-major, n > 64 ran numpy's inner
    # loop two words at a time, 1.09 against 0.18 ms a chunk.
    table = np.zeros((nwords, 1), dtype="<u8")
    for row in rows[:_TABLE_ROWS]:
        table = np.concatenate([table, table[:, ::-1] ^ row], axis=1)
    # Reversed once: XOR over a reversed view takes about 1.5 times as long.
    tables, acc = (table, table[:, ::-1].copy()), np.zeros((nwords, 1), dtype="<u8")
    # One buffer per call: after MLD decoding, a fresh chunk per step was
    # mapped from the OS and released again each time, 31,000 page faults in
    # a qr-47-24 enumeration against 800 with the buffer.
    chunk = np.empty_like(table)
    for c in range(1 << max(len(rows) - _TABLE_ROWS, 0)):
        if c:
            acc ^= rows[_TABLE_ROWS + (c & -c).bit_length() - 1]
        yield np.bitwise_xor(tables[c & 1], acc, out=chunk).T


def _weights(code: CodeSpec, chunk: np.ndarray) -> np.ndarray:
    """Hamming weight of each packed row: its words' popcounts added one word
    at a time, in the least type that holds n (for n <= 64, the popcounts)."""
    dtype = np.min_scalar_type(code.n)
    return functools.reduce(lambda a, b: np.add(a, b, dtype=dtype), np.bitwise_count(chunk).T)


def exact_weight_distribution(
    code: CodeSpec, max_weight: Optional[int] = None
) -> WeightDistribution:
    """Complete (or weight-truncated) A_w by enumerating all 2^k codewords,
    or half of them when the code holds the all-ones word 1.  The code is
    then S and S + 1, S spanned by the systematic rows but the last (1 has
    every information bit set, so it needs the last row and lies outside S),
    and s + 1 has weight n - wt(s): A_w = H_w + H_(n-w), H counting S."""
    # An oversized code is refused by _codeword_chunks, before any work.
    half = code.k <= EXHAUSTIVE_MAX_K and contains(code, (1 << code.n) - 1)
    rows = bits_to_ints(code.systematic.generator_bits[:-1]) if half else None
    counts = sum(np.bincount(_weights(code, chunk), minlength=code.n + 1)
                 for chunk in _codeword_chunks(code, rows))
    if half:
        counts = counts + counts[::-1]
    top = code.n if max_weight is None else min(max_weight, code.n)
    return WeightDistribution.from_dict({w: int(counts[w]) for w in range(top + 1)})


def codewords_of_weight(code: CodeSpec, w: int) -> list[int]:
    """All codewords of one weight, as integers in enumeration order
    (requires small k)."""
    raw = b"".join(chunk[_weights(code, chunk) == w].tobytes()
                   for chunk in _codeword_chunks(code))
    size = 8 * -(-code.n // 64)
    return [int.from_bytes(raw[at:at + size], "little") for at in range(0, len(raw), size)]


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

    add(cyclic_code(poly_from_exponents([0, 1, 3]), 7, name="hamming-7-4", d_known=3))

    qr23 = cyclic_code(qr_generator_polynomial(23), 23, name="qr-23-12", d_known=7)
    add(qr23)
    add(extend_with_parity(qr23, name="golay-24-12", d_known=8))

    add(cyclic_code(qr_generator_polynomial(47), 47, name="qr-47-24", d_known=11))
    add(cyclic_code(qr_generator_polynomial(71), 71, name="qr-71-36", d_known=11))
    add(cyclic_code(qr_generator_polynomial(73), 73, name="qr-73-37", d_known=13))

    add(cyclic_code(poly_from_exponents(G1_EXPONENTS), 127,
                    name="bch-127-50", d_known=27))

    bch255 = cyclic_code(poly_from_exponents(G2_EXPONENTS), 255,
                         name="bch-255-191", d_known=17)
    add(bch255)
    add(shorten(bch255, 125, name="bch-130-66", d_known=17))

    bch127 = cyclic_code(poly_from_exponents(G3_EXPONENTS), 127,
                         name="bch-127-71", d_known=19)
    add(bch127)
    add(shorten(bch127, 24, name="bch-103-47", d_known=19))
    add(shorten(bch127, 16, name="bch-111-55", d_known=19))

    add(cyclic_code(G_BCH_63_39, 63, name="bch-63-39", d_known=9))

    return codes


def get_code(name: str) -> CodeSpec:
    codes = catalog()
    if name not in codes:
        raise KeyError(f"unknown code {name!r}; known: {', '.join(sorted(codes))}")
    return codes[name]
