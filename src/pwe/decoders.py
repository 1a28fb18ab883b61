"""Soft-decision decoders: exhaustive maximum likelihood and ordered statistics.

Both decoders receive a soft vector of n channel symbols (BPSK convention:
bit 0 transmitted as +1, bit 1 as -1) and return the selected codeword.
Scoring minimizes squared Euclidean distance to the received vector; since
dist²(r, c) = const + 4·Σ r_i·c_i over bit vectors c, the implementations
minimize the correlation Σ r_i·c_i, which has the same argmin.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bitops import bits_to_int, int_to_bits, ints_to_bits
from .codes import CodeSpec, iter_codewords
from .gf2 import BitWord, GF2Matrix, rref

__all__ = ["DecoderKind", "parse_decoder", "mld_decode", "osd_decode", "decode"]


@dataclass(frozen=True)
class DecoderKind:
    """Decoder selector: MLD, or OSD of a given order."""

    variant: str  # "mld" | "osd"
    order: int = 0

    def __post_init__(self):
        if self.variant not in ("mld", "osd"):
            raise ValueError(f"unknown decoder variant {self.variant!r}")
        if self.variant == "osd" and self.order < 0:
            raise ValueError("OSD order must be non-negative")

    def __str__(self) -> str:
        return "mld" if self.variant == "mld" else f"osd:{self.order}"


def parse_decoder(text: str) -> DecoderKind:
    """Parse "mld" or "osd:<order>"."""
    if text == "mld":
        return DecoderKind("mld")
    if text.startswith("osd:"):
        return DecoderKind("osd", int(text.split(":", 1)[1]))
    raise ValueError(f"unknown decoder string {text!r} (expected 'mld' or 'osd:L')")


def _validate_soft(code: CodeSpec, r) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (code.n,):
        raise ValueError(f"soft vector length {r.shape} != n = {code.n}")
    if not np.all(np.isfinite(r)):
        raise ValueError("soft vector must be finite")
    return r


# Largest k whose whole codebook MLD may hold: the 2^k x n bit array, and
# the float64 scores of a 512-block simulation batch (268 MB at k = 16).
MLD_MAX_K = 16


@functools.lru_cache(maxsize=8)
def _codebook(code: CodeSpec) -> tuple[np.ndarray, list[int]]:
    """(bits array 2^k x n, codeword integers) in Gray enumeration order."""
    if code.k > MLD_MAX_K:
        raise ValueError(f"MLD needs k <= {MLD_MAX_K}, got k = {code.k}")
    words = list(iter_codewords(code))
    return ints_to_bits(words, code.n), words


def _lex_value(word: int, n: int) -> int:
    """Integer whose magnitude orders words by their (b_0, b_1, ...) sequence."""
    out = 0
    for i in range(n):
        out = (out << 1) | ((word >> i) & 1)
    return out


def mld_decode(code: CodeSpec, r) -> BitWord:
    """Exhaustive maximum-likelihood decoding (k must be small).

    Ties are broken toward the lexicographically smallest bit sequence.
    """
    r = _validate_soft(code, r)
    bits, words = _codebook(code)
    scores = bits @ r  # minimize: equals (dist² - const)/4
    best = scores.min()
    tied = np.nonzero(scores == best)[0]
    if len(tied) == 1:
        return BitWord(code.n, words[int(tied[0])])
    pick = min((_lex_value(words[int(i)], code.n), words[int(i)]) for i in tied)
    return BitWord(code.n, pick[1])


@functools.lru_cache(maxsize=32)
def _pattern_indices(k: int, t: int) -> np.ndarray:
    """All weight-t flip patterns on k positions, lexicographic, as index rows."""
    patterns = list(combinations(range(k), t))
    return np.array(patterns, dtype=np.intp).reshape(len(patterns), t)


@functools.lru_cache(maxsize=32)
def _last_flip_mask(k: int, t: int) -> np.ndarray:
    """+inf where position l cannot extend the weight-(t-1) prefix p (l <= max p), else 0."""
    last = _pattern_indices(k, t - 1).max(axis=1, initial=-1)
    mask = np.where(np.arange(k)[np.newaxis, :] <= last[:, np.newaxis], np.inf, 0.0)
    mask.flags.writeable = False
    return mask


def osd_decode(code: CodeSpec, r, order: int) -> BitWord:
    """Ordered statistics decoding of the given order.

    Positions are ranked by descending reliability |r_i| (stable, position
    index breaks ties); Gaussian elimination over the ranked columns yields
    the most-reliable basis (MRB); all flip patterns of weight 0..order on
    the hard-decided MRB bits are re-encoded and the closest candidate wins,
    earlier-enumerated patterns winning ties.

    Scoring.  Flipping MRB bit j adds |r_j| to the correlation.  On the
    redundancy columns let sigma = 1 - 2·bits, so that the sigma of an XOR
    of rows is the product of their sigmas, and s = r·sigma(base).  Since
    sum r·(base XOR x) = (sum r - s·sigma(x))/2, flip pattern x scores

        sum_{j in x} |r_j| - (s/2)·prod_{j in x} sigma_j

    up to a constant shared by all patterns.  Order t scores every
    p + {l}, for p a weight-(t-1) prefix, with one matrix product: the
    rows (s/2)·prod_{j in p} sigma_j, one per prefix in lexicographic
    order, times the transposed sigma rows.  Entries with l <= max(p) are
    masked to +inf.  A row-major argmin then returns the lexicographically
    first minimum, and a pattern replaces the best so far only if it scores
    strictly lower, so earlier patterns win ties; on inputs whose sums are
    exact, such as dyadic values, ties resolve exactly.
    """
    if order > code.k:
        raise ValueError(f"OSD order {order} exceeds k = {code.k}")
    r = _validate_soft(code, r)
    n, k = code.n, code.k

    rank_order = np.lexsort((np.arange(n), -np.abs(r)))
    r_perm = r[rank_order]
    # Any generator of the code reduces to the same matrix over the MRB, so
    # start from the systematic one, packed into ints in reliability order.
    # Eliminate in that order; the pivot columns form the MRB.
    packed = np.packbits(code.systematic.generator_bits[:, rank_order], axis=1,
                         bitorder="little")
    R, _, mrb = rref(GF2Matrix(tuple(int.from_bytes(row, "little") for row in packed), n))
    R_bits = ints_to_bits(R.rows, n)
    mrb_arr = np.array(mrb, dtype=np.intp)

    hard = (r_perm[mrb_arr] < 0).astype(np.uint8)
    base = (hard @ R_bits) & 1

    red_arr = np.delete(np.arange(n), mrb_arr)
    sigma = 1.0 - 2.0 * R_bits[:, red_arr]
    # -s/2: pattern x scores its flip gains plus red_weight·prod_{j in x} sigma_j.
    red_weight = -0.5 * r_perm[red_arr] * (1.0 - 2.0 * base[red_arr])
    flip_gain = np.abs(r_perm[mrb_arr])

    best_score = float(red_weight.sum())
    best_pattern: tuple[int, ...] = ()
    for t in range(1, order + 1):
        prefixes = _pattern_indices(k, t - 1)
        rows = red_weight[np.newaxis, :]
        for col in prefixes.T:
            rows = rows * sigma[col]
        scores = rows @ sigma.T
        scores += flip_gain
        scores += flip_gain[prefixes].sum(axis=1)[:, np.newaxis]
        scores += _last_flip_mask(k, t)
        i = int(np.argmin(scores))
        p, l = divmod(i, k)
        if scores[p, l] < best_score:
            best_score = float(scores[p, l])
            best_pattern = (*prefixes[p], l)

    best_cand = base
    for j in best_pattern:
        best_cand = best_cand ^ R_bits[j]
    out = np.zeros(n, dtype=np.uint8)
    out[rank_order] = best_cand
    return BitWord(n, bits_to_int(out))


def decode(kind: DecoderKind, code: CodeSpec, r) -> BitWord:
    """Dispatch to the selected decoder."""
    if kind.variant == "mld":
        return mld_decode(code, r)
    if kind.variant == "osd":
        return osd_decode(code, r, kind.order)
    raise ValueError(f"unknown decoder variant {kind.variant!r}")


def euclidean_score(code: CodeSpec, word: BitWord, r) -> float:
    """Squared Euclidean distance between r and the BPSK image of a codeword."""
    r = _validate_soft(code, r)
    s = 1.0 - 2.0 * int_to_bits(word.value, code.n).astype(np.float64)
    return float(np.sum((r - s) ** 2))
