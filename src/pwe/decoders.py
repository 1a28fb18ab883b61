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

from .bitops import bits_to_int, int_to_bits
from .codes import CodeSpec, iter_codewords
from .gf2 import BitWord

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
    bits = np.zeros((len(words), code.n), dtype=np.uint8)
    for i, w in enumerate(words):
        bits[i] = int_to_bits(w, code.n)
    return bits, words


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
    return np.array(list(combinations(range(k), t)), dtype=np.intp).reshape(-1, t)


def osd_decode(code: CodeSpec, r, order: int) -> BitWord:
    """Ordered statistics decoding of the given order.

    Positions are ranked by descending reliability |r_i| (stable, position
    index breaks ties); Gaussian elimination over the ranked columns yields
    the most-reliable basis (MRB); all flip patterns of weight 0..order on
    the hard-decided MRB bits are re-encoded and the closest candidate wins,
    earlier-enumerated patterns winning ties.
    """
    if order > code.k:
        raise ValueError(f"OSD order {order} exceeds k = {code.k}")
    r = _validate_soft(code, r)
    n, k = code.n, code.k

    rank_order = np.lexsort((np.arange(n), -np.abs(r)))
    r_perm = r[rank_order]
    # Any generator of the code reduces to the same matrix over the MRB, so
    # start from the systematic one.  The copy is row-major: the column
    # gather alone returns a column-major array, slow to XOR row by row.
    R = code.systematic.generator_bits[:, rank_order].copy()

    # Eliminate in reliability order; pivot columns form the MRB.
    mrb: list[int] = []
    pr = 0
    for col in range(n):
        if pr == k:
            break
        hits = np.nonzero(R[pr:, col])[0]
        if hits.size == 0:
            continue
        i = pr + int(hits[0])
        if i != pr:
            R[[pr, i]] = R[[i, pr]]
        others = np.nonzero(R[:, col])[0]
        others = others[others != pr]
        if others.size:
            R[others] ^= R[pr]
        mrb.append(col)
        pr += 1
    mrb_arr = np.array(mrb, dtype=np.intp)

    hard = (r_perm[mrb_arr] < 0).astype(np.uint8)
    base = (hard @ R) & 1

    # Split the correlation into the MRB part and the redundancy part.
    # Flipping MRB bit j moves the score by +|r| at that position (the hard
    # decision matches the sign), so only the redundancy columns need the
    # XOR-and-dot treatment per pattern.
    red_arr = np.setdiff1d(np.arange(n), mrb_arr)
    r_red = r_perm[red_arr]
    R_red = np.ascontiguousarray(R[:, red_arr])
    base_red = base[red_arr]
    flip_gain = np.abs(r_perm[mrb_arr])

    base_score = float(base @ r_perm)
    bs_red = float(base_red @ r_red)
    mrb_const = base_score - bs_red

    best_score = base_score
    best_cand = base
    for t in range(1, order + 1):
        patterns = _pattern_indices(k, t)
        cands_red = base_red[np.newaxis, :] ^ R_red[patterns[:, 0]]
        for j in range(1, t):
            cands_red = cands_red ^ R_red[patterns[:, j]]
        scores = mrb_const + flip_gain[patterns].sum(axis=1) + cands_red @ r_red
        i = int(np.argmin(scores))
        if scores[i] < best_score:
            best_score = float(scores[i])
            best_cand = base.copy()
            for j in patterns[i]:
                best_cand ^= R[j]

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
