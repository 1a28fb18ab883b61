"""Soft-decision decoders: exhaustive maximum likelihood and ordered statistics.

Both decoders receive a soft vector of n channel symbols (BPSK convention:
bit 0 transmitted as +1, bit 1 as -1) and return the selected codeword.
Scoring minimizes squared Euclidean distance to the received vector; since
dist²(r, c) = const + 4·Σ r_i·c_i over bit vectors c, the implementations
minimize the correlation Σ r_i·c_i, which has the same argmin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bitops import bits_to_int, bits_to_ints, int_to_bits, ints_to_bits
from .codes import CodeSpec, iter_codewords
from .gf2 import BitWord, GF2Matrix, rref

__all__ = ["DecoderKind", "parse_decoder", "decode_batch", "mld_decode", "osd_decode", "decode"]


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
def _codebook(code: CodeSpec) -> tuple[np.ndarray, np.ndarray]:
    """All codewords as a 2^k x n bit array in lexicographic (b_0, b_1, ...)
    order, and its float64 image."""
    if code.k > MLD_MAX_K:
        raise ValueError(f"MLD needs k <= {MLD_MAX_K}, got k = {code.k}")
    bits = ints_to_bits(list(iter_codewords(code)), code.n)
    bits = bits[np.lexsort(bits.T[::-1])]
    image = bits.astype(np.float64)
    bits.flags.writeable = image.flags.writeable = False
    return bits, image


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


# Largest reprocessing table OSD may hold, in bytes, as MLD_MAX_K caps the
# codebook: order t builds the C(k, t-1) x k float64 _last_flip_mask, and
# each row's order-t scores are as large.
OSD_MAX_TABLE_BYTES = 1 << 28


# Blocks smaller than this are eliminated row by row with gf2.rref.  The
# block elimination's per-column numpy calls cost about the same for one row
# as for a hundred; it overtakes rref at about 6 rows on BCH(127,50) and
# BCH(130,66) and at about 16 on Golay(24,12).
BLOCK_ELIMINATION_MIN = 16
# Float scratch per reprocessing chunk of rows, about one core's L2 cache.
# On a 2-vCPU Xeon VM with 2 MB of L2 per core, 8 MB chunks made an
# osd3-harvest repetition about 10% slower.
_CHUNK_BYTES = 2 << 20


def _eliminate_rows(ranked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R bits, pivot columns) of each B x k x n matrix, one gf2.rref each."""
    B, k, n = ranked.shape
    R_bits = np.empty_like(ranked)
    pivots = np.empty((B, k), dtype=np.intp)
    for b in range(B):
        R, _, pivots[b] = rref(GF2Matrix(tuple(bits_to_ints(ranked[b])), n))
        R_bits[b] = ints_to_bits(R.rows, n)
    return R_bits, pivots


def _eliminate_block(ranked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_eliminate_rows on the whole block at once, on 64-bit words.

    Column by column, each matrix takes as pivot its first row that is not
    a pivot yet and has the column's bit, and clears the column from every
    other row.  The pivot columns are those of gf2.rref, and sorting the
    pivot rows by their columns gives its R, since the reduced row-echelon
    form of a matrix is unique.  A pivot row is zero left of its column,
    so only the words from the column's word on change.  Every matrix must
    have full row rank, as a generator matrix does.
    """
    B, k, n = ranked.shape
    packed = np.packbits(ranked, axis=2, bitorder="little")
    padded = np.zeros((B, k, -(-n // 64) * 8), dtype=np.uint8)
    padded[:, :, :packed.shape[2]] = packed
    M = np.ascontiguousarray(padded.view("<u8").transpose(2, 1, 0))  # words x rows x B
    rows = np.arange(B)
    free = np.ones((k, B), dtype=bool)
    pivot_rows = np.empty((k, B), dtype=np.intp)
    pivots = np.empty((B, k), dtype=np.intp)
    rank = np.zeros(B, dtype=np.intp)
    for col in range(n):
        word, shift = divmod(col, 64)
        hit = (M[word] >> np.uint64(shift)) & np.uint64(1)
        found = (hit.astype(bool) & free).argmax(axis=0)
        has = (hit[found, rows] != 0) & free[found, rows]
        hit[:, ~has] = 0
        hit[found, rows] = 0
        M[word:] ^= np.ascontiguousarray(M[word:, found, rows])[:, np.newaxis, :] & (0 - hit)
        now, at = found[has], rows[has]
        free[now, at] = False
        pivot_rows[rank[has], at] = now
        pivots[at, rank[has]] = col
        rank += has
        if rank.min() == k:
            break
    R = M[:, pivot_rows, rows].transpose(2, 1, 0).copy().view(np.uint8)
    return np.unpackbits(R, axis=2, count=n, bitorder="little"), pivots


def _best_patterns(sigma: np.ndarray, red_weight: np.ndarray, flip_gain: np.ndarray,
                   order: int) -> tuple[np.ndarray, np.ndarray]:
    """The winning flip pattern of each row (see _osd_batch): its weight t,
    0 for none, and its flat index p·k + l into the order-t scores."""
    B, k, _ = sigma.shape
    rows = np.arange(B)
    lows, picks = [red_weight.sum(axis=1)], [np.zeros(B, dtype=np.intp)]
    # Row j of first is red_weight·sigma_j, the product of a prefix's first factor.
    first = red_weight[:, np.newaxis, :] * sigma if order > 1 else None
    for t in range(1, order + 1):
        prefixes = _pattern_indices(k, t - 1)
        if t == 1:
            scored = red_weight[:, np.newaxis, :]
        else:
            scored = np.take(first, prefixes[:, 0], axis=1)
        for col in prefixes.T[1:]:
            scored *= np.take(sigma, col, axis=1)
        scores = scored @ sigma.transpose(0, 2, 1)
        scores += flip_gain[:, np.newaxis, :]
        if t > 1:
            scores += flip_gain[:, prefixes].sum(axis=2)[:, :, np.newaxis]
        scores += _last_flip_mask(k, t)
        scores = scores.reshape(B, -1)
        picks.append(scores.argmin(axis=1))
        lows.append(scores[rows, picks[-1]])
    # A later order replaces the best only if strictly lower: the first
    # order reaching the least score wins.
    best_t = np.argmin(lows, axis=0)
    return best_t, np.array(picks)[best_t, rows]


def _osd_batch(code: CodeSpec, received: np.ndarray, order: int) -> np.ndarray:
    """Ordered statistics decoding of each row of a B x n block.

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
    (B, n), k = received.shape, code.k
    if order > k:
        raise ValueError(f"OSD order {order} exceeds k = {k}")
    # Refuse, before any table is built, an order whose largest mask, at
    # t - 1 = min(order - 1, k // 2), exceeds the cap.
    table = 8 * k * math.comb(k, min(order - 1, k // 2)) if order else 0
    if table > OSD_MAX_TABLE_BYTES:
        raise ValueError(f"OSD order {order} at k = {k} needs a {table / 1e6:,.0f} MB "
                         f"reprocessing table; the cap is {OSD_MAX_TABLE_BYTES / 1e6:,.0f} MB")
    rank_order = np.argsort(-np.abs(received), axis=1, kind="stable")
    rows = np.arange(B)
    each = rows[:, np.newaxis]
    r_ranked = received[each, rank_order]
    # Any generator of the code reduces to the same matrix over the MRB, so
    # start from the systematic one, its columns in reliability order.
    # Eliminate in that order; the pivot columns form the MRB.
    eliminate = _eliminate_block if B >= BLOCK_ELIMINATION_MIN else _eliminate_rows
    R_bits, mrb = eliminate(
        np.take(code.systematic.generator_bits, rank_order, axis=1).transpose(1, 0, 2))
    is_red = np.ones((B, n), dtype=bool)
    is_red[each, mrb] = False
    red = np.nonzero(is_red)[1].reshape(B, n - k)
    # The codeword of info bits x is x on the MRB, where R is the identity,
    # and red_cols·x on the redundancy positions; R itself is not needed
    # again.
    red_cols = R_bits.transpose(0, 2, 1)[each, red]
    del R_bits

    r_mrb = r_ranked[each, mrb]
    info = (r_mrb < 0).astype(np.uint8)
    if order:
        base_red = (red_cols @ info[:, :, np.newaxis])[:, :, 0] & 1
        # -s/2: pattern x scores its flip gains plus red_weight·prod_{j in x} sigma_j.
        red_weight = -0.5 * r_ranked[each, red] * (1.0 - 2.0 * base_red)
        flip_gain = np.abs(r_mrb)
        row_bytes = 8 * (n * len(_pattern_indices(k, order - 1)) + k * (n - k))
        step = max(1, _CHUNK_BYTES // row_bytes)
        for lo in range(0, B, step):
            chunk = slice(lo, lo + step)
            sigma = 1.0 - 2.0 * np.ascontiguousarray(red_cols[chunk].transpose(0, 2, 1))
            won_t, won_i = _best_patterns(sigma, red_weight[chunk], flip_gain[chunk], order)
            for b in np.flatnonzero(won_t):
                p, l = divmod(int(won_i[b]), k)
                flipped = info[lo + b]
                flipped[_pattern_indices(k, int(won_t[b]) - 1)[p]] ^= 1
                flipped[l] ^= 1
    out = np.empty((B, n), dtype=np.uint8)
    out[each, rank_order[each, mrb]] = info
    out[each, rank_order[each, red]] = (red_cols @ info[:, :, np.newaxis])[:, :, 0] & 1
    return out


def decode_batch(kind: DecoderKind, code: CodeSpec, received) -> np.ndarray:
    """Decode each row of a B x n block of soft values; returns B x n uint8 words.

    MLD picks the codeword with the least correlation sum r_i·c_i, ties going
    to the lexicographically smallest bit sequence (b_0, b_1, ...); OSD is
    described in _osd_batch.  Row b of the result depends on row b of the
    input alone, so a block decodes exactly as its rows one at a time.
    """
    received = np.asarray(received, dtype=np.float64)
    if received.ndim != 2 or received.shape[1] != code.n:
        raise ValueError(f"received block shape {received.shape} is not (B, n = {code.n})")
    if not np.all(np.isfinite(received)):
        raise ValueError("soft values must be finite")
    if len(received) == 0:
        return np.zeros((0, code.n), dtype=np.uint8)
    if kind.variant == "mld":
        bits, image = _codebook(code)
        # (dist² - const)/4 per codeword; the first minimum is the
        # lexicographically smallest of the tied codewords.
        return bits[np.argmin(received @ image.T, axis=1)]
    return _osd_batch(code, received, kind.order)


def decode(kind: DecoderKind, code: CodeSpec, r) -> BitWord:
    """Decode one soft vector with the selected decoder: a block of one."""
    r = _validate_soft(code, r)
    return BitWord(code.n, bits_to_int(decode_batch(kind, code, r[np.newaxis])[0]))


def mld_decode(code: CodeSpec, r) -> BitWord:
    """Exhaustive maximum-likelihood decoding of one soft vector (k <= MLD_MAX_K)."""
    return decode(DecoderKind("mld"), code, r)


def osd_decode(code: CodeSpec, r, order: int) -> BitWord:
    """Ordered statistics decoding of one soft vector (see _osd_batch)."""
    return decode(DecoderKind("osd", order), code, r)


def euclidean_score(code: CodeSpec, word: BitWord, r) -> float:
    """Squared Euclidean distance between r and the BPSK image of a codeword."""
    r = _validate_soft(code, r)
    s = 1.0 - 2.0 * int_to_bits(word.value, code.n).astype(np.float64)
    return float(np.sum((r - s) ** 2))
