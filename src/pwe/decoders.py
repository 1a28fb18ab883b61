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

import numpy as np

from .bitops import bits_to_ints, ints_to_bits
from .codes import CodeSpec, _codeword_chunks, packed_syndromes
from .gf2 import BitWord, rref

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


# Largest k whose whole codebook MLD may hold: the bits and the float32 +-1
# image of half of them, 3·2^k·n bytes, or of all, 5·2^k·n bytes, for a code
# without the all-ones word.  The float32 screen scores _MLD_ROWS rows at a
# time against that image, in one block per call (8 MB at k = 16), however
# many rows a batch scores; a batch with float64 fallback rows builds the
# float64 image of the bits and scores them in blocks of _MLD_ROWS too.  The
# certificate's table (_leaders) holds at most 2^k error patterns.
MLD_MAX_K, _MLD_ROWS = 16, 64


@functools.lru_cache(maxsize=8)
def _codebook(code: CodeSpec) -> tuple[np.ndarray, np.ndarray]:
    """All codewords as a 2^k x n bit array in lexicographic (b_0, b_1, ...)
    order, and the float32 +-1 image sigma = 1 - 2c of its first half (b_0 =
    0) when the last codeword is all-ones, so that row 2^k - 1 - i is row i
    complemented, else of every row."""
    if code.k > MLD_MAX_K:
        raise ValueError(f"MLD needs k <= {MLD_MAX_K}, got k = {code.k}")
    # A chunk is a transposed view, whose rows view() cannot reinterpret.
    bits = np.concatenate([np.unpackbits(chunk.copy().view(np.uint8), axis=1, count=code.n,
                                         bitorder="little") for chunk in _codeword_chunks(code)])
    bits = bits[np.lexsort(bits.T[::-1])]
    sigma = 1 - 2 * bits[:len(bits) // 2 if bits[-1].all() else len(bits)].astype(np.float32)
    bits.flags.writeable = sigma.flags.writeable = False
    return bits, sigma


def _rounding_bound(received: np.ndarray) -> np.ndarray:
    """Per row r of a B x n block, a bound on e32 + e64, the float32 plus the
    float64 rounding error of any score that sums N <= n terms a_i with
    sum|a_i| <= sum|r_i|, each an entry of r rounded to the score's dtype
    and multiplied by 0, +-1/2 or +-1:

        bound = (n + 2)·(2^-24 + 2^-53)·sum|r_i| + (2n + 2)·2^-126.

    An MLD score sum r_i·c_i is such a sum, and so is an OSD pattern score
    (see _osd_batch).  Proof: forming a term in float32 errs by at most
    2^-24·|a_i| + 2^-126 (subnormal, or flushed to zero), and any order of
    summing N terms, the BLAS's included, by at most gamma_(N-1) = (N - 1)u/
    (1 - (N - 1)u) times the sum of their magnitudes, u = 2^-24, plus 2^-126
    a flushed addition.  With n(n + 1)·2^-24 <= 1, e32 is at most (n + 1)·
    2^-24·sum|r_i| + (2n - 1 + gamma·n)·2^-126, and e64 likewise at most
    (n + 1)·2^-53·sum|r_i| + 2n·2^-1022; the spare unit in n + 2 covers the
    float64 rounding of sum|r_i| and of bound itself, so e32 + e64 <= bound.

    So if S32(x) < S32(y) - 2·bound for every candidate y != x, then S64(x)
    <= S32(x) + e32 + e64 < S32(y) + e32 + e64 - 2·bound <= S(y) + 2·e32 +
    e64 - 2·bound <= S(y) - e64 <= S64(y): float64 ranks x strictly first,
    whatever its tie rules.  A gap is the float64 difference of two float32
    scores, and rounding is monotone, so a gap above 2·bound is an exact one.
    bound is +inf, and every row falls back, from sum|r_i| = 2^127 on, where
    float32 sums could overflow, and where n(n + 1) >= 2^24.

    MLD's float32 screen scores the +-1 correlations rho(c) = sum r_i·(1 -
    2c_i) = sum r_i - 2·S(c) instead, sums of n terms +-r_i, and its gap is
    (rho32(x) - rho32(y))/2, halving being exact.  If that exceeds 2·bound,
    then S(y) - S(x) = (rho(x) - rho(y))/2 > 2·bound - e32, so S64(x) <= S(x)
    + e64 < S(y) - 2·bound + e32 + e64 <= S(y) - e64 <= S64(y) as before, the
    float64 scores S64 being those of the 0/1 codewords.  Negating rho, for
    the complement of a codeword, is exact.

    MLD's certificate (_mld_batch) proves a candidate codeword c* unscored.
    Let y be the hard decision (r_i < 0) and D the positions where c*
    differs from y.  Then S(c) - S(y) = sum |r_i| over the positions where c
    differs from y, for every word c.  Another codeword differs from c* in
    at least d places, so from y in at least d - |D| places outside D, and
    S(c) - S(c*) >= LB - cost: LB is the sum of the d - |D| least |r_i|
    outside D, and cost = sum_D |r_i|.  Their float64 sums and difference,
    over disjoint positions, err by at most (n + 1)·2^-53·sum|r_i|, far
    below bound (a float64 sum below the normal range is exact).  So if the
    computed LB - cost exceeds 3·bound, the exact gap exceeds 2·bound, and
    S64(c*) <= S(c*) + e64 < S(c) - 2·bound + e64 <= S64(c): float64 ranks
    c* strictly first, as the screen would.  A bound of +inf proves nothing.
    """
    n = received.shape[1]
    total = np.abs(received).sum(axis=1)
    return np.where((total < 2.0 ** 127) & (n * (n + 1) < 1 << 24),
                    (n + 2) * (2.0 ** -24 + 2.0 ** -53) * total + (2 * n + 2) * 2.0 ** -126, np.inf)


def _screened(score, rows: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """The winners of block rows, score(rows, dtype) giving each row's winner
    in dtype and its float64 gap to the runner-up: float32's if the gap
    exceeds 2·bound (see _rounding_bound), else float64's, NaN and 0 too."""
    won, gap = score(rows, np.float32)
    unsure = np.flatnonzero(~(gap > 2 * bound[rows]))
    if len(unsure):
        won[unsure] = score(rows[unsure], np.float64)[0]
    return won


def _mld_scores(received: np.ndarray, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first argmin of (dist² - const)/4 over the float64 0/1
    codebook image, scored _MLD_ROWS rows at a time, and the gap from it to
    the runner-up."""
    best, gap = np.empty(len(received), np.intp), np.empty(len(received))
    block = np.empty((min(len(received), _MLD_ROWS), len(image)), image.dtype)
    for at in range(0, len(received), _MLD_ROWS):
        part, rows = slice(at, at + _MLD_ROWS), received[at:at + _MLD_ROWS]
        scores = np.matmul(rows, image.T, out=block[:len(rows)])
        each, best[part] = np.arange(len(rows)), scores.argmin(axis=1)
        low = scores[each, best[part]]
        scores[each, best[part]] = np.inf
        gap[part] = scores.min(axis=1) - low
    return best, gap


def _mld_screen(received: np.ndarray, sigma: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's float32 winner among the size codewords of _codebook, whose
    +-1 image is sigma, and its float64 gap to the runner-up, scored
    _MLD_ROWS rows at a time.

    Since sum r_i·c_i = (sum r_i - rho)/2 with rho = r·sigma, the winner has
    the largest rho and the gap is half the rho gap.  When sigma holds half
    the codebook, codeword size - 1 - i, row i complemented, has rho -rho_i:
    the winner is the largest |rho_i|, and the runner-up the largest of the
    others and of the winner's complement, -|rho_i|."""
    closed = len(sigma) < size
    won, gap = np.empty(len(received), np.intp), np.empty(len(received))
    block = np.empty((min(len(received), _MLD_ROWS), len(sigma)), np.float32)
    for at in range(0, len(received), _MLD_ROWS):
        part, rows = slice(at, at + _MLD_ROWS), received[at:at + _MLD_ROWS]
        rho = np.matmul(rows.astype(np.float32), sigma.T, out=block[:len(rows)])
        each, top = np.arange(len(rows)), rho.argmax(axis=1)
        if closed:
            low = rho.argmin(axis=1)
            negated = -rho[each, low] > rho[each, top]
            top[negated] = low[negated]
            np.abs(rho, out=rho)
        high = rho[each, top].astype(np.float64)
        rho[each, top] = -high if closed else -np.inf
        gap[part] = (high - rho.max(axis=1)) / 2
        won[part] = np.where(negated, size - 1 - top, top) if closed else top
    return won, gap


def _syndrome_words(code: CodeSpec, bits: np.ndarray) -> np.ndarray:
    """The packed syndrome (codes.packed_syndromes) of each row of an m x n
    bit array, in uint64 words."""
    return packed_syndromes(code, np.packbits(bits, axis=1, bitorder="little"))


def _as_keys(words: np.ndarray) -> np.ndarray:
    """One sortable key per row of key words: the word, or when there are
    several, their bytes as one byte string."""
    return words[:, 0] if words.shape[1] == 1 else words.view(f"V{8 * words.shape[1]}")[:, 0]


@functools.lru_cache(maxsize=8)
def _leaders(code: CodeSpec) -> tuple[np.ndarray, np.ndarray, int]:
    """Every error pattern of weight <= t, sorted by syndrome: the keys
    (_as_keys of _syndrome_words), the patterns as rows of t positions padded
    with n, and d, the least nonzero weight of _codebook.  t is floor((d -
    1)/2), lowered until the table holds at most 2^k patterns, as many as the
    codebook has rows.  No two patterns share a syndrome: their XOR would be
    a nonzero codeword of weight below d."""
    n = code.n
    bits, sigma = _codebook(code)
    # sigma's codewords weigh (n - sigma·1)/2, exactly in float32; the half
    # it leaves out, if any, holds their complements.
    weights = (n - sigma @ np.ones(n, dtype=np.float32)) / 2
    d = int(min(weights[1:].min(initial=n), n - weights.max() if len(sigma) < len(bits) else n))
    t = (d - 1) // 2
    while sum(math.comb(n, w) for w in range(t + 1)) > 1 << code.k:
        t -= 1
    patterns = [np.zeros((1, 0), dtype=np.intp)]
    for _ in range(t):
        patterns.append(_extended(patterns[-1], n))
    flips = np.concatenate([np.column_stack((p, np.full((len(p), t - w), n))) for w, p in
                            enumerate(patterns)]).astype(np.min_scalar_type(n))
    # A pattern's syndrome is the XOR of its positions' (the padding's is 0).
    units = _syndrome_words(code, np.eye(n + 1, n, dtype=np.uint8))
    keys = _as_keys(np.bitwise_xor.reduce(units[flips.T], axis=0))
    order = np.argsort(keys)
    return keys[order], flips[order], d


def _certified(code: CodeSpec, received: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's candidate, as a B x n bit block, and whether it is proved
    the row's winner (see _mld_batch)."""
    keys, flips, d = _leaders(code)
    (B, n), each = received.shape, np.arange(len(received))[:, np.newaxis]
    out = (received < 0).astype(np.uint8)
    key = _as_keys(_syndrome_words(code, out))
    at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    flip = flips[at]
    # |r_i| and a column n of 0, where a pattern's padding points.
    magnitude = np.zeros((B, n + 1))
    np.abs(received, out=magnitude[:, :n])
    cost = magnitude[each, flip].sum(axis=1)
    magnitude[each, flip] = np.inf
    magnitude[:, n] = np.inf
    magnitude.sort(axis=1)
    low = np.cumsum(magnitude[:, :d], axis=1, out=magnitude[:, :d])
    low = low[each[:, 0], d - 1 - (flip < n).sum(axis=1)]
    proved = (keys[at] == key) & (low - cost > 3 * bound)
    flipped = np.zeros((B, n + 1), dtype=np.uint8)
    flipped[each, flip] = proved[:, np.newaxis]
    out ^= flipped[:, :n]
    return out, proved


@np.errstate(over="ignore", invalid="ignore")  # overflowing rows get bound +inf
def _mld_batch(code: CodeSpec, received: np.ndarray) -> np.ndarray:
    """MLD of each row of a B x n block, the certificate first.

    A row's candidate is its hard decision y (r < 0) XOR the pattern of
    _leaders with y's syndrome, if there is one.  The candidate is the row's
    winner when LB - cost > 3·bound: cost is sum |r_i| over the pattern's
    positions D, LB the sum of the d - |D| least |r_i| outside D, and bound
    _rounding_bound's, which proves this.  Every other row goes through the
    float32 screen and its float64 fallback (_screened)."""
    bits, sigma = _codebook(code)
    bound = _rounding_bound(received)
    out, proved = _certified(code, received, bound)
    rest = np.flatnonzero(~proved)

    def score(rows, dtype):
        if dtype == np.float32:
            return _mld_screen(received[rows], sigma, len(bits))
        return _mld_scores(received[rows], bits.astype(dtype))

    out[rest] = bits[_screened(score, rest, bound)]
    return out


def _extended(heads: np.ndarray, k: int) -> np.ndarray:
    """The patterns one position longer than heads, lexicographic index rows
    on k positions: each head in turn, followed by each position above its
    last."""
    start = heads[:, -1] + 1 if heads.shape[1] else np.zeros(len(heads), dtype=np.intp)
    count = np.maximum(k - start, 0)
    parent = np.repeat(np.arange(len(heads)), count)
    last = np.arange(len(parent)) - np.repeat(np.cumsum(count) - count - start, count)
    return np.column_stack((heads[parent], last)).astype(np.intp, copy=False)


@functools.lru_cache(maxsize=32)
def _pattern_indices(k: int, t: int) -> np.ndarray:
    """All weight-t flip patterns on k positions, lexicographic, as index rows."""
    return _extended(_pattern_indices(k, t - 1), k) if t else np.zeros((1, 0), dtype=np.intp)


# Largest reprocessing table OSD may hold, in bytes, as MLD_MAX_K caps the
# codebook: 8·k·C(k, t-1) exceeds the float64 scores of all C(k, t) order-t
# patterns of one row, and so bounds each group of them (see _bands).
OSD_MAX_TABLE_BYTES = 1 << 28
# Bands join groups until one product scores this many entries for the block.
_BAND_SCORES = 4096


# Blocks smaller than this are eliminated row by row with gf2.rref, and
# build no column-word table.  The block elimination's per-column numpy
# calls cost about the same for one row as for a hundred; on column words it
# overtakes rref at about 4 rows on BCH(127,50) and 4 to 8 on BCH(130,66).
BLOCK_ELIMINATION_MIN = 16
# Float scratch per reprocessing chunk of rows, about one core's L2 cache;
# a chunk may hold up to 1.5 times as much (see _chunk_step).  On a 2-vCPU
# Xeon VM with 2 MB of L2 per core, 8 MB chunks made an osd3-harvest
# repetition about 10% slower.
_CHUNK_BYTES = 2 << 20


def _chunk_step(k: int, n: int, order: int) -> int:
    """The rows whose float32 reprocessing scratch fills _CHUNK_BYTES: per
    row sigma, and the head products and as much again for a group at order
    2 and up, or one row of scores at order 1.  A block of B rows is cut
    into max(1, round(B / step)) near-equal chunks, up to 1.5·step rows
    each, so that a block a little over step rows pays for one chunk."""
    scratch = 2 * math.comb(k, order - 2) * (n - k) if order > 1 else n
    return max(1, _CHUNK_BYTES // (4 * (scratch + k * (n - k))))


def _pack_columns(bits: np.ndarray) -> np.ndarray:
    """The columns of a ... x k x m bit array as k-bit column words, ... x m
    x W uint64 with W = ceil(k/64): bit i of a column's words is its row i."""
    *lead, k, m = bits.shape
    padded = np.zeros((*lead, m, -(-k // 64) * 64), dtype=np.uint8)
    padded[..., :k] = np.swapaxes(bits, -1, -2)
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8")


@functools.lru_cache(maxsize=8)
def _column_words(code: CodeSpec) -> np.ndarray:
    """The column words (_pack_columns) of the systematic generator, W x n."""
    words = np.ascontiguousarray(_pack_columns(code.systematic.generator_bits).T)
    words.flags.writeable = False
    return words


def _encode(words: np.ndarray, info: np.ndarray, pivot_rows: np.ndarray) -> np.ndarray:
    """The codeword bits, B x m, of the B x k info bits on the columns of R
    given as W x B x m column words: each word's parity AND the info word,
    whose bit pivot_rows[b, j] is info[b, j]."""
    W, B = words.shape[:2]
    spread = np.zeros((B, 64 * W), dtype=np.uint8)
    spread[np.arange(B)[:, np.newaxis], pivot_rows] = info
    x = np.packbits(spread, axis=1, bitorder="little").view("<u8").T[:, :, np.newaxis]
    counts = np.bitwise_count(functools.reduce(np.bitwise_xor, words & x))
    counts &= 1
    return counts


def _byte_planes(words: np.ndarray) -> np.ndarray:
    """W x B x m column words as B x 8W x m bytes: plane j holds byte j % 8
    of word j // 8, the bits of rows 8j to 8j + 7."""
    W, B, m = words.shape
    planes = np.ascontiguousarray(words.transpose(1, 0, 2)).view(np.uint8).reshape(B, W, m, 8)
    return planes.transpose(0, 1, 3, 2).reshape(B, 8 * W, m)


def _eliminate_rows(ranked: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_eliminate_block of the B x k x n bit matrices ranked, one gf2.rref
    each; R's rows are in pivot order."""
    B, k, n = ranked.shape
    R_bits = np.empty_like(ranked)
    pivots = np.empty((B, k), dtype=np.intp)
    for b in range(B):
        R, pivots[b] = rref(bits_to_ints(ranked[b]), n)
        R_bits[b] = ints_to_bits(R, n)
    return _pack_columns(R_bits).transpose(2, 0, 1), pivots, np.broadcast_to(np.arange(k), (B, k))


def _eliminate_block(words: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaussian elimination of B matrices of k rows at once, on their column
    words (_pack_columns), W x B x n.  Returns the reduced column words,
    each matrix's pivot columns, and the rows that hold them.

    Column by column, each matrix takes as pivot row the lowest row that is
    not a pivot yet and has the column's bit: the lowest free set bit, low,
    of the column word v.  Adding that row to the other rows with the bit
    XORs S = v ^ low into every column word with bit low, and v becomes low.
    Earlier columns have bits in pivot rows only, so only this column and
    later ones change.  The reduced row-echelon form of a matrix is unique,
    so whatever the pivot rows, R's row j is the row of the j-th pivot
    column.  Every matrix must have full row rank, as a generator does.
    """
    W, B, n = words.shape
    free = np.full((W, B), ~np.uint64(0))
    free[-1] >>= np.uint64(-k % 64)
    lows = np.zeros((n, W, B), dtype=np.uint64)
    for col in range(n):
        v, low = words[:, :, col], lows[col]
        candidates = v & free
        np.negative(candidates, out=low)
        low &= candidates
        if W > 1:
            # The lowest set bit is in the first word that has one.
            low[1:] *= np.logical_and.accumulate(low[:-1] == 0, axis=0)
        free ^= low
        later = words[:, :, col:]
        later ^= (later & low[:, :, np.newaxis]).any(axis=0) * (v ^ low)[:, :, np.newaxis]
        if col >= k - 1 and not free.any():
            break
    lows = lows[:col + 1]
    is_pivot = lows.any(axis=1).T
    # A pivot's low is one bit, in the word argmax finds.
    rows = 64 * lows.argmax(axis=1) + np.bitwise_count(lows.max(axis=1) - np.uint64(1))
    return words, np.nonzero(is_pivot)[1].reshape(B, k), rows.T[is_pivot].reshape(B, k)


@functools.lru_cache(maxsize=64)
def _bands(k: int, t: int, B: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Order-t groups (t >= 2, see _osd_batch) in bands, for a block of B rows.

    Band m0 <= m < m1 scores its groups with one product: rows the heads
    below m1 - 1 by its m, columns the l > m0, +inf where that is no pattern
    (a head reaching m, or l <= m).  A band takes groups until its scores for
    the block reach _BAND_SCORES.  Returns the bands (m0, m1, heads, then row
    and column masks, None for one group), heads indexing _pattern_indices(k,
    t - 2); each band's (m0, m1, offset) into the third item; all bands' heads."""
    every = _pattern_indices(k, t - 2)
    last = every.max(axis=1, initial=-1)
    bands, table, ids, m0 = [], [], [], t - 2
    for m1 in range(t - 1, k):
        heads = np.flatnonzero(last < m1 - 1)
        if B * len(heads) * (m1 - m0) * (k - 1 - m0) < _BAND_SCORES and m1 < k - 1:
            continue
        m = np.arange(m0, m1)
        # 0 and +inf add exactly in float32 and float64 alike.
        masks = (np.where(last[heads, np.newaxis] >= m, np.float32(np.inf), np.float32(0)),
                 np.where(np.arange(m0 + 1, k) <= m[:, np.newaxis], np.float32(np.inf), np.float32(0)))
        bands.append((m0, m1, slice(0, len(heads)) if t < 4 else heads,
                      *(masks if m1 > m0 + 1 else (None, None))))
        table.append((m0, m1, len(ids)))
        ids += heads.tolist()
        m0 = m1
    return tuple(bands), np.array(table), every[ids]


def _best_patterns(sigma: np.ndarray, red_weight: np.ndarray, flip_gain: np.ndarray,
                   order: int) -> tuple[np.ndarray, np.ndarray]:
    """The winning flip pattern of each row (see _osd_batch) as a B x k 0/1
    mask, and, in float64, the least score of any other pattern of weight
    0..order less the winner's, NaN if a score is NaN.  Scores in the
    inputs' dtype."""
    B, k, K = sigma.shape
    rows, best = np.arange(B), red_weight.sum(axis=1)
    runner = np.full(B, np.inf, dtype=best.dtype)
    flips = np.zeros((B, k), dtype=np.uint8)
    if order > 1:
        # Three more columns fold the flip gains into each band's product:
        # sigma rows [sigma_l, f_l, 1, 1] times factors [sigma_m, 1, 1, f_m]
        # and head rows [red_weight·prod_{j in h} sigma_j, 1, head gain, 1].
        ones, gain = np.ones((B, k, 1), sigma.dtype), flip_gain[:, :, np.newaxis]
        sides = np.concatenate((sigma, gain, ones, ones), axis=2)
        factors = np.concatenate((sigma, ones, ones, gain), axis=2)
    for t in range(1, order + 1):
        if t == 1:
            scores = (red_weight[:, np.newaxis, :] @ sigma.transpose(0, 2, 1))[:, 0] + flip_gain
            pick = scores.argmin(axis=1)
            low, pattern = scores[rows, pick], pick[:, np.newaxis]
            scores[rows, pick] = np.inf
            second = scores.min(axis=1)
        else:
            every = _pattern_indices(k, t - 2)
            products = np.empty((B, len(every), K + 3), dtype=sigma.dtype)
            # Head h is red_weight·prod_{j in h} sigma_j; one of a single
            # position is red_weight times its sigma row.
            np.multiply(red_weight[:, np.newaxis, :], sigma if t == 3 else sigma[:, every].prod(axis=2),
                        out=products[:, :, :K])
            products[:, :, K::2] = 1
            products[:, :, K + 1] = flip_gain[:, every].sum(axis=2)
            bands, table, band_heads = _bands(k, t, B)
            lows, seconds = np.empty((2, B, len(bands)), dtype=sigma.dtype)
            picks = np.empty((B, len(bands)), dtype=np.intp)
            for g, (m0, m1, heads, row_mask, col_mask) in enumerate(bands):
                # The factors multiply the smaller side: rows (h, m) or
                # columns (m, l).  Each entry is then a whole pattern score.
                left, right = products[:, heads, np.newaxis, :], sides[:, np.newaxis, m0 + 1:, :]
                if left.shape[1] <= right.shape[2]:
                    left = left * factors[:, np.newaxis, m0:m1, :]
                else:
                    right = right * factors[:, m0:m1, np.newaxis, :]
                scores = left.reshape(B, -1, K + 3) @ right.reshape(B, -1, K + 3).transpose(0, 2, 1)
                if row_mask is not None:
                    # Masked entries score +inf, so a pattern's duplicates
                    # never come second to it.  The masks go on after the
                    # product, where no +inf meets a 0 to make a NaN.
                    scores = scores.reshape(B, -1, m1 - m0, k - 1 - m0)
                    scores += row_mask[:, :, np.newaxis]
                    scores += col_mask
                scores = scores.reshape(B, -1)
                picks[:, g] = scores.argmin(axis=1)
                lows[:, g] = scores[rows, picks[:, g]]
                scores[rows, picks[:, g]] = np.inf
                seconds[:, g] = scores.min(axis=1)

            def patterns(pick, g):
                # The patterns of band g's entries pick.
                m0, m1, start = np.moveaxis(table[g], -1, 0)
                row, l = np.divmod(pick, k - 1 - m0)
                row, m = np.divmod(row, m1 - m0)
                return np.concatenate((band_heads[start + row], (m0 + m)[..., np.newaxis],
                                       (m0 + 1 + l)[..., np.newaxis]), axis=-1)

            # A row-major argmin is lexicographic within a band; across
            # bands, the least score wins, then the lexicographically first,
            # sorted for only the rows whose least score ties or is NaN.
            g = lows.argmin(axis=1)
            low = lows[rows, g]
            tied = np.flatnonzero((lows == low[:, np.newaxis]).sum(axis=1) != 1)
            if len(tied):
                keys = np.moveaxis(patterns(picks[tied], np.arange(len(bands))), 2, 0)[::-1]
                g[tied] = np.lexsort((*keys, lows[tied]), axis=1)[:, 0]
                low = lows[rows, g]
            pattern = patterns(picks[rows, g], g)
            lows[rows, g] = seconds[rows, g]
            second = lows.min(axis=1)
        # The runner-up so far: the loser of best and low, or the second of
        # either side (minimum and maximum carry NaNs on).
        runner = np.minimum(np.minimum(runner, second), np.maximum(best, low))
        # A later order replaces the best only if strictly lower: the first
        # order reaching the least score wins.
        better = np.flatnonzero(low < best)
        best[better], flips[better] = low[better], 0
        flips[better[:, np.newaxis], pattern[better]] = 1
    return flips, runner.astype(np.float64) - best


def _reprocess(parts: tuple, rows, order: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """_best_patterns of the given rows of a block, scored in dtype; parts are
    the block's byte planes of R's redundancy columns (_byte_planes), the
    rows that hold R's rows, r on the redundancy positions, the base
    codeword there, and r on the MRB."""
    planes, pivot_rows, r_red, base_red, r_mrb = parts
    pivot_rows = pivot_rows[rows]
    # Bit p of a column word, its entry in the R row that row p holds, is
    # bit p % 8 of byte plane p // 8; take copies whole plane rows, several
    # times faster than indexing them.
    B, depth, m = planes.shape
    bits = planes.reshape(B * depth, m).take(depth * rows[:, np.newaxis] + (pivot_rows >> 3), axis=0)
    bits >>= (pivot_rows & 7).astype(np.uint8)[:, :, np.newaxis]
    bits &= 1
    signs = bits.view(np.int8)
    signs *= -2
    signs += 1
    sigma = signs.astype(dtype)
    # -s/2: pattern x scores its flip gains plus red_weight·prod_{j in x} sigma_j.
    red_weight = r_red[rows].astype(dtype) * np.array([-0.5, 0.5], dtype)[base_red[rows]]
    return _best_patterns(sigma, red_weight, np.abs(r_mrb[rows]).astype(dtype), order)


@np.errstate(over="ignore", invalid="ignore")  # overflowing rows get bound +inf
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

    up to a constant shared by all patterns.  Order 1 scores every l with one
    product.  Order t >= 2 groups its patterns by m, the second-largest
    position: a head h (a weight-(t-2) pattern below m), m, and l > m.  One
    product gives group m its whole scores, so each pattern is scored once
    (see _bands): the rows [-(s/2)·prod_{j in h+{m}} sigma_j, 1, sum_{j in h}
    |r_j|, |r_m|], heads in lexicographic order, times the rows [sigma_l,
    |r_l|, 1, 1] of l > m.  A row-major argmin is a group's lexicographically
    first minimum; across groups the least score wins, then the
    lexicographically first pattern, which only rows whose least score ties
    sort for.  A later order replaces the best only if strictly lower, so
    earlier patterns win ties; on inputs whose sums are exact, such as dyadic
    values, ties resolve exactly.

    Screen.  Order >= 1 scores every pattern in float32 first and scores
    again in float64 the rows whose float32 winner it cannot prove
    (_screened).  Pattern x's score is a sum of N = |x| + n - k <= n terms
    a_i, flip gains and +-r/2 on the redundancy positions, with sum|a_i| <=
    sum|r_i|, so _rounding_bound covers it.  Its bound holds for any order of
    summing: at order >= 2 the band product adds the terms in the BLAS's
    order, the head's gain being a partial sum formed first.  Multiplying by
    sigma = +-1 or by 1 and adding a mask of 0 are exact, and +inf masks
    only non-patterns and duplicates.
    """
    (B, n), k = received.shape, code.k
    if order > k:
        raise ValueError(f"OSD order {order} exceeds k = {k}")
    # Refuse, before any table is built, an order whose largest table, at
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
    if B >= BLOCK_ELIMINATION_MIN:
        words, mrb, pivot_rows = _eliminate_block(_column_words(code)[:, rank_order], k)
    else:
        words, mrb, pivot_rows = _eliminate_rows(
            np.take(code.systematic.generator_bits, rank_order, axis=1).transpose(1, 0, 2))
    r_mrb = r_ranked[each, mrb]
    info = (r_mrb < 0).astype(np.uint8)
    if order:
        is_red = np.ones((B, n), dtype=bool)
        is_red[each, mrb] = False
        red = np.nonzero(is_red)[1].reshape(B, n - k)
        red_words = words[:, each, red]
        # The base codeword on the redundancy positions; on the MRB, where R
        # is the identity, it is info.
        base_red = _encode(red_words, info, pivot_rows)
        parts = _byte_planes(red_words), pivot_rows, r_ranked[each, red], base_red, r_mrb
        bound = _rounding_bound(received)

        def score(rows, dtype):
            return _reprocess(parts, rows, order, dtype)

        for chunk in np.array_split(rows, max(1, round(B / _chunk_step(k, n, order)))):
            info[chunk] ^= _screened(score, chunk, bound)
    out = np.empty((B, n), dtype=np.uint8)
    out[each, rank_order] = _encode(words, info, pivot_rows)
    return out


def decode_batch(kind: DecoderKind, code: CodeSpec, received) -> np.ndarray:
    """Decode each row of a B x n block of soft values; returns B x n uint8 words.

    MLD picks the codeword with the least correlation sum r_i·c_i, ties going
    to the lexicographically smallest bit sequence (b_0, b_1, ...): the first
    float64 argmin over the sorted codebook.  Its float32 screen scores the
    +-1 correlations of half the codebook when the code holds the all-ones
    word, the other half by negation (_mld_screen).  OSD is described in
    _osd_batch.  Both score in float32 first and prove the float32 winners
    with one rule, bound being _rounding_bound's bound on the float32 plus
    the float64 error of any score: a row takes the float32 winner when every
    other candidate, codeword or flip pattern of weight 0..order, scores more
    than 2·bound above it, and is scored again in float64 otherwise, exact
    ties included.
    MLD first proves what it can without scoring (_mld_batch): a row's hard
    decision (r < 0) XOR the error pattern of weight <= (d - 1)/2 with its
    syndrome wins when every other codeword, differing from it in at least d
    places, must score more than 2·bound above it in exact arithmetic.  So
    the outputs are those of float64 scoring alone.  Row b of the result
    depends on row b of the input alone, so a block decodes exactly as its
    rows one at a time.
    """
    received = np.asarray(received, dtype=np.float64)
    if received.ndim != 2 or received.shape[1] != code.n:
        raise ValueError(f"received block shape {received.shape} is not (B, n = {code.n})")
    if not np.all(np.isfinite(received)):
        raise ValueError("soft values must be finite")
    if len(received) == 0:
        return np.zeros((0, code.n), dtype=np.uint8)
    if kind.variant == "mld":
        return _mld_batch(code, received)
    return _osd_batch(code, received, kind.order)


def decode(kind: DecoderKind, code: CodeSpec, r) -> BitWord:
    """Decode one soft vector with the selected decoder: a block of one."""
    return BitWord(code.n, bits_to_ints(decode_batch(kind, code, [r]))[0])


def mld_decode(code: CodeSpec, r) -> BitWord:
    """Exhaustive maximum-likelihood decoding of one soft vector (k <= MLD_MAX_K)."""
    return decode(DecoderKind("mld"), code, r)


def osd_decode(code: CodeSpec, r, order: int) -> BitWord:
    """Ordered statistics decoding of one soft vector (see _osd_batch)."""
    return decode(DecoderKind("osd", order), code, r)
