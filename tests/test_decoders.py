"""MLD and ordered-statistics decoding."""

import hashlib
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from pwe import decoders
from pwe.bitops import bpsk, int_to_bits, ints_to_bits
from pwe.codes import contains, encode, get_code, iter_codewords
from pwe.decoders import (
    BLOCK_ELIMINATION_MIN,
    DecoderKind,
    _eliminate_block,
    _last_flip_mask,
    _pattern_indices,
    decode,
    decode_batch,
    euclidean_score,
    mld_decode,
    osd_decode,
    parse_decoder,
)
from pwe.gf2 import BitWord, GF2Matrix, rref
from pwe.harvest import HarvestConfig, harvest
from pwe.sim import SimConfig, noise_sigma, simulate_point


def brute_force_mld(code, r):
    """Independent oracle: scan every codeword for the minimum distance."""
    best = None
    best_d = None
    for cw in sorted(iter_codewords(code)):
        word = BitWord(code.n, cw)
        d = euclidean_score(code, word, r)
        if best_d is None or d < best_d - 1e-12:
            best, best_d = word, d
    return best, best_d


def test_parse_decoder():
    assert parse_decoder("mld") == DecoderKind("mld")
    assert parse_decoder("osd:3") == DecoderKind("osd", 3)
    for bad in ("osd", "osd:", "osd:-1", "viterbi"):
        with pytest.raises(ValueError):
            parse_decoder(bad)


def test_decoder_outputs_are_members():
    rng = np.random.default_rng(31)
    for name in ("hamming-7-4", "golay-24-12"):
        code = get_code(name)
        for _ in range(100):
            r = rng.normal(size=code.n)
            for kind in (DecoderKind("mld"), DecoderKind("osd", 2)):
                word = decode(kind, code, r)
                assert word.length == code.n
                assert contains(code, word)


def test_mld_optimality_against_exhaustive_oracle():
    rng = np.random.default_rng(32)
    for name in ("hamming-7-4", "golay-24-12"):
        code = get_code(name)
        for _ in range(100):
            r = rng.normal(size=code.n)
            word = mld_decode(code, r)
            _, best_d = brute_force_mld(code, r)
            assert euclidean_score(code, word, r) == pytest.approx(best_d, abs=1e-9)


def test_osd_score_non_increasing_in_order():
    rng = np.random.default_rng(33)
    code = get_code("golay-24-12")
    for _ in range(30):
        r = rng.normal(size=code.n)
        scores = [euclidean_score(code, osd_decode(code, r, order), r)
                  for order in range(5)]
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))


def test_osd_full_order_equals_mld():
    rng = np.random.default_rng(34)
    for name in ("hamming-7-4", "golay-24-12"):
        code = get_code(name)
        for _ in range(100):
            r = rng.normal(size=code.n)
            d_mld = euclidean_score(code, mld_decode(code, r), r)
            d_osd = euclidean_score(code, osd_decode(code, r, code.k), r)
            assert d_osd == pytest.approx(d_mld, abs=1e-9)


def test_noiseless_decoding_returns_transmitted_word():
    rng = np.random.default_rng(35)
    for name in ("hamming-7-4", "golay-24-12"):
        code = get_code(name)
        for _ in range(30):
            info = BitWord(code.k, int(rng.integers(0, 2**code.k)))
            word = encode(code, info)
            r = bpsk(int_to_bits(word.value, code.n)).astype(np.float64)
            assert mld_decode(code, r) == word
            assert osd_decode(code, r, 1) == word


def test_decoding_is_deterministic():
    code = get_code("golay-24-12")
    rng = np.random.default_rng(36)
    r = rng.normal(size=code.n)
    assert mld_decode(code, r) == mld_decode(code, r.copy())
    assert osd_decode(code, r, 3) == osd_decode(code, r, 3)
    # All-zero input is a total tie; the result must still be fixed.
    tie = np.zeros(code.n)
    assert mld_decode(code, tie) == mld_decode(code, np.zeros(code.n))


def test_soft_input_validation():
    code = get_code("hamming-7-4")
    with pytest.raises(ValueError):
        mld_decode(code, np.zeros(6))
    with pytest.raises(ValueError):
        osd_decode(code, np.array([1.0, np.nan, 0, 0, 0, 0, 0]), 1)


def test_mld_refuses_large_k_before_enumerating(monkeypatch):
    def no_enumeration(code):
        raise AssertionError("the codebook was enumerated")

    monkeypatch.setattr("pwe.decoders.iter_codewords", no_enumeration)
    code = get_code("qr-47-24")  # k = 24: a 0.8 GB codebook
    with pytest.raises(ValueError):
        mld_decode(code, np.ones(code.n))
    with pytest.raises(ValueError):
        simulate_point(code, DecoderKind("mld"), 3.0, SimConfig(), np.random.default_rng(0))


# Harvest-like OSD inputs: (code, orders, vectors per order).
OSD_CORPUS = (
    ("bch-127-50", (0, 1, 2, 3), 40),
    ("bch-130-66", (3,), 20),
    ("golay-24-12", (0, 1, 2), 200),
)
# SHA-256 of every decoded word of OSD_CORPUS, frozen from a reference run.
OSD_CORPUS_SHA256 = "92224549cb61ac96f4544a3e2e00014f21d0a1bcc2418a1880e2b192a1aaf8a0"


def osd_corpus_digest() -> str:
    """Decode random BPSK codewords plus AWGN at 4 dB plus one impulse of
    amplitude d - 1, as a noisy-impulse harvest does, and hash the results."""
    h = hashlib.sha256()
    for name, orders, count in OSD_CORPUS:
        code = get_code(name)
        sigma = noise_sigma(4.0, code.rate)
        for order in orders:
            rng = np.random.default_rng([37, code.n, order])
            for _ in range(count):
                bits = rng.integers(0, 2, size=code.k, dtype=np.uint8)
                word = encode(code, BitWord.from_bits(bits.tolist()))
                tx = bpsk(int_to_bits(word.value, code.n))
                r = tx + sigma * rng.normal(size=code.n)
                pos = int(rng.integers(code.n))
                r[pos] -= (code.d_known - 1) * np.sign(tx[pos])
                h.update(f"{name}:{order}:{osd_decode(code, r, order).to_hex()};".encode())
    return h.hexdigest()


def test_osd_outputs_are_frozen():
    assert osd_corpus_digest() == OSD_CORPUS_SHA256


def test_pattern_indices_shapes():
    assert _pattern_indices(5, 0).shape == (1, 0)
    assert _pattern_indices(5, 2).tolist() == [list(p) for p in combinations(range(5), 2)]
    assert _pattern_indices(3, 4).shape == (0, 4)


def reference_osd_decode(code, r, order):
    """OSD with column-by-column uint8 elimination and one re-encoded
    candidate per flip pattern: the kernel osd_decode must agree with."""
    r = np.asarray(r, dtype=np.float64)
    n, k = code.n, code.k
    rank_order = np.lexsort((np.arange(n), -np.abs(r)))
    r_perm = r[rank_order]
    R = code.systematic.generator_bits[:, rank_order].copy()
    mrb, pr = [], 0
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
    red_arr = np.setdiff1d(np.arange(n), mrb_arr)
    r_red = r_perm[red_arr]
    R_red = np.ascontiguousarray(R[:, red_arr])
    base_red = base[red_arr]
    flip_gain = np.abs(r_perm[mrb_arr])
    base_score = float(base @ r_perm)
    mrb_const = base_score - float(base_red @ r_red)
    best_score, best_cand = base_score, base
    for t in range(1, order + 1):
        patterns = np.array(list(combinations(range(k), t)), dtype=np.intp)
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
    return int.from_bytes(np.packbits(out, bitorder="little").tobytes(), "little")


def harvest_like(code, rng, count):
    """BPSK codewords with AWGN at 4 dB and one impulse of amplitude d - 1."""
    sigma = noise_sigma(4.0, code.rate)
    for _ in range(count):
        tx = bpsk(int_to_bits(random_codeword(code, rng), code.n))
        r = tx + sigma * rng.normal(size=code.n)
        pos = int(rng.integers(code.n))
        r[pos] -= (code.d_known - 1) * np.sign(tx[pos])
        yield r


def tie_heavy(code, rng, count):
    """Inputs with many exactly equal reliabilities and scores: all zeros,
    +-1 vectors, single-impulse sweeps in steps of 0.5, and AWGN rounded to
    integers."""
    yield np.zeros(code.n)
    sigma = noise_sigma(4.0, code.rate)
    for _ in range(count):
        tx = bpsk(int_to_bits(random_codeword(code, rng), code.n))
        yield 1.0 - 2.0 * rng.integers(0, 2, size=code.n)
        r = tx.copy()
        pos = int(rng.integers(code.n))
        r[pos] -= 0.5 * int(rng.integers(1, 2 * code.d_known + 5)) * tx[pos]
        yield r
        yield np.round(tx + 2 * sigma * rng.normal(size=code.n))


def random_codeword(code, rng):
    bits = rng.integers(0, 2, size=code.k, dtype=np.uint8)
    return encode(code, BitWord.from_bits(bits.tolist())).value


# (code, orders, harvest-like vectors, tie-heavy rounds of 3 vectors each).
OSD_DIFFERENTIAL = (
    ("bch-127-50", (0, 1, 2, 3), 30, 10),
    ("bch-130-66", (3,), 15, 5),
    ("bch-103-47", (3,), 15, 5),
    ("bch-111-55", (3,), 15, 5),
    ("golay-24-12", (0, 1, 2, 3, 4, 5, 12), 40, 20),
)


@pytest.mark.parametrize("name,orders,harvested,rounds", OSD_DIFFERENTIAL,
                         ids=[case[0] for case in OSD_DIFFERENTIAL])
def test_osd_matches_per_pattern_reference(name, orders, harvested, rounds):
    code = get_code(name)
    for order in orders:
        rng = np.random.default_rng([38, code.n, order])
        vectors = [*harvest_like(code, rng, harvested), *tie_heavy(code, rng, rounds)]
        for r in vectors:
            assert osd_decode(code, r, order).value == reference_osd_decode(code, r, order)


@pytest.mark.parametrize("name,count", [("hamming-7-4", 300), ("golay-24-12", 150)])
def test_mld_breaks_ties_lexicographically(name, count):
    # Entries in {-1, -1/2, 0, 1/2, 1}: every correlation is exact, and
    # many inputs have several minimal codewords.
    code = get_code(name)
    words = list(iter_codewords(code))
    bits = ints_to_bits(words, code.n)
    rng = np.random.default_rng([39, code.n])
    received = rng.integers(-2, 3, size=(count, code.n)) / 2.0
    rows = decode_batch(DecoderKind("mld"), code, received)
    tied = 0
    for r, row in zip(received, rows):
        scores = bits @ r
        best = np.flatnonzero(scores == scores.min())
        tied += len(best) > 1
        # The smallest (b_0, b_1, ...) sequence among the minimal codewords.
        want = words[min(best, key=lambda i: tuple(bits[i]))]
        assert mld_decode(code, r).value == want
        assert BitWord.from_bits(row.tolist()).value == want
    assert tied > count // 4


@pytest.mark.parametrize("k,t", [(1, 1), (4, 1), (5, 2), (6, 3), (7, 4), (5, 5)])
def test_last_flip_mask_keeps_each_pattern_once_in_order(k, t):
    mask = _last_flip_mask(k, t)
    prefixes = _pattern_indices(k, t - 1)
    assert mask.shape == (len(prefixes), k)
    assert set(np.unique(mask)) <= {0.0, np.inf}
    kept = [(*prefixes[p], l) for p, l in zip(*np.nonzero(mask == 0))]
    assert kept == list(combinations(range(k), t))


def test_both_paths_apply_the_last_flip_mask(monkeypatch):
    # With every reprocessing entry masked, any order decodes as order 0:
    # on one row (gf2.rref per row) and on a block (block elimination).
    code = get_code("bch-127-50")
    received = np.array(list(harvest_like(code, np.random.default_rng(40), 2 * BLOCK_ELIMINATION_MIN)))
    order0 = decode_batch(DecoderKind("osd", 0), code, received)
    order3 = decode_batch(DecoderKind("osd", 3), code, received)
    assert (order3 != order0).any()
    monkeypatch.setattr(decoders, "_last_flip_mask",
                        lambda k, t: np.full((len(_pattern_indices(k, t - 1)), k), np.inf))
    assert (decode_batch(DecoderKind("osd", 3), code, received) == order0).all()
    for r, row in zip(received[:3], order0):
        assert osd_decode(code, r, 3).value == BitWord.from_bits(row.tolist()).value


def test_osd_refuses_oversized_tables_before_allocating():
    # osd:4 on BCH(255,191) would build a C(191, 3) x 191 float64 mask.
    code = get_code("bch-255-191")
    received = np.ones((1, code.n))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="1,747 MB"):
            decode_batch(DecoderKind("osd", 4), code, received)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    shortened = get_code("bch-130-66")
    received = np.array(list(harvest_like(shortened, np.random.default_rng(43), 4)))
    for row in decode_batch(DecoderKind("osd", 3), shortened, received):
        assert contains(shortened, BitWord.from_bits(row.tolist()))


@pytest.mark.parametrize("kind", [DecoderKind("mld"), DecoderKind("osd", 2)], ids=str)
def test_decode_batch_validates_its_input(kind):
    code = get_code("hamming-7-4")
    for shape in ((7,), (3, 6), (3, 8), (2, 3, 7)):
        with pytest.raises(ValueError):
            decode_batch(kind, code, np.zeros(shape))
    for bad in (np.nan, np.inf, -np.inf):
        received = np.ones((3, 7))
        received[1, 4] = bad
        with pytest.raises(ValueError):
            decode_batch(kind, code, received)


@pytest.mark.parametrize("kind", [DecoderKind("mld"), DecoderKind("osd", 2)], ids=str)
def test_decode_batch_of_no_rows_is_empty(kind):
    out = decode_batch(kind, get_code("golay-24-12"), np.zeros((0, 24)))
    assert out.shape == (0, 24) and out.dtype == np.uint8


def test_harvest_of_no_trials_is_empty():
    config = HarvestConfig(decoder=DecoderKind("osd", 1), trials=0, seed=0,
                           impulse_mode="noisy_impulse")
    assert harvest(get_code("bch-127-50"), config) == {}


# (code, decoders) for the block-versus-row differential test.
BATCH_DIFFERENTIAL = (
    ("bch-127-50", ("osd:0", "osd:1", "osd:2", "osd:3")),
    ("bch-130-66", ("osd:0", "osd:1", "osd:2", "osd:3")),
    ("golay-24-12", ("mld", "osd:0", "osd:1", "osd:2", "osd:3")),
)


@pytest.mark.parametrize("name,kinds", BATCH_DIFFERENTIAL, ids=[c[0] for c in BATCH_DIFFERENTIAL])
def test_decode_batch_rows_equal_one_row_decodes(name, kinds):
    code = get_code(name)
    rng = np.random.default_rng([41, code.n])
    received = np.array([*harvest_like(code, rng, 24), *tie_heavy(code, rng, 8)])
    small = BLOCK_ELIMINATION_MIN - 1
    for text in kinds:
        kind = parse_decoder(text)
        one = np.array([decode_batch(kind, code, r[np.newaxis])[0] for r in received])
        assert (decode_batch(kind, code, received) == one).all(), text
        assert (decode_batch(kind, code, received[:small]) == one[:small]).all(), text
        for r, row in zip(received[:4], one):
            assert decode(kind, code, r).value == BitWord.from_bits(row.tolist()).value


@pytest.mark.parametrize("name", ["bch-127-50", "bch-130-66", "golay-24-12"])
def test_block_elimination_equals_gf2_rref(name):
    code = get_code(name)
    rng = np.random.default_rng([42, code.n])
    received = np.array([*harvest_like(code, rng, 40), *tie_heavy(code, rng, 8)])
    rank_order = np.argsort(-np.abs(received), axis=1, kind="stable")
    ranked = np.take(code.systematic.generator_bits, rank_order, axis=1).transpose(1, 0, 2)
    R_bits, pivots = _eliminate_block(ranked)
    for b in range(len(received)):
        rows = tuple(BitWord.from_bits(row.tolist()).value for row in ranked[b])
        R, rank, want = rref(GF2Matrix(rows, code.n))
        assert rank == code.k
        assert pivots[b].tolist() == want
        assert (R_bits[b] == ints_to_bits(R.rows, code.n)).all()
