"""MLD and ordered-statistics decoding."""

import functools
import hashlib
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from pwe import decoders
from pwe.bitops import bits_to_ints, bpsk, ints_to_bits
from pwe.codes import contains, encode, get_code, shorten
from pwe.decoders import (
    BLOCK_ELIMINATION_MIN,
    DecoderKind,
    _bands,
    _eliminate_block,
    _pattern_indices,
    decode,
    decode_batch,
    mld_decode,
    osd_decode,
    parse_decoder,
)
from pwe.gf2 import BitWord, rref
from pwe.harvest import HarvestConfig, harvest
from pwe.sim import SimConfig, noise_sigma, simulate_point


@functools.lru_cache(maxsize=None)
def all_codewords(code):
    """Independent oracle: the encoding of every information word."""
    return tuple(encode(code, BitWord(code.k, m)).value for m in range(2**code.k))


def brute_force_mld(code, r):
    """Independent oracle: the least squared distance from r to any codeword."""
    images = bpsk(ints_to_bits(all_codewords(code), code.n))
    return float(((r - images) ** 2).sum(axis=1).min())


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
                assert contains(code, word.value)


def test_mld_optimality_against_exhaustive_oracle():
    rng = np.random.default_rng(32)
    # n = 67: the codebook spans two 64-bit words.
    for code in (get_code("hamming-7-4"), get_code("golay-24-12"),
                 shorten(get_code("bch-127-71"), 60)):
        for _ in range(100):
            r = rng.normal(size=code.n)
            word = mld_decode(code, r).value
            d = np.sum((r - bpsk(ints_to_bits([word], code.n)[0])) ** 2)
            assert d == pytest.approx(brute_force_mld(code, r), abs=1e-9)


def test_osd_score_non_increasing_in_order():
    rng = np.random.default_rng(33)
    code = get_code("golay-24-12")
    for _ in range(30):
        r = rng.normal(size=code.n)
        words = [osd_decode(code, r, order).value for order in range(5)]
        scores = np.sum((r - bpsk(ints_to_bits(words, code.n))) ** 2, axis=1)
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))


def test_osd_full_order_equals_mld():
    rng = np.random.default_rng(34)
    for name in ("hamming-7-4", "golay-24-12"):
        code = get_code(name)
        for _ in range(100):
            r = rng.normal(size=code.n)
            words = [mld_decode(code, r).value, osd_decode(code, r, code.k).value]
            d_mld, d_osd = np.sum((r - bpsk(ints_to_bits(words, code.n))) ** 2, axis=1)
            assert d_osd == pytest.approx(d_mld, abs=1e-9)


def test_noiseless_decoding_returns_transmitted_word():
    rng = np.random.default_rng(35)
    for name in ("hamming-7-4", "golay-24-12"):
        code = get_code(name)
        for _ in range(30):
            info = BitWord(code.k, int(rng.integers(0, 2**code.k)))
            word = encode(code, info)
            r = bpsk(ints_to_bits([word.value], code.n)[0]).astype(np.float64)
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

    monkeypatch.setattr("pwe.decoders._codeword_chunks", no_enumeration)
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
# Most rows of 512 harvest-like ones (blocks of 64) the OSD screen may send
# to float64.
OSD_HARVEST_FALLBACK_MAX = 8
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
                tx = bpsk(ints_to_bits([random_codeword(code, rng)], code.n)[0])
                r = tx + sigma * rng.normal(size=code.n)
                pos = int(rng.integers(code.n))
                r[pos] -= (code.d_known - 1) * np.sign(tx[pos])
                word = osd_decode(code, r, order).value
                h.update(f"{name}:{order}:{word:0{(code.n + 3) // 4}x};".encode())
    return h.hexdigest()


def test_osd_outputs_are_frozen():
    assert osd_corpus_digest() == OSD_CORPUS_SHA256


def test_pattern_indices_shapes():
    assert _pattern_indices(5, 0).shape == (1, 0)
    assert _pattern_indices(5, 2).tolist() == [list(p) for p in combinations(range(5), 2)]
    assert _pattern_indices(3, 4).shape == (0, 4)


def reference_mrb(code, r):
    """The reliability order, the ranked generator in reduced row-echelon
    form by column-by-column uint8 elimination, and its pivot columns."""
    n, k = code.n, code.k
    rank_order = np.lexsort((np.arange(n), -np.abs(r)))
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
    return rank_order, R, np.array(mrb, dtype=np.intp)


def reference_osd_decode(code, r, order):
    """OSD with column-by-column uint8 elimination and one re-encoded
    candidate per flip pattern: the kernel osd_decode must agree with."""
    r = np.asarray(r, dtype=np.float64)
    n, k = code.n, code.k
    rank_order, R, mrb_arr = reference_mrb(code, r)
    r_perm = r[rank_order]
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
        tx = bpsk(ints_to_bits([random_codeword(code, rng)], code.n)[0])
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
        tx = bpsk(ints_to_bits([random_codeword(code, rng)], code.n)[0])
        yield 1.0 - 2.0 * rng.integers(0, 2, size=code.n)
        r = tx.copy()
        pos = int(rng.integers(code.n))
        r[pos] -= 0.5 * int(rng.integers(1, 2 * code.d_known + 5)) * tx[pos]
        yield r
        yield np.round(tx + 2 * sigma * rng.normal(size=code.n))


def random_codeword(code, rng):
    bits = rng.integers(0, 2, size=(1, code.k), dtype=np.uint8)
    return encode(code, BitWord(code.k, bits_to_ints(bits)[0])).value


# (code, orders, harvest-like vectors, tie-heavy rounds of 3 vectors each).
OSD_DIFFERENTIAL = (
    ("bch-127-50", (0, 1, 2, 3), 30, 10),
    ("bch-130-66", (3,), 15, 5),
    ("bch-103-47", (3,), 15, 5),
    ("bch-111-55", (3,), 15, 5),
    ("bch-63-39", (3, 4), 15, 5),
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


def reference_pattern_scores(code, r, order):
    """The correlation of every flip pattern of weight 0..order on
    reference_mrb's MRB, exact on dyadic inputs."""
    rank_order, R, mrb = reference_mrb(code, r)
    r_perm = r[rank_order]
    base = ((r_perm[mrb] < 0).astype(np.uint8) @ R) & 1
    scores = []
    for t in range(order + 1):
        patterns = _pattern_indices(code.k, t)
        scores.append((base ^ np.bitwise_xor.reduce(R[patterns], axis=1)) @ r_perm)
    return np.concatenate(scores)


def osd_fallback_rows(monkeypatch):
    """Route the float64 rescoring of the OSD screen through a recorder;
    returns the list of block rows it rescores."""
    seen, reprocess = [], decoders._reprocess

    def recorded(parts, rows, order, dtype):
        if dtype == np.float64:
            seen.extend(np.asarray(rows).tolist())
        return reprocess(parts, rows, order, dtype)

    monkeypatch.setattr(decoders, "_reprocess", recorded)
    return seen


@pytest.mark.parametrize("name", ["bch-127-50", "bch-130-66"])
def test_osd_harvest_blocks_rarely_need_float64(monkeypatch, name):
    # 512 harvest-like rows in blocks of 64, as the impulse sampler decodes
    # them: measured 0 to 4 rows fall back at seeds 0 to 9 of either code.
    seen = osd_fallback_rows(monkeypatch)
    code = get_code(name)
    rng = np.random.default_rng([49, code.n])
    for _ in range(8):
        block = np.array(list(harvest_like(code, rng, 64)))
        out = decode_batch(DecoderKind("osd", 3), code, block)
        for b in range(0, 64, 8):
            assert bits_to_ints(out[b:b + 1])[0] == reference_osd_decode(code, block[b], 3)
    assert len(seen) <= OSD_HARVEST_FALLBACK_MAX


def exactly_tied(code, rows, order):
    """The dyadic rows whose least pattern score is reached more than once."""
    tied = []
    for r in rows:
        scores = reference_pattern_scores(code, r, order)
        if (scores == scores.min()).sum() > 1:
            tied.append(r)
    return tied


def by_order(names, orders=(3, 1)):
    """(name, order) cases, each named by its code, and its order below 3."""
    cases = [(name, order) for order in orders for name in names]
    return pytest.mark.parametrize("name,order", cases, ids=[
        name if order == 3 else f"{name}-order{order}" for name, order in cases])


@by_order(["golay-24-12", "bch-127-50", "bch-130-66"])
def test_osd_exact_ties_go_to_float64(monkeypatch, name, order):
    # On dyadic inputs every score is exact in float32 too, so a row whose
    # winner ties another pattern has a float32 gap of 0.  Order 1 has fewer
    # patterns to tie, so it decodes twice as many rows.
    code = get_code(name)
    rounds = 16 if order > 1 else 32
    received = np.array(list(tie_heavy(code, np.random.default_rng([50, code.n]), rounds)))
    seen = osd_fallback_rows(monkeypatch)
    decode_batch(DecoderKind("osd", order), code, received)
    tied = exactly_tied(code, received, order)
    assert len(tied) >= 8 and {tuple(r) for r in tied} <= {tuple(received[b]) for b in seen}


@by_order(["golay-24-12", "bch-127-50"])
def test_osd_near_ties_decode_as_float64(name, order):
    # Exactly tied rows moved by about float32's rounding of their scores:
    # the screen must not take a float32 winner that float64 ranks second.
    code = get_code(name)
    rng = np.random.default_rng([53, code.n])
    tied = exactly_tied(code, tie_heavy(code, rng, 16), order)
    assert len(tied) >= 8
    received = np.array([r + offset * rng.normal(size=code.n)
                         for r in tied for offset in (1e-7, 3e-7, 1e-6) for _ in range(3)])
    out = decode_batch(DecoderKind("osd", order), code, received)
    for r, word in zip(received, bits_to_ints(out)):
        assert word == reference_osd_decode(code, r, order)


def test_osd_rows_that_could_overflow_float32_go_to_float64(monkeypatch):
    # A power-of-two scale scales every float64 score exactly, so the words
    # must not change.  From sum|r_i| = 2^127 on every row falls back, also
    # below 2^128, where its float32 scores would still be finite.
    code, kind = get_code("bch-127-50"), DecoderKind("osd", 3)
    received = np.array(list(harvest_like(code, np.random.default_rng(51), 48)))
    want = decode_batch(kind, code, received)
    seen = osd_fallback_rows(monkeypatch)
    finite = 0
    for e in (-140, -126, -100, 119, 120, 121, 122, 126, 500):
        scaled = received * 2.0 ** e
        del seen[:]
        assert (decode_batch(kind, code, scaled) == want).all(), e
        total = np.abs(scaled).sum(axis=1)
        assert set(np.flatnonzero(total >= 2.0 ** 127)) <= set(seen), e
        finite += ((total >= 2.0 ** 127) & (total < 2.0 ** 128)).sum()
    assert finite >= 10


@pytest.mark.parametrize("poison", ["red_weight", "one flip gain"])
def test_osd_nan_screen_sends_every_row_to_float64(monkeypatch, poison):
    code, kind = get_code("bch-127-50"), DecoderKind("osd", 3)
    received = np.array(list(harvest_like(code, np.random.default_rng(52), 40)))
    want = decode_batch(kind, code, received)
    best = decoders._best_patterns

    def poisoned(sigma, red_weight, flip_gain, order):
        if sigma.dtype == np.float32:
            red_weight, flip_gain = red_weight.copy(), flip_gain.copy()
            if poison == "red_weight":
                red_weight[:] = np.nan
            else:
                flip_gain[:, 7] = np.nan
        return best(sigma, red_weight, flip_gain, order)

    monkeypatch.setattr(decoders, "_best_patterns", poisoned)
    seen = osd_fallback_rows(monkeypatch)
    assert (decode_batch(kind, code, received) == want).all()
    assert sorted(seen) == list(range(len(received)))


# A code without the all-ones word: MLD's float32 screen scores its whole
# codebook image, not half of it, so the MLD tie and float64-argmin tests
# run on it as well as on the catalog's MLD codes, which hold that word.
SHORT_BCH = "bch-127-71-shortened-60"


def mld_code(name):
    """A catalog code, or SHORT_BCH: BCH(127,71) shortened by 60, n = 67, k = 11."""
    return shorten(get_code("bch-127-71"), 60) if name == SHORT_BCH else get_code(name)


@pytest.mark.parametrize("name,count", [("hamming-7-4", 300), ("golay-24-12", 150), ("qr-23-12", 150),
                                        (SHORT_BCH, 150)])
def test_mld_breaks_ties_lexicographically(name, count):
    # Entries in {-1, -1/2, 0, 1/2, 1}: every correlation is exact, and
    # many inputs have several minimal codewords.
    code = mld_code(name)
    words = all_codewords(code)
    bits = ints_to_bits(words, code.n)
    rng = np.random.default_rng([39, code.n])
    received = rng.integers(-2, 3, size=(count, code.n)) / 2.0
    rows = decode_batch(DecoderKind("mld"), code, received)
    tied = 0
    for r, row in zip(received, bits_to_ints(rows)):
        scores = bits @ r
        best = np.flatnonzero(scores == scores.min())
        tied += len(best) > 1
        # The smallest (b_0, b_1, ...) sequence among the minimal codewords.
        want = words[min(best, key=lambda i: tuple(bits[i]))]
        assert mld_decode(code, r).value == want
        assert row == want
    assert tied > count // 4


# Codes and blocks of the MLD exactness tests.  Scaled N(0,1) rows reach
# the float32 edges: overflow of entries (1e39) or of sums (1e38),
# subnormals (1e-38, 1e-44), below float32's range (1e-300), and near
# float64's top (1e300).  Near ties are midway between two codewords, off
# by about float32's rounding of the entries.
MLD_CODES = ("golay-24-12", "qr-23-12", "hamming-7-4")
MLD_SCALES = (1e39, 1e38, 1e30, 1e-38, 1e-44, 1e-300, 1e300)
MLD_SNRS = (0.0, 3.0, 5.0, 8.0)
MLD_NEAR_TIES = (1e-6, 1e-7)
# SHA-256 of every decoded word of mld_blocks on MLD_CODES, frozen from a
# reference run of the plain float64 argmin.
MLD_CORPUS_SHA256 = "0267dc6d1e2af5984bddb5cf11d668bf2ef9b370fe851dffc2e7908b24628c06"


def lexicographic_codebook(code):
    """All codewords as bit rows, sorted into (b_0, b_1, ...) order."""
    bits = ints_to_bits(all_codewords(code), code.n)
    return bits[np.lexsort(bits.T[::-1])]


def sim_like(code, rng, snr_db, count):
    """A block of random BPSK codewords plus AWGN, as a simulation draws it."""
    words = lexicographic_codebook(code)
    tx = bpsk(words[rng.integers(len(words), size=count)])
    return tx + noise_sigma(snr_db, code.rate) * rng.normal(size=tx.shape)


def mld_blocks(code):
    """(label, block): 200 scaled N(0,1) rows per scale, a 512-row sim-like
    block per SNR, 200 near ties per offset, and 200 harvest-like rows."""
    rng = np.random.default_rng([44, code.n])
    for scale in MLD_SCALES:
        yield f"x{scale:g}", scale * rng.normal(size=(200, code.n))
    for snr in MLD_SNRS:
        yield f"{snr:g} dB", sim_like(code, rng, snr, 512)
    words = lexicographic_codebook(code)
    for offset in MLD_NEAR_TIES:
        pairs = bpsk(words[rng.integers(len(words), size=(2, 200))])
        yield f"tie {offset:g}", pairs.mean(axis=0) + offset * rng.normal(size=(200, code.n))
    yield "impulse", np.array(list(harvest_like(code, rng, 200)))


def mld_corpus_digest() -> str:
    h = hashlib.sha256()
    for name in MLD_CODES:
        code = get_code(name)
        for label, block in mld_blocks(code):
            words = decode_batch(DecoderKind("mld"), code, block)
            h.update(f"{name}:{label}:".encode() + np.packbits(words, axis=1).tobytes())
    return h.hexdigest()


def test_mld_outputs_are_frozen():
    assert mld_corpus_digest() == MLD_CORPUS_SHA256


@pytest.mark.parametrize("name", [*MLD_CODES, SHORT_BCH])
def test_mld_equals_float64_argmin(name):
    code = mld_code(name)
    book = lexicographic_codebook(code)
    image = book.astype(np.float64)
    for label, block in mld_blocks(code):
        with np.errstate(over="ignore", invalid="ignore"):
            want = book[np.argmin(block @ image.T, axis=1)]
        assert (decode_batch(DecoderKind("mld"), code, block) == want).all(), label


def mld_scored_rows(monkeypatch):
    """Route the float32 screen and the float64 scoring through recorders;
    returns the lists of rows each of them scores."""
    screened, exact = [], []
    screen, scores = decoders._mld_screen, decoders._mld_scores

    def recorded_screen(received, sigma, size):
        screened.extend(map(tuple, received))
        return screen(received, sigma, size)

    def recorded_scores(received, image):
        exact.extend(map(tuple, received))
        return scores(received, image)

    monkeypatch.setattr(decoders, "_mld_screen", recorded_screen)
    monkeypatch.setattr(decoders, "_mld_scores", recorded_scores)
    return screened, exact


def test_mld_gaussian_blocks_need_no_float64(monkeypatch):
    # The certificate leaves few rows to the screen at 3 to 5 dB, so blocks
    # at 0 to 2 dB bring thousands more.
    screened, exact = mld_scored_rows(monkeypatch)
    code = get_code("golay-24-12")
    rng = np.random.default_rng(45)
    for snr in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0):
        for _ in range(8):
            decode_batch(DecoderKind("mld"), code, sim_like(code, rng, snr, 512))
    assert len(screened) > 4000 and exact == []


@pytest.mark.parametrize("name", [*MLD_CODES, SHORT_BCH])
def test_mld_ties_go_to_float64(monkeypatch, name):
    # Every exactly tied row: its float32 gap is 0, never above the bound.
    screened, exact = mld_scored_rows(monkeypatch)
    code = mld_code(name)
    book = lexicographic_codebook(code)
    received = np.random.default_rng([46, code.n]).integers(-2, 3, size=(300, code.n)) / 2.0
    decode_batch(DecoderKind("mld"), code, received)
    scores = received @ book.T
    tied = set(map(tuple, received[(scores == scores.min(axis=1, keepdims=True)).sum(axis=1) > 1]))
    assert len(tied) > 30 and tied <= set(screened) and tied <= set(exact)


@pytest.mark.parametrize("name,closed", [("golay-24-12", True), ("hamming-7-4", True), (SHORT_BCH, False)])
def test_mld_image_is_half_the_codebook_when_closed_under_complement(name, closed):
    # With the all-ones word, the last half of the sorted codebook is the
    # first half complemented in reverse order, and the float32 image holds
    # the first half alone: 2^(k-1) rows, else 2^k.
    code = mld_code(name)
    bits, sigma = decoders._codebook(code)
    assert contains(code, (1 << code.n) - 1) == closed
    assert (bits == lexicographic_codebook(code)).all()
    assert sigma.dtype == np.float32 and sigma.shape == (1 << (code.k - closed), code.n)
    assert (sigma == 1 - 2 * bits[:len(sigma)].astype(np.float64)).all()
    assert (bits[::-1] == 1 - bits).all() == closed


@pytest.mark.parametrize("name", ["golay-24-12", SHORT_BCH])
def test_mld_screen_on_half_image_equals_full_image(name):
    # Dyadic entries keep every float32 correlation exact, so the screen on
    # half the image and on all of it gives the same gaps, and where a gap
    # is positive, the same winner: the float64 argmin.
    code = mld_code(name)
    bits, sigma = decoders._codebook(code)
    full = 1 - 2 * bits.astype(np.float32)
    received = np.random.default_rng([57, code.n]).integers(-2, 3, size=(300, code.n)) / 2.0
    won, gap = decoders._mld_screen(received, sigma, len(bits))
    won_full, gap_full = decoders._mld_screen(received, full, len(bits))
    assert (gap == gap_full).all() and (gap >= 0).all()
    clear = gap > 0
    assert 30 < clear.sum() < len(received)
    assert (won[clear] == won_full[clear]).all()
    assert (won[clear] == np.argmin(received @ bits.T.astype(np.float64), axis=1)[clear]).all()


def test_mld_hard_decision_codewords_skip_float32(monkeypatch):
    # A NaN float32 image sends every row that reaches the float32 product on
    # to the float64 fallback; certified rows, hard-decision codewords among
    # them, never get there, the others reach both, and the outputs stay
    # exact.
    code = get_code("golay-24-12")
    block = sim_like(code, np.random.default_rng(47), 3.0, 512)
    book = lexicographic_codebook(code)
    want = book[np.argmin(block @ book.T.astype(np.float64), axis=1)]
    bits, sigma = decoders._codebook(code)
    proved = decoders._certified(code, block, decoders._rounding_bound(block))[1]
    member = np.array([contains(code, v) for v in bits_to_ints((block < 0).astype(np.uint8))])
    assert 100 < proved.sum() < len(block) and 100 < (proved & ~member).sum()
    monkeypatch.setattr(decoders, "_codebook", lambda code: (bits, np.full_like(sigma, np.nan)))
    screened, exact = mld_scored_rows(monkeypatch)
    assert (decode_batch(DecoderKind("mld"), code, block) == want).all()
    assert set(map(tuple, block[~proved])) == set(screened) == set(exact)


def test_mld_hard_decision_threshold_is_twice_the_bound(monkeypatch):
    # Codeword hard decisions whose least |r_i| lies above 2·bound, but not
    # above 4·((n + 2)·2^-24·sum|r_i| + n·2^-126), take the hard decision,
    # which is the float64 argmin, without being scored.
    code = get_code("golay-24-12")
    n, rng = code.n, np.random.default_rng(55)
    book = lexicographic_codebook(code)
    tx = bpsk(book[rng.integers(len(book), size=64)])
    block = tx * (0.5 + rng.random(tx.shape))
    each, pos = np.arange(len(block)), rng.integers(n, size=len(block))
    block[each, pos] = 3 * (n + 2) * 2.0 ** -24 * np.abs(block).sum(axis=1) * tx[each, pos]
    total, least = np.abs(block).sum(axis=1), np.abs(block).min(axis=1)
    assert (2 * decoders._rounding_bound(block) < least).all()
    assert (least <= 4 * ((n + 2) * 2.0 ** -24 * total + n * 2.0 ** -126)).all()
    screened, exact = mld_scored_rows(monkeypatch)
    got = decode_batch(DecoderKind("mld"), code, block)
    assert (got == book[np.argmin(block @ book.T.astype(np.float64), axis=1)]).all()
    assert (got == (block < 0)).all() and screened == [] and exact == []


def exact_wins(book, block, words):
    """Whether each word of words correlates with its row of block strictly
    less than every other codeword of book does, in exact arithmetic: the
    row's entries as integers in units of its finest power of two, split into
    signed 30-bit limbs whose products with the 0/1 differences c - w sum
    exactly in float64, then carried so that each lower limb lies in [0,
    2^30) and the sign of a gap is that of its top nonzero limb."""
    image, wins = book.astype(np.float64), []
    for r, word in zip(block, words):
        scale = max(Fraction(float(v)).denominator for v in r)
        ints = [int(Fraction(float(v)) * scale) for v in r]
        limbs = max(abs(v) for v in ints).bit_length() // 30 + 1
        split = [[(abs(v) >> 30 * at & (1 << 30) - 1) * (1 if v >= 0 else -1) for v in ints]
                 for at in range(limbs)]
        gaps = ((image - word) @ np.array(split, dtype=np.float64).T).astype(np.int64)
        for at in range(limbs - 1):
            gaps[:, at + 1] += gaps[:, at] >> 30
            gaps[:, at] &= (1 << 30) - 1
        zero = (gaps == 0).all(axis=1)
        above = (gaps[:, -1] > 0) | ((gaps[:, -1] == 0) & ~zero)
        wins.append(zero.sum() == 1 and (above | zero).all())
    return np.array(wins, dtype=bool)


@pytest.mark.parametrize("name", [*MLD_CODES, SHORT_BCH])
def test_mld_certificate_is_sound(name):
    # Every candidate the certificate proves is the unique exact minimum,
    # on the exactness blocks and on rows near 2^100 and among subnormals.
    # SHORT_BCH, at rate 11/67, has its hard decisions within t = 1 error of
    # a codeword on few rows but those at 8 dB.
    code = mld_code(name)
    book = lexicographic_codebook(code)
    rng = np.random.default_rng([58, code.n])
    blocks = [block for _, block in mld_blocks(code)] + [np.array(list(soundness_rows(code, rng)))]
    certified = 0
    for block in blocks:
        with np.errstate(over="ignore", invalid="ignore"):
            words, proved = decoders._certified(code, block, decoders._rounding_bound(block))
        assert exact_wins(book, block[proved], words[proved]).all()
        certified += proved.sum()
    assert certified > 20


@pytest.mark.parametrize("name", [*MLD_CODES, SHORT_BCH])
def test_mld_leader_table_invariants(name):
    # Every pattern of weight <= t once, t <= (d - 1)/2 and the largest whose
    # table fits in 2^k rows, distinct sorted keys, each the syndrome key of
    # its pattern XOR any codeword, and d the code's minimum distance.
    code = mld_code(name)
    keys, flips, d = decoders._leaders(code)
    book = lexicographic_codebook(code)
    assert d == (book[1:].sum(axis=1).min() if name == SHORT_BCH else code.d_known)
    t, n = flips.shape[1], code.n
    sizes = [sum(comb(n, w) for w in range(top + 1)) for top in (t, t + 1)]
    assert 2 * t < d and sizes[0] == len(keys) <= 2 ** code.k
    assert 2 * (t + 1) >= d or sizes[1] > 2 ** code.k
    weights = (flips < n).sum(axis=1)
    patterns = {tuple(sorted(row[:w])) for row, w in zip(flips.tolist(), weights)}
    assert len(patterns) == len(keys) and (np.sort(flips, axis=1) == flips).all()
    assert len(set(keys.tolist())) == len(keys) and (np.sort(keys) == keys).all()
    errors = np.zeros((len(keys), n + 1), dtype=np.uint8)
    errors[np.arange(len(keys))[:, np.newaxis], flips] = 1
    for word in book[np.random.default_rng(59).integers(len(book), size=4)]:
        assert (decoders._as_keys(decoders._syndrome_words(code, errors[:, :n] ^ word)) == keys).all()


def test_mld_certificate_margin_is_three_times_the_bound(monkeypatch):
    # Codeword hard decisions whose d least |r_i| sum to 2.5·bound go to
    # the screen, and those whose d least sum to 3.5·bound do not: the
    # margin covers the float64 error of LB and cost besides the 2·bound
    # gap.  The d tiny entries barely move bound, taken without them.
    code = get_code("golay-24-12")
    d, rng = code.d_known, np.random.default_rng(61)
    book = lexicographic_codebook(code)
    tx = bpsk(book[rng.integers(len(book), size=128)])
    block = tx * (0.5 + rng.random(tx.shape))
    each, tiny = np.arange(len(block))[:, np.newaxis], np.argsort(rng.random(tx.shape), axis=1)[:, :d]
    block[each, tiny] = 0
    share = np.where(each < 64, 2.5, 3.5) * decoders._rounding_bound(block)[:, np.newaxis] / d
    block[each, tiny] = tx[each, tiny] * share
    screened, exact = mld_scored_rows(monkeypatch)
    got = decode_batch(DecoderKind("mld"), code, block)
    assert (got == book[np.argmin(block @ book.T.astype(np.float64), axis=1)]).all()
    assert set(screened) == set(map(tuple, block[:64]))


def test_mld_certificate_covers_most_rows_at_4_db():
    # A guard on the certificate's reach: at 4 dB it proves nine Golay rows
    # in ten without scoring them.
    code = get_code("golay-24-12")
    block = sim_like(code, np.random.default_rng(60), 4.0, 4096)
    assert decoders._certified(code, block, decoders._rounding_bound(block))[1].mean() >= 0.9


def test_mld_scores_a_fixed_number_of_rows_at_a_time():
    # At 0 dB most rows reach the float32 screen; it scores them _MLD_ROWS
    # at a time against half the codebook (0.5 MB on golay-24-12), not all
    # 2,048 at once (16 MB), and the block's other working arrays take about
    # 1.5 MB.
    code = get_code("golay-24-12")
    block = sim_like(code, np.random.default_rng(48), 0.0, 2048)
    book = lexicographic_codebook(code)
    want = book[np.argmin(block @ book.T.astype(np.float64), axis=1)]
    decode_batch(DecoderKind("mld"), code, block[:1])  # the codebook, cached
    tracemalloc.start()
    try:
        got = decode_batch(DecoderKind("mld"), code, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got == want).all()
    assert decoders._MLD_ROWS * len(decoders._codebook(code)[1]) * 4 <= 1 << 19 and peak < 4 << 20


def test_mld_float64_fallback_scores_a_fixed_number_of_rows_at_a_time():
    # Dyadic rows tie often, and every tied row falls back to float64.  The
    # fallback also scores _MLD_ROWS rows at a time (2 MB on golay-24-12),
    # next to the codebook's float64 image (0.8 MB), not every tied row at
    # once (27 MB here).
    code = get_code("golay-24-12")
    block = np.random.default_rng(54).integers(-2, 3, size=(2048, code.n)) / 2.0
    book = lexicographic_codebook(code)
    scores = block @ book.T.astype(np.float64)  # exact: the entries are dyadic
    want = book[np.argmin(scores, axis=1)]
    tied = ((scores == scores.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum()
    del scores
    decode_batch(DecoderKind("mld"), code, block[:1])  # the codebook, cached
    tracemalloc.start()
    try:
        got = decode_batch(DecoderKind("mld"), code, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got == want).all()
    assert tied > 800 and peak < 6 << 20


def scaled_ints(values, scale=2 ** 1100):
    """Each float of values times scale, exactly, as Python ints: every
    float64 and its half is a whole multiple of 2^-1075."""
    return np.array([int(Fraction(float(v)) * scale) for v in np.ravel(values)],
                    dtype=object).reshape(np.shape(values))


def assert_within_bound(bound, exact, *computed):
    """Every computed score errs from the exact one (both scaled_ints) by
    less than bound in total."""
    error = sum(abs(scaled_ints(scores) - exact) for scores in computed)
    assert (error < scaled_ints(bound)).all()


def soundness_rows(code, rng):
    """Gaussian rows, rows near 2^100, and rows of entries from 2^-160 to
    2^-135, float32 subnormals and below, where the bound's 2^-126 term
    dominates."""
    yield from rng.normal(size=(3, code.n))
    yield from rng.normal(size=(2, code.n)) * 2.0 ** 100
    yield from rng.normal(size=(2, code.n)) * 2.0 ** rng.integers(-160, -135, size=(2, code.n))


def test_rounding_bound_is_sound():
    # The float32 plus the float64 error of every MLD codeword score, of
    # every +-1 correlation of the MLD screen and its negation, and of every
    # OSD flip-pattern score up to order 2, against exact sums.
    rng = np.random.default_rng(56)
    golay = get_code("golay-24-12")
    book = lexicographic_codebook(golay)
    for r in soundness_rows(golay, rng):
        bound = decoders._rounding_bound(r[np.newaxis])[0]
        assert_within_bound(bound, book.astype(object) @ scaled_ints(r),
                            r.astype(np.float32) @ book.T.astype(np.float32), r @ book.T.astype(np.float64))
        assert_pm1_correlations_within_bound(bound, book, r)
    bch = get_code("bch-127-50")
    patterns = [_pattern_indices(bch.k, t) for t in range(3)]
    for r in soundness_rows(bch, rng):
        bound = decoders._rounding_bound(r[np.newaxis])[0]
        # The terms of _reprocess: flip gains |r_j| on the MRB, and r/2
        # times the sign of the base codeword on the redundancy positions.
        rank_order, R, mrb = reference_mrb(bch, r)
        red = np.setdiff1d(np.arange(bch.n), mrb)
        r_perm = r[rank_order]
        base = ((r_perm[mrb] < 0).astype(np.uint8) @ R) & 1
        half, gains = np.where(base[red] == 1, 1, -1), np.abs(r_perm[mrb])
        sigma = np.concatenate([(1 - 2 * R[:, red].astype(np.int64))[p].prod(axis=1) for p in patterns])
        exact = sigma.astype(object) @ (scaled_ints(r_perm[red]) * half // 2)
        exact += np.concatenate([scaled_ints(gains)[p].sum(axis=1) for p in patterns])
        computed = [sigma.astype(dtype) @ (r_perm[red].astype(dtype) * (half / 2).astype(dtype))
                    + np.concatenate([gains.astype(dtype)[p].sum(axis=1) for p in patterns])
                    for dtype in (np.float32, np.float64)]
        assert_within_bound(bound, exact, *computed)
    short = mld_code(SHORT_BCH)
    for r in soundness_rows(short, rng):
        assert_pm1_correlations_within_bound(decoders._rounding_bound(r[np.newaxis])[0],
                                             lexicographic_codebook(short), r)


def exact_correlations(words, r):
    """The correlation words @ r of every 0/1 row of words, exactly, as
    Python ints in units of the finest power of two among r's entries (the
    scale, returned too): the integers are summed in 30-bit limbs of int64."""
    scale = max(Fraction(float(v)).denominator for v in r)
    ints = [int(Fraction(float(v)) * scale) for v in r]
    limbs = max(abs(v) for v in ints).bit_length() // 30 + 1
    words = words.astype(np.int64)
    total = np.zeros(len(words), dtype=object)
    for at in range(limbs):
        limb = np.array([(abs(v) >> 30 * at & (1 << 30) - 1) * (1 if v >= 0 else -1) for v in ints])
        total += (words @ limb).astype(object) * (1 << 30 * at)
    return total, scale


@pytest.mark.parametrize("name", ["bch-127-50", "bch-130-66"])
def test_osd_kernel_gaps_are_sound(name):
    # The order-3 kernel's own float32 and float64 scores, flip gains summed
    # in the band product's order: its winner scores within 2·bound of the
    # exact least correlation, and its gap lies within 2·bound of the exact
    # gap from the least to the second least.
    code = get_code(name)
    rng = np.random.default_rng([57, code.n])
    for r in soundness_rows(code, rng):
        bound = Fraction(decoders._rounding_bound(r[np.newaxis])[0])
        rank_order, R, mrb = reference_mrb(code, r)
        red = np.setdiff1d(np.arange(code.n), mrb)
        r_perm = r[rank_order]
        base = ((r_perm[mrb] < 0).astype(np.uint8) @ R) & 1
        patterns = [p for t in range(4) for p in combinations(range(code.k), t)]
        flips = np.zeros((len(patterns), code.k), dtype=np.uint8)
        for i, p in enumerate(patterns):
            flips[i, list(p)] = 1
        exact, scale = exact_correlations(base ^ (flips @ R & 1), r_perm)
        least, at = min(exact), int(np.argmin(exact))
        gap = Fraction(min(np.delete(exact, at)) - least, scale)
        parts = (R[:, red].T[np.newaxis], r_perm[red][np.newaxis], base[red][np.newaxis], r_perm[mrb][np.newaxis])
        for dtype in (np.float32, np.float64):
            won, kernel_gap = decoders._reprocess(parts, np.arange(1), 3, dtype)
            winner = patterns.index(tuple(np.flatnonzero(won[0])))
            assert Fraction(exact[winner] - least, scale) <= 2 * bound, dtype
            assert abs(Fraction(float(kernel_gap[0])) - gap) <= 2 * bound, dtype


def assert_pm1_correlations_within_bound(bound, book, r):
    """The +-1 correlations r·(1 - 2c) of every codeword c of book, and their
    negations, scored in float32 and in float64, err within bound."""
    sigma = 1 - 2 * book.astype(np.int64)
    exact = sigma.astype(object) @ scaled_ints(r)
    computed = r.astype(np.float32) @ sigma.T.astype(np.float32), r @ sigma.T.astype(np.float64)
    assert_within_bound(bound, exact, *computed)
    assert_within_bound(bound, -exact, *(-rho for rho in computed))


@pytest.mark.parametrize("k,t", [(2, 2), (4, 2), (5, 2), (6, 3), (7, 4), (5, 5)])
@pytest.mark.parametrize("B", [1, 4, 64, 1 << 20])
def test_bands_score_each_pattern_once_in_order(k, t, B):
    # Every weight-t pattern is one unmasked entry of one band, the unmasked
    # entries of a band run in lexicographic order, and the tables that
    # decode a band's entries list each band's m range and heads.
    rank = {p: i for i, p in enumerate(combinations(range(k), t))}
    bands, table, all_heads = _bands(k, t, B)
    seen, offset = [], 0
    for (m0, m1, heads, row_mask, col_mask), row in zip(bands, table):
        heads = _pattern_indices(k, t - 2)[heads]
        assert row.tolist() == [m0, m1, offset]
        assert (all_heads[offset:offset + len(heads)] == heads).all()
        offset += len(heads)
        entries = [(*h, m, l) for h in heads.tolist()
                   for m in range(m0, m1) for l in range(m0 + 1, k)]
        mask = (np.zeros(len(entries)) if row_mask is None
                else (row_mask[:, :, None] + col_mask).ravel())
        assert set(np.unique(mask)) <= {0.0, np.inf}
        ranks = [rank.get(p) for p, masked in zip(entries, mask) if not masked]
        assert None not in ranks and ranks == sorted(ranks)
        seen += ranks
    assert sorted(seen) == list(range(len(rank)))
    if B == 1 << 20:
        assert len(bands) == k - t + 1  # a large block scores each group alone


def test_both_paths_reprocess_by_bands(monkeypatch):
    # With every band entry masked, orders 2 and 3 never win and osd:3
    # decodes as osd:1: on one row (gf2.rref per row) and on a block (block
    # elimination).
    code = get_code("bch-127-50")
    received = np.array(list(harvest_like(code, np.random.default_rng(40), 2 * BLOCK_ELIMINATION_MIN)))
    order1 = decode_batch(DecoderKind("osd", 1), code, received)
    order3 = decode_batch(DecoderKind("osd", 3), code, received)
    assert (order3 != order1).any()

    def masked(k, t, B):
        bands, *tables = _bands(k, t, B)
        rows = [len(_pattern_indices(k, t - 2)[heads]) for _, _, heads, *_ in bands]
        return tuple((m0, m1, heads, np.full((h, m1 - m0), np.inf), np.zeros((m1 - m0, k - 1 - m0)))
                     for (m0, m1, heads, *_), h in zip(bands, rows)), *tables

    monkeypatch.setattr(decoders, "_bands", masked)
    assert (decode_batch(DecoderKind("osd", 3), code, received) == order1).all()
    for r, row in zip(received[:3], bits_to_ints(order1)):
        assert osd_decode(code, r, 3).value == row


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
    for word in bits_to_ints(decode_batch(DecoderKind("osd", 3), shortened, received)):
        assert contains(shortened, word)


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
        for r, row in zip(received[:4], bits_to_ints(one)):
            assert decode(kind, code, r).value == row


@pytest.mark.parametrize("name", ["bch-127-50", "bch-130-66"])
def test_osd3_blocks_equal_one_row_decodes_across_chunk_boundaries(monkeypatch, name):
    # A block is cut into max(1, round(B / step)) near-equal chunks: one up
    # to 1.5·step rows, two just past it; every cut decodes as its rows one
    # at a time.
    code, kind = get_code(name), DecoderKind("osd", 3)
    step = decoders._chunk_step(code.k, code.n, 3)
    rng = np.random.default_rng([45, code.n])
    received = np.array([*harvest_like(code, rng, 88), *tie_heavy(code, rng, 4)])
    one = np.array([decode_batch(kind, code, r[np.newaxis])[0] for r in received])
    chunks, reprocess = [], decoders._reprocess

    def recorded(parts, rows, order, dtype):
        if dtype == np.float32:
            chunks.append(len(rows))
        return reprocess(parts, rows, order, dtype)

    monkeypatch.setattr(decoders, "_reprocess", recorded)
    for size in (step - 1, step, step + 1, 3 * step // 2 + 1, 100):
        del chunks[:]
        assert (decode_batch(kind, code, received[:size]) == one[:size]).all(), size
        assert len(chunks) == max(1, round(size / step)) and max(chunks) - min(chunks) <= 1, size
    assert chunks == [50, 50]


@pytest.mark.parametrize("name", ["bch-127-50", "bch-130-66", "golay-24-12"])
def test_block_elimination_equals_gf2_rref(name):
    code = get_code(name)
    rng = np.random.default_rng([42, code.n])
    received = np.array([*harvest_like(code, rng, 40), *tie_heavy(code, rng, 8)])
    rank_order = np.argsort(-np.abs(received), axis=1, kind="stable")
    ranked = np.take(code.systematic.generator_bits, rank_order, axis=1).transpose(1, 0, 2)
    R_bits, pivots = _eliminate_block(ranked)
    for b in range(len(received)):
        R, want = rref(bits_to_ints(ranked[b]), code.n)
        assert len(want) == code.k
        assert pivots[b].tolist() == want
        assert (R_bits[b] == ints_to_bits(R, code.n)).all()
