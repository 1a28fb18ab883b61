"""MLD and ordered-statistics decoding."""

import hashlib
from itertools import combinations

import numpy as np
import pytest

from pwe.bitops import bpsk, int_to_bits
from pwe.codes import contains, encode, get_code, iter_codewords
from pwe.decoders import (
    DecoderKind,
    _pattern_indices,
    decode,
    euclidean_score,
    mld_decode,
    osd_decode,
    parse_decoder,
)
from pwe.gf2 import BitWord
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
