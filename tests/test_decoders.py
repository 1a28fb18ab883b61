"""MLD and ordered-statistics decoding."""

import hashlib

import numpy as np
import pytest

from pwe.bitops import bpsk, int_to_bits
from pwe.codes import contains, encode, get_code, iter_codewords
from pwe.decoders import (
    DecoderKind,
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
