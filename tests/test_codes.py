"""Code constructions, the catalog, and exhaustive enumeration."""

from collections import Counter

import numpy as np
import pytest

from pwe import codes
from pwe.codes import (
    _codeword_chunks,
    _weights,
    catalog,
    codeword_rows,
    codewords_of_weight,
    contains,
    cyclic_code,
    encode,
    exact_weight_distribution,
    extend_with_parity,
    get_code,
    packed_syndromes,
    qr_generator_polynomial,
    quadratic_residues,
    shorten,
)
from pwe.bitops import bits_to_ints, ints_to_bits
from pwe.gf2 import BitWord, poly_divmod, poly_from_exponents, rref

HAMMING_WE = {0: 1, 3: 7, 4: 7, 7: 1}


def naive_codewords(code):
    """Independent oracle: the encoding of every information word."""
    return [encode(code, BitWord(code.k, m)).value for m in range(2**code.k)]


def random_ints(rng, count, n):
    """count random words of n bits, drawn as rows of bits."""
    return bits_to_ints(rng.integers(0, 2, size=(count, n), dtype=np.uint8))


def wide_code():
    """An n = 67, k = 11 code, two 64-bit words wide."""
    return shorten(get_code("bch-127-71"), 60)


def test_hamming_weight_distribution():
    wd = exact_weight_distribution(get_code("hamming-7-4"))
    assert wd.as_dict() == HAMMING_WE
    assert sum(a for _, a in wd.counts) == 2**4


def test_minimum_distances():
    for name, d in (("hamming-7-4", 3), ("golay-24-12", 8), ("qr-23-12", 7)):
        counts = exact_weight_distribution(get_code(name)).counts
        assert min(w for w, _ in counts if w) == d, name


def test_catalog_rank_and_membership():
    for name, code in catalog().items():
        assert len(rref(code.generator_matrix.rows, code.n)[1]) == code.k, name
        for row in code.generator_matrix.rows:
            assert contains(code, row), name


def test_encode_extract_roundtrip():
    # encode -> contains -> the information bits read back at the
    # information positions give the word that was encoded.
    rng = np.random.default_rng(21)
    for name in ("hamming-7-4", "golay-24-12", "bch-127-50"):
        code = get_code(name)
        pos = code.systematic.info_positions
        for info in random_ints(rng, 50, code.k):
            word = encode(code, BitWord(code.k, info)).value
            assert contains(code, word), name
            assert sum((word >> p & 1) << i for i, p in enumerate(pos)) == info, name


def in_span(code, word):
    """Independent oracle: appending a codeword to G leaves its rank at k."""
    return len(rref(code.generator_matrix.rows + (word,), code.n)[1]) == code.k


def test_membership_rejects_non_codewords():
    code = get_code("hamming-7-4")
    members = set(naive_codewords(code))
    for value in range(2**7):
        assert contains(code, value) == (value in members)
    for bad in (1 << 7, -1):
        with pytest.raises(ValueError):
            contains(code, bad)
    # On every catalog code: random codewords, every one-bit flip of them,
    # and random words, against the row rule and the rank of G.
    rng = np.random.default_rng(25)
    for name, code in catalog().items():
        codewords = [encode(code, BitWord(code.k, v)).value for v in random_ints(rng, 2, code.k)]
        flips = [w ^ (1 << i) for w in codewords for i in range(code.n)]
        randoms = random_ints(rng, 20, code.n)
        words = codewords + flips + randoms
        member = [contains(code, w) for w in words]
        assert member[:len(codewords) + len(flips)] == [True] * len(codewords) + [False] * len(flips)
        assert member == codeword_rows(code, ints_to_bits(words, code.n)).tolist(), name
        assert member == [in_span(code, w) for w in words], name


def test_contains_agrees_with_in_span_on_low_weight_words():
    # Words of weight 0 to 3, words set only on information or only on
    # redundancy positions, low-weight codewords and random words, on every
    # catalog code, against the rank of G.
    rng = np.random.default_rng(26)
    for name, code in catalog().items():
        n, mask = code.n, sum(1 << p for p in code.systematic.info_positions)
        low = [0] + [1 << i for i in range(n)]
        low += [sum(1 << int(i) for i in rng.choice(n, size=w, replace=False))
                for w in (2, 3) for _ in range(50)]
        randoms = random_ints(rng, 50, n)
        words = low + [w & mask for w in randoms] + [w & ~mask for w in randoms] + randoms
        words += [encode(code, BitWord(code.k, 1 << i)).value for i in range(code.k)]
        member = [contains(code, w) for w in words]
        assert member == [in_span(code, w) for w in words], name
        assert sum(member) >= code.k + 1, name


def reference_syndromes(code, words):
    """Independent oracle: each word XOR the re-encoding of its information
    bits, an int64 product, read on the redundancy positions in order, as
    ints."""
    form = code.systematic
    bits = ints_to_bits(words, code.n).astype(np.int64)
    recoded = (bits[:, form.info_positions] @ form.generator_bits.astype(np.int64) + bits) % 2
    return bits_to_ints(np.delete(recoded, form.info_positions, axis=1).astype(np.uint8))


@pytest.mark.parametrize("name", sorted(catalog()))
def test_packed_syndromes_match_the_reencoding(name):
    # Codewords, their single-bit flips, random words, random words with
    # every bit of the last byte set (a partial byte when 8 does not divide
    # n), and every value of every byte alone, cut to n bits: each entry of
    # the table once.
    code = get_code(name)
    n, size = code.n, -(-code.n // 8)
    rng = np.random.default_rng([27, n])
    codewords = [encode(code, BitWord(code.k, v)).value for v in random_ints(rng, 4, code.k)]
    flips = [w ^ (1 << i) for w in codewords[:2] for i in range(n)]
    randoms = random_ints(rng, 20, n)
    last = [w | ((1 << n) - (1 << 8 * (size - 1))) for w in randoms]
    bytes_alone = [v << 8 * j & (1 << n) - 1 for j in range(size) for v in range(256)]
    words = codewords + flips + randoms + last + bytes_alone
    packed = np.frombuffer(b"".join(w.to_bytes(size, "little") for w in words), np.uint8)
    got = [int.from_bytes(row.tobytes(), "little")
           for row in packed_syndromes(code, packed.reshape(-1, size))]
    assert got == reference_syndromes(code, words)
    assert got[:len(codewords)] == [0] * len(codewords)
    assert 0 not in got[len(codewords):len(codewords) + len(flips)]


def test_exact_weight_distribution_of_a_wide_code_is_frozen():
    # BCH(127,71) shortened by 52 (n = 75, k = 19): two words wide, four
    # chunks; the counts the row-major enumerator gave.
    code = shorten(get_code("bch-127-71"), 52)
    assert exact_weight_distribution(code).as_dict() == {
        0: 1, 19: 8, 20: 25, 21: 20, 22: 106, 23: 99, 24: 493, 25: 682, 26: 1297, 27: 2554,
        28: 4270, 29: 7017, 30: 10839, 31: 15977, 32: 21121, 33: 28612, 34: 35057, 35: 41264,
        36: 46006, 37: 46852, 38: 47734, 39: 44923, 40: 40839, 41: 35079, 42: 28224, 43: 21962,
        44: 15587, 45: 10881, 46: 7035, 47: 4451, 48: 2544, 49: 1354, 50: 749, 51: 340, 52: 175,
        53: 62, 54: 30, 55: 6, 56: 10, 57: 1, 58: 1, 60: 1}


def gray_reference(code):
    """Codeword i is codeword i - 1 XOR the generator row at i's lowest set
    bit, from codeword 0 = 0: the reflected Gray order."""
    rows, word = code.generator_matrix.rows, 0
    yield word
    for i in range(1, 2**code.k):
        word ^= rows[(i & -i).bit_length() - 1]
        yield word


def test_gray_enumeration_matches_naive():
    # shorten(bch-127-71, 52): n = 75, k = 19, two words wide and four chunks.
    for code in (get_code("hamming-7-4"), get_code("golay-24-12"), get_code("qr-23-12"),
                 wide_code(), shorten(get_code("bch-127-71"), 52)):
        want = list(gray_reference(code))
        got = [int.from_bytes(row.tobytes(), "little")
               for chunk in _codeword_chunks(code) for row in chunk]
        assert got == want, code.name
        if code.k <= 12:
            assert sorted(got) == sorted(naive_codewords(code)), code.name
        weights = Counter(word.bit_count() for word in want)
        assert exact_weight_distribution(code).as_dict() == weights, code.name
        d = min(w for w in weights if w)
        assert codewords_of_weight(code, d) == [v for v in want if v.bit_count() == d], code.name


def gray_counts(code):
    """A_w of the full Gray enumeration, as an array over w = 0..n."""
    return sum(np.bincount(_weights(code, chunk), minlength=code.n + 1) for chunk in _codeword_chunks(code))


@pytest.mark.parametrize("name,closed", [("qr-47-24", True), ("golay-24-12", True), ("bch-127-71-52", False)])
def test_exact_weight_distribution_enumerates_half_a_code_with_all_ones(monkeypatch, name, closed):
    # qr-47-24 spans chunks, golay-24-12 one table; BCH(127,71) shortened by
    # 52 (n = 75, k = 19) lacks the all-ones word and enumerates in full.
    code = shorten(get_code("bch-127-71"), 52) if name == "bch-127-71-52" else get_code(name)
    want = gray_counts(code)
    enumerated = []

    def recorded(code, generators=None):
        for chunk in _codeword_chunks(code, generators):
            enumerated.append(len(chunk))
            yield chunk

    monkeypatch.setattr(codes, "_codeword_chunks", recorded)
    assert contains(code, (1 << code.n) - 1) == closed
    assert exact_weight_distribution(code).as_dict() == {w: int(a) for w, a in enumerate(want) if a}
    assert sum(enumerated) == 2 ** (code.k - closed)
    top = exact_weight_distribution(code, max_weight=code.n // 2).as_dict()
    assert top == {w: int(a) for w, a in enumerate(want[:code.n // 2 + 1]) if a}


def test_weight_distribution_sums_to_2k():
    codes = [get_code(name) for name in ("hamming-7-4", "qr-23-12", "golay-24-12", "qr-47-24")]
    for code in codes + [wide_code()]:
        assert sum(a for _, a in exact_weight_distribution(code).counts) == 2**code.k


def test_no_weights_below_known_distance():
    for name in ("golay-24-12", "qr-23-12", "qr-47-24"):
        code = get_code(name)
        wd = exact_weight_distribution(code).as_dict()
        low = [w for w in wd if 0 < w < code.d_known]
        assert low == [], name


def test_codewords_of_weight_agrees_with_distribution():
    code = get_code("golay-24-12")
    wd = exact_weight_distribution(code).as_dict()
    words = codewords_of_weight(code, 8)
    assert len(words) == wd[8] == 759
    assert all(v.bit_count() == 8 for v in words)


def test_cyclic_code_requires_divisor():
    with pytest.raises(ValueError):
        cyclic_code(poly_from_exponents([0, 2]), 7)  # (1+x)^2 ∤ x^7+1
    # The zero polynomial, a negative int, and degrees n and above.
    for g in (0, -1, -0b1011, 1 << 7 | 1, 0b1011 << 5):
        with pytest.raises(ValueError):
            cyclic_code(g, 7)
    assert cyclic_code(1, 7).k == 7  # degree 0: the whole space


def test_cyclic_closure_under_rotation():
    code = get_code("qr-23-12")
    rng = np.random.default_rng(22)
    for _ in range(100):
        v = encode(code, BitWord(code.k, int(rng.integers(0, 2**code.k)))).value
        rotated = ((v << 1) | (v >> (code.n - 1))) & ((1 << code.n) - 1)
        assert contains(code, rotated)


def test_shortened_words_lift_into_parent():
    # Shortening removes the parent's top coordinates, so a shortened word
    # lifts into its parent with its integer unchanged.
    code = get_code("bch-130-66")
    parent = code.parent
    assert (parent.n - code.n, parent.k - code.k) == (125, 125)
    rng = np.random.default_rng(23)
    for info in random_ints(rng, 200, code.k):
        assert contains(parent, encode(code, BitWord(code.k, info)).value)


def test_shorten_dimensions():
    parent = get_code("qr-23-12")
    short = shorten(parent, 3)
    assert (short.n, short.k) == (20, 9)
    with pytest.raises(ValueError):
        shorten(parent, 12)


def test_extended_golay_from_qr23():
    qr = get_code("qr-23-12")
    ext = extend_with_parity(qr)
    assert (ext.n, ext.k) == (24, 12)
    wd = exact_weight_distribution(ext).as_dict()
    assert all(w % 2 == 0 for w in wd)
    assert wd == exact_weight_distribution(get_code("golay-24-12")).as_dict()


def test_quadratic_residues_mod_23():
    assert quadratic_residues(23) == {1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18}


def test_qr_generator_polynomial_properties():
    # Every prime p ≡ ±1 (mod 8) below 200, from either branch of the rule.
    primes = [p for p in range(3, 200) if all(p % f for f in range(2, p))]
    lengths = [p for p in primes if p % 8 in (1, 7)]
    assert {p % 8 for p in lengths} == {1, 7} and len(lengths) == 20
    for p in lengths:
        g = qr_generator_polynomial(p)
        assert g.bit_length() - 1 == (p - 1) // 2, p
        assert poly_divmod(1 << p | 1, g)[1] == 0, p
    for p in (5, 13, 15):
        with pytest.raises(ValueError):
            qr_generator_polynomial(p)


def test_bch_63_39_generator_constant():
    code = get_code("bch-63-39")
    g = code.generator_poly
    assert g.bit_length() - 1 == 24
    assert poly_divmod(1 << 63 | 1, g)[1] == 0


def test_info_positions_are_systematic():
    # Encoding is systematic: a codeword carries its information word at the
    # information positions, bit i of the word at position i.
    rng = np.random.default_rng(24)
    for name, code in catalog().items():
        pos = code.systematic.info_positions
        assert len(pos) == len(set(pos)) == code.k, name
        # The identity on the information set, then random combinations.
        for info in [1 << i for i in range(code.k)] + random_ints(rng, 20, code.k):
            word = encode(code, BitWord(code.k, info)).value
            assert contains(code, word), name
            assert sum((word >> p & 1) << i for i, p in enumerate(pos)) == info, name


class NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} called: the enumeration started")


def test_exhaustive_cap_refuses_qr_71_36(monkeypatch):
    code = get_code("qr-71-36")  # k = 36
    monkeypatch.setattr("pwe.codes.np", NoNumpy())
    with pytest.raises(ValueError, match="k <= 26"):
        exact_weight_distribution(code)
    with pytest.raises(ValueError, match="k <= 26"):
        codewords_of_weight(code, 11)
