"""Bit-packed GF(2) words, polynomials (ints), matrix rows (ints), and the
GF(2) product of bit arrays."""

import numpy as np
import pytest

from pwe.bitops import gf2_matmul
from pwe.gf2 import (
    BitWord,
    poly_divmod,
    poly_exponents,
    poly_from_exponents,
    poly_gcd,
    poly_mul,
    rref,
)


def school_mul(a: int, b: int) -> int:
    """Carry-less schoolbook product used as an independent oracle."""
    acc = 0
    for i in range(b.bit_length()):
        if (b >> i) & 1:
            acc ^= a << i
    return acc


def test_bitword_range_check():
    assert BitWord(5, 0b01101).value == 13
    for length, value in ((4, 1 << 4), (4, -1), (-1, 0)):
        with pytest.raises(ValueError):
            BitWord(length, value)


def test_exponents_roundtrip():
    assert poly_from_exponents([5, 0, 3]) == 0b101001
    assert poly_exponents(0b101001) == [0, 3, 5]
    assert poly_from_exponents([]) == 0 and poly_exponents(0) == []
    with pytest.raises(ValueError):
        poly_from_exponents([0, -1])


def test_poly_squaring_in_characteristic_two():
    one_plus_x = poly_from_exponents([0, 1])
    assert poly_mul(one_plus_x, one_plus_x) == poly_from_exponents([0, 2])


def test_poly_mul_identity():
    g = poly_from_exponents([0, 3, 5, 9])
    assert poly_mul(g, 1) == g
    assert poly_mul(g, 0) == 0


def test_hamming_generator_divides_x7_plus_1():
    g = poly_from_exponents([0, 1, 3])
    h = poly_from_exponents([0, 1, 2, 4])
    assert poly_mul(g, h) == poly_from_exponents([0, 7])
    assert poly_divmod(1 << 7 | 1, g) == (h, 0)


def test_poly_mul_against_schoolbook_oracle():
    rng = np.random.default_rng(12)
    for _ in range(200):
        a = int(rng.integers(0, 1 << 24))
        b = int(rng.integers(0, 1 << 24))
        assert poly_mul(a, b) == school_mul(a, b)


def test_divmod_recomposition_and_degree():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a = int(rng.integers(0, 1 << 30))
        b = int(rng.integers(1, 1 << 15))
        q, r = poly_divmod(a, b)
        assert poly_mul(q, b) ^ r == a
        assert r.bit_length() < b.bit_length()
    g = poly_from_exponents([0, 2, 5])
    assert poly_divmod(g, g) == (1, 0)


def test_divmod_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(1, 0)


def test_polynomial_arithmetic_refusals():
    with pytest.raises(ValueError):
        poly_gcd(0, 0)
    for a, b in ((-1, 3), (3, -1)):
        with pytest.raises(ValueError):
            poly_mul(a, b)
        with pytest.raises(ValueError):
            poly_divmod(a, b)


def test_gcd_divides_both_arguments():
    rng = np.random.default_rng(14)
    for _ in range(200):
        a = int(rng.integers(1, 1 << 20))
        b = int(rng.integers(1, 1 << 20))
        g = poly_gcd(a, b)
        assert poly_divmod(a, g)[1] == 0
        assert poly_divmod(b, g)[1] == 0


def test_rref_idempotence_and_rank():
    rng = np.random.default_rng(15)
    for _ in range(50):
        rows = tuple(int(rng.integers(0, 1 << 10)) for _ in range(6))
        R, pivots = rref(rows, 10)
        assert rref(R, 10) == (R, pivots)
        assert len(pivots) <= min(6, 10)
        # Each pivot column holds a single 1, in its own row; the rows
        # below the rank are zero.
        for i, p in enumerate(pivots):
            assert [r >> p & 1 for r in R] == [int(j == i) for j in range(6)]
        assert not any(R[len(pivots):])


@pytest.mark.parametrize("a_shape,b_shape", [((40, 50), (50, 127)), ((7, 300), (300, 9)),
                                             ((3, 5, 300), (3, 300, 1)), ((4, 6, 11), (11, 2))],
                         ids=["2d", "2d-inner-300", "batched-inner-300", "batched-times-2d"])
def test_gf2_matmul_matches_int64_product(a_shape, b_shape):
    # An inner dimension of 300 sums past 255; float32 is exact below 2^24.
    rng = np.random.default_rng(16)
    a = rng.integers(0, 2, size=a_shape, dtype=np.uint8)
    b = rng.integers(0, 2, size=b_shape, dtype=np.uint8)
    got = gf2_matmul(a, b)
    assert got.dtype == np.uint8
    assert np.array_equal(got, (a.astype(np.int64) @ b.astype(np.int64)) & 1)
    ones = np.ones(a_shape, dtype=np.uint8)
    assert np.array_equal(gf2_matmul(ones, np.ones(b_shape, dtype=np.uint8)),
                          np.full(got.shape, a_shape[-1] & 1))
