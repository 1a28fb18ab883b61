"""Bit-packed GF(2) words, polynomials, and matrices."""

import numpy as np
import pytest

from pwe.gf2 import (
    BitWord,
    GF2Matrix,
    GF2Poly,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mul,
    rref,
    x_n_plus_1,
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


def test_poly_squaring_in_characteristic_two():
    one_plus_x = GF2Poly.from_exponents([0, 1])
    assert poly_mul(one_plus_x, one_plus_x) == GF2Poly.from_exponents([0, 2])


def test_poly_mul_identity():
    g = GF2Poly.from_exponents([0, 3, 5, 9])
    assert poly_mul(g, GF2Poly.one()) == g


def test_hamming_generator_divides_x7_plus_1():
    g = GF2Poly.from_exponents([0, 1, 3])
    h = GF2Poly.from_exponents([0, 1, 2, 4])
    assert poly_mul(g, h) == GF2Poly.from_exponents([0, 7])
    assert poly_mod(x_n_plus_1(7), g).is_zero()


def test_poly_mul_against_schoolbook_oracle():
    rng = np.random.default_rng(12)
    for _ in range(200):
        a = int(rng.integers(0, 1 << 24))
        b = int(rng.integers(0, 1 << 24))
        assert poly_mul(GF2Poly(a), GF2Poly(b)).value == school_mul(a, b)


def test_divmod_recomposition_and_degree():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a = GF2Poly(int(rng.integers(0, 1 << 30)))
        b = GF2Poly(int(rng.integers(1, 1 << 15)))
        q, r = poly_divmod(a, b)
        assert (poly_mul(q, b) + r) == a
        assert r.is_zero() or r.degree < b.degree
    g = GF2Poly.from_exponents([0, 2, 5])
    assert poly_divmod(g, g)[1].is_zero()


def test_divmod_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(GF2Poly.one(), GF2Poly.zero())


def test_gcd_divides_both_arguments():
    rng = np.random.default_rng(14)
    for _ in range(200):
        a = GF2Poly(int(rng.integers(1, 1 << 20)))
        b = GF2Poly(int(rng.integers(1, 1 << 20)))
        g = poly_gcd(a, b)
        assert poly_mod(a, g).is_zero()
        assert poly_mod(b, g).is_zero()


def test_zero_polynomial_degree_is_none():
    assert GF2Poly.zero().degree is None
    assert GF2Poly.one().degree == 0


def test_rref_idempotence_and_rank():
    rng = np.random.default_rng(15)
    for _ in range(50):
        M = GF2Matrix(tuple(int(rng.integers(0, 1 << 10)) for _ in range(6)), 10)
        R, rank, pivots = rref(M)
        R2, rank2, pivots2 = rref(R)
        assert R2 == R and rank2 == rank and pivots2 == pivots
        assert rank <= min(6, 10)
        assert len(pivots) == rank
