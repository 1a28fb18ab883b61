"""Union bounds and curve containers."""

import dataclasses

import pytest

from pwe.bounds import (
    BoundCurve,
    RateContext,
    bound_curve,
    q_function,
    union_bound_bit,
    union_bound_word,
)
from pwe.estimator import interval_from_stats, PartialWeightEnumerator

GOLAY = {8: 759, 12: 2576, 16: 759, 24: 1}
CTX = RateContext(24, 12)


# Q(x) to 40 digits (mpmath), deep into the tail the bounds reach.
Q_REFERENCE = {
    1: 0.1586552539314570514147674543679620775221,
    5: 2.866515718791939116737523328746453538544e-7,
    10: 7.619853024160526065973343251599308363504e-24,
    20: 2.753624118606233695075622780857465332807e-89,
    30: 4.906713927148187059533809256580190471997e-198,
}


def test_q_function_values():
    assert q_function(0.0) == 0.5
    for x, q in Q_REFERENCE.items():
        assert q_function(x) == pytest.approx(q, rel=1e-12)
    xs = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [q_function(x) for x in xs]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


def test_bounds_decrease_with_snr():
    vals = [union_bound_bit(GOLAY, CTX, db) for db in range(0, 10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    vals = [union_bound_word(GOLAY, CTX, db) for db in range(0, 10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_bit_bound_below_word_bound():
    for db in (0.0, 2.0, 4.0, 6.0):
        assert union_bound_bit(GOLAY, CTX, db) <= union_bound_word(GOLAY, CTX, db)


def test_adding_weight_classes_never_lowers_the_bound():
    partial = {8: 759}
    for db in (1.0, 3.0, 5.0):
        assert union_bound_bit(partial, CTX, db) <= union_bound_bit(GOLAY, CTX, db)


def test_weight_zero_is_rejected():
    with pytest.raises(ValueError):
        union_bound_bit({0: 1, 8: 759}, CTX, 3.0)


def test_iteration_order_does_not_matter():
    shuffled = {16: 759, 8: 759, 24: 1, 12: 2576}
    for db in (0.0, 2.5, 5.0):
        assert union_bound_bit(shuffled, CTX, db) == union_bound_bit(GOLAY, CTX, db)


def make_pwe():
    e8 = dataclasses.replace(interval_from_stats(700, 700 / 759, 0.01, 50), w=8)
    e12 = dataclasses.replace(interval_from_stats(2500, 2500 / 2576, 0.01, 50), w=12)
    return PartialWeightEnumerator("golay-24-12", (e8, e12))


def test_truncated_bound_brackets_the_estimate():
    pwe = make_pwe()
    curve = bound_curve(pwe, CTX, [2.0, 4.0], kind="truncated_bound")
    estimates = {e.w: e.count_estimate for e in pwe.entries}
    for (db, value), (lo, hi) in zip(curve.points, curve.intervals):
        assert lo <= value <= hi
        assert union_bound_bit(estimates, CTX, db) == value
    with pytest.raises(ValueError):
        bound_curve(PartialWeightEnumerator("golay-24-12", ()), CTX, [2.0], kind="truncated_bound")


def test_bound_curve_kinds_and_grid_validation():
    curve = bound_curve(GOLAY, CTX, [1.0, 2.0, 3.0], kind="bit_bound")
    assert curve.kind == "bit_bound"
    assert curve.values() == [union_bound_bit(GOLAY, CTX, db) for db in (1, 2, 3)]
    word = bound_curve(GOLAY, CTX, [1.0, 2.0], kind="word_bound")
    assert word.values()[0] >= curve.values()[0]
    trunc = bound_curve(make_pwe(), CTX, [2.0, 3.0], kind="truncated_bound")
    assert trunc.intervals is not None and len(trunc.intervals) == 2
    with pytest.raises(ValueError):
        bound_curve(GOLAY, CTX, [], kind="bit_bound")
    with pytest.raises(ValueError):
        bound_curve(GOLAY, CTX, [1.0], kind="sphere")


def test_bound_curve_container_validation():
    with pytest.raises(ValueError):
        BoundCurve("bit_bound", ((2.0, 0.1), (1.0, 0.2)))  # non-increasing grid
    with pytest.raises(ValueError):
        BoundCurve("guess", ((1.0, 0.1),))
    with pytest.raises(ValueError):
        BoundCurve("bit_bound", ((1.0, 0.1),), intervals=((0.1, 0.2), (0.3, 0.4)))


def test_rate_context_validation():
    assert RateContext(24, 12).rate == 0.5
    with pytest.raises(ValueError):
        RateContext(10, 0)
    with pytest.raises(ValueError):
        RateContext(10, 11)
