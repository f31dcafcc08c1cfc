"""Continued fractions and rational reconstruction.

The headline check: for every x/N with N <= 512, the convergent list equals
the strictly-improving records of |q*(x/N) - p| — the brute-force definition
of best rational approximation, computed with exact integer arithmetic and
no reference to the Euclidean recurrences under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsplab.postprocess import best_denominator_bounded
from dense_reference import continued_fractions


def test_zero_numerator():
    assert continued_fractions(0, 7).convergents == (Fraction(0),)


def test_one_half():
    assert continued_fractions(1, 2).convergents == (Fraction(0), Fraction(1, 2))


def test_three_eighths():
    got = continued_fractions(3, 8).convergents
    assert got == (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(3, 8))


def test_convergent_invariants():
    for x, n in ((5, 8), (7, 12), (355, 512), (1, 101)):
        conv = continued_fractions(x, n).convergents
        assert conv[-1] == Fraction(x, n)
        dens = [c.denominator for c in conv]
        assert dens == sorted(set(dens))  # strictly increasing
        for c in conv:
            assert math.gcd(c.numerator, c.denominator) == 1


def test_input_validation():
    with pytest.raises(ValueError):
        continued_fractions(3, 0)
    with pytest.raises(ValueError):
        continued_fractions(-1, 4)


def test_convergents_are_exactly_the_approximation_records():
    """Exhaustive N <= 512. A fraction p/q is recorded when |q*x/N - p| is
    strictly smaller than the error of every smaller denominator; the record
    set must coincide with the convergent list, no exceptions."""
    for n in range(1, 513):
        xs = np.arange(n + 1, dtype=np.int64)
        expected = np.zeros((n + 1, n + 1), dtype=bool)
        for x in range(n + 1):
            for c in continued_fractions(x, n).convergents:
                expected[x, c.denominator] = True
        best = np.full(n + 1, np.iinfo(np.int64).max, dtype=np.int64)
        for q in range(1, n + 1):
            r = (q * xs) % n
            err = np.minimum(r, n - r)  # N*q*|x/N - round(q x / N)/q|
            improved = err < best
            np.minimum(best, err, out=best)
            assert np.array_equal(improved, expected[:, q]), (n, q)


def test_best_denominator_examples():
    assert best_denominator_bounded(3, 8, 4) == Fraction(1, 3)
    assert best_denominator_bounded(5, 8, 8) == Fraction(5, 8)
    assert best_denominator_bounded(0, 9, 5) == Fraction(0)


def test_best_denominator_validation():
    with pytest.raises(ValueError):
        best_denominator_bounded(1, 4, 0)


def test_best_denominator_uniqueness_window():
    """With N = 2^l, l = ceil(2*log2(r)) + 1, the rounded estimate of k/r
    always decodes back to k/r — the uniqueness guarantee the solvers lean on."""
    for r in range(1, 33):
        l = math.ceil(2 * math.log2(r)) + 1 if r > 1 else 1
        n = 2**l
        for k in range(r):
            x = round(n * k / r) % n
            assert best_denominator_bounded(x, n, r) == Fraction(k, r)


@st.composite
def _fractions_and_bounds(draw):
    n = draw(st.integers(1, 2**130))
    x = draw(st.one_of(st.integers(0, n), st.sampled_from((0, n, n - 1, n // 2 + 1))))
    bound = draw(st.integers(1, 2 ** draw(st.integers(0, n.bit_length() + 1))))
    return x, n, bound


@settings(max_examples=400)
@given(_fractions_and_bounds())
@example((0, 7, 1))
@example((7, 7, 1))
@example((2, 3, 1))  # 0/1 then 1/1: the equal-denominator pair
@example((5, 8, 2))
@example((2**130 - 1, 2**130, 2**131))
def test_best_denominator_is_the_last_reference_convergent_within_the_bound(case):
    x, n, bound = case
    expected = [c for c in continued_fractions(x, n).convergents if c.denominator <= bound][-1]
    got = best_denominator_bounded(x, n, bound)
    assert type(got) is Fraction
    assert got == expected and got.denominator == expected.denominator
