"""The factorial-free series verdicts against the Fraction route they
replaced, kept here as the reference: every coefficient, ratio, ratio
difference and monotonicity verdict must equal the reference exactly, and
the arguments are checked in the same order with the same messages."""

import itertools
import math
import re
from fractions import Fraction

import pytest

from means_lab import DomainError
from means_lab import series
from means_lab.series import (
    CoefficientKind,
    Direction,
    MonotonicityVerdict,
    coefficient_exact,
    ratio_difference,
    ratio_sequence_verdict,
)

A, B, C, D = (CoefficientKind.A, CoefficientKind.B, CoefficientKind.C, CoefficientKind.D)
KIND_PAIRS = list(itertools.product(CoefficientKind, repeat=2))


# --- the reference: normalised Fractions with a (2n)! denominator ---

def _reference_coefficient(kind, n):
    fact = math.factorial(2 * n)
    if kind is A:
        return Fraction(2 * n, (2 * n + 1) * fact)
    if kind is B:
        return Fraction(2 ** (2 * n - 1) + 1, fact)
    if kind is C:
        return Fraction(2 ** (2 * n), fact) - Fraction(2, fact * (2 * n + 1))
    return Fraction(2 ** (2 * n + 1), fact)


def _reference_ratio(num, den, n):
    return _reference_coefficient(num, n) / _reference_coefficient(den, n)


def _reference_verdict(num, den, N):
    ratios = [_reference_ratio(num, den, n) for n in range(1, N + 1)]
    signs = []
    for n in range(N - 1):
        d = ratios[n + 1] - ratios[n]
        signs.append(0 if d == 0 else (1 if d > 0 else -1))
    lead = signs[0]
    for i, s in enumerate(signs):
        if s != lead or s == 0:
            return MonotonicityVerdict(Direction.NOT_MONOTONE, N, first_violation=i + 1)
    direction = Direction.STRICTLY_INCREASING if lead > 0 else Direction.STRICTLY_DECREASING
    return MonotonicityVerdict(direction, N)


@pytest.mark.parametrize("N", [2, 3, 10, 50, 200])
@pytest.mark.parametrize("num,den", KIND_PAIRS, ids=lambda k: k.value)
def test_verdict_equals_reference(num, den, N):
    assert ratio_sequence_verdict(num, den, N) == _reference_verdict(num, den, N)


@pytest.mark.parametrize("num,den", KIND_PAIRS, ids=lambda k: k.value)
def test_factorial_free_ratio_equals_coefficient_ratio(num, den):
    for n in range(1, 61):
        p, q = series._ratio(num, den, n)
        assert q > 0
        assert Fraction(p, q) == coefficient_exact(num, n) / coefficient_exact(den, n)
        assert Fraction(p, q) == _reference_ratio(num, den, n)


@pytest.mark.parametrize("kind", list(CoefficientKind), ids=lambda k: k.value)
def test_coefficients_equal_reference(kind):
    for n in range(1, 61):
        assert coefficient_exact(kind, n) == _reference_coefficient(kind, n)
    # the float table is the same bits as the reference rounded
    floats = series._float_coefficients(kind, 200)
    assert floats == tuple(itertools.takewhile(
        bool, (float(_reference_coefficient(kind, n)) for n in range(1, 201))))


@pytest.mark.parametrize("num,den", KIND_PAIRS, ids=lambda k: k.value)
def test_ratio_difference_equals_reference(num, den):
    for n in range(1, 61):
        assert ratio_difference(num, den, n) == (_reference_ratio(num, den, n + 1)
                                                 - _reference_ratio(num, den, n))


# --- argument checks: same order, same messages ---

def test_bad_terms_are_reported_before_a_bad_kind():
    with pytest.raises(DomainError, match=r"^number of terms N must be an integer >= 2, got 1$"):
        ratio_sequence_verdict("A", "B", 1)


@pytest.mark.parametrize("call,value", [
    (lambda: ratio_sequence_verdict(A, "B", 5), "B"),
    (lambda: ratio_sequence_verdict(A, None, 5), None),
    (lambda: ratio_difference("A", B, 3), "A"),
    (lambda: ratio_difference(A, "B", 3), "B"),
    (lambda: ratio_difference([1], B, 3), [1]),
], ids=["verdict-denominator", "verdict-denominator-None", "difference-numerator",
        "difference-denominator", "difference-unhashable"])
def test_bad_kind_names_coefficient_kind(call, value):
    message = f"^coefficient kind must be of type CoefficientKind, got {re.escape(repr(value))}$"
    with pytest.raises(DomainError, match=message):
        call()


def test_bad_index_is_reported_before_a_bad_denominator():
    with pytest.raises(DomainError, match=r"^coefficient index n must be an integer >= 1, got 0$"):
        ratio_difference(A, "B", 0)


def test_an_index_at_the_bound_is_reported_as_passed():
    # r_(n+1) reads coefficient n + 1, so n stops one below the index bound,
    # and the message names the n that was passed
    with pytest.raises(DomainError,
                       match=r"^coefficient index n must be an integer in \[1, 9999\], got 10000$"):
        ratio_difference(A, B, 10_000)
    assert ratio_difference(A, B, 9_999) == _reference_ratio(A, B, 10_000) - _reference_ratio(A, B, 9_999)
