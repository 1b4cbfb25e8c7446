"""Coefficient sequences of the two odd power series behind the ratio
functions, exact ratio-monotonicity verdicts, truncated-series quotients,
and the bisection solver for the (p+1)^(1/p) = 2*log(1+sqrt(2)) root.

Both series pairs share the factor t^(2n+1), which cancels in the quotient;
the quotients here are therefore polynomials in t^2 divided termwise, which
also makes them exact at t = 0 (first-coefficient ratio).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum, unique
from fractions import Fraction

from .exceptions import EvaluationError, check_int, check_real, check_type

__all__ = [
    "CoefficientKind",
    "Direction",
    "MonotonicityVerdict",
    "coefficient_exact",
    "ratio_difference",
    "ratio_sequence_verdict",
    "truncated_quotient",
    "solve_p0",
]

@unique
class CoefficientKind(Enum):
    """The four coefficient sequences: A_n/B_n form the harmonic-quadratic
    quotient, C_n/D_n the harmonic-contraharmonic one.  Every coefficient is
    positive (C_n = (4^n (2n+1) - 2)/((2n+1)(2n)!)), so a denominator series
    in s = t^2 is never below its first coefficient, the least of which is
    A_1 = 1/3."""

    A = "A"  # 2n / ((2n+1) (2n)!)
    B = "B"  # (2^(2n-1) + 1) / (2n)!
    C = "C"  # 2^(2n)/(2n)! - 2/(2n+1)!
    D = "D"  # 2^(2n+1) / (2n)!


def coefficient_exact(kind: CoefficientKind, n: int) -> Fraction:
    """Exact rational value of the n-th coefficient."""
    check_type("coefficient kind", kind, CoefficientKind)
    check_int("coefficient index n", n, 1)
    fact = math.factorial(2 * n)
    if kind is CoefficientKind.A:
        return Fraction(2 * n, (2 * n + 1) * fact)
    if kind is CoefficientKind.B:
        return Fraction(2 ** (2 * n - 1) + 1, fact)
    if kind is CoefficientKind.C:
        return Fraction(2 ** (2 * n), fact) - Fraction(2, fact * (2 * n + 1))
    return Fraction(2 ** (2 * n + 1), fact)  # D


def ratio_difference(numerator_kind: CoefficientKind, denominator_kind: CoefficientKind,
                     n: int) -> Fraction:
    """Exact consecutive-ratio difference r_(n+1) - r_n of the coefficient
    ratio sequence r_n = num_n / den_n."""
    r_n = coefficient_exact(numerator_kind, n) / coefficient_exact(denominator_kind, n)
    r_next = coefficient_exact(numerator_kind, n + 1) / coefficient_exact(denominator_kind, n + 1)
    return r_next - r_n


@unique
class Direction(Enum):
    STRICTLY_INCREASING = "strictly-increasing"
    STRICTLY_DECREASING = "strictly-decreasing"
    NOT_MONOTONE = "not-monotone"


@dataclass(frozen=True)
class MonotonicityVerdict:
    direction: Direction
    checked_up_to: int
    first_violation: int | None = None


def ratio_sequence_verdict(numerator_kind: CoefficientKind,
                           denominator_kind: CoefficientKind,
                           N: int) -> MonotonicityVerdict:
    """Strict monotonicity verdict for the ratio sequence over n = 1..N.

    All comparisons are exact rational arithmetic: binary64 cannot even
    represent the C/D ratio differences (~4^-n around 1/2) past n ~ 26, so
    no floating comparison is used at any index.
    """
    check_int("number of terms N", N, 2)
    ratios = [coefficient_exact(numerator_kind, n) / coefficient_exact(denominator_kind, n)
              for n in range(1, N + 1)]
    signs = []
    for n in range(N - 1):
        d = ratios[n + 1] - ratios[n]
        signs.append(0 if d == 0 else (1 if d > 0 else -1))
    # a zero first sign is a violation at 1, otherwise the first sign unlike it
    lead = signs[0]
    for i, s in enumerate(signs):
        if s != lead or s == 0:
            return MonotonicityVerdict(Direction.NOT_MONOTONE, N, first_violation=i + 1)
    direction = Direction.STRICTLY_INCREASING if lead > 0 else Direction.STRICTLY_DECREASING
    return MonotonicityVerdict(direction, N)


@functools.lru_cache(maxsize=32)
def _float_coefficients(kind: CoefficientKind, N: int) -> tuple[float, ...]:
    """The first N coefficients of a sequence, each correctly rounded from
    its exact value, cut before the first that underflows to 0.0: every
    sequence strictly decreases in n, so the rest would add exact zeros."""
    floats = (float(coefficient_exact(kind, n)) for n in range(1, N + 1))
    return tuple(itertools.takewhile(bool, floats))


def _horner(coeffs, s: float) -> float:
    """sum(c * s**k for k, c in enumerate(coeffs)), by Horner's rule."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def truncated_quotient(numerator_kind: CoefficientKind,
                       denominator_kind: CoefficientKind,
                       t: float, N: int = 40) -> float:
    """(sum_{n<=N} num_n t^(2n+1)) / (sum_{n<=N} den_n t^(2n+1)), with the
    common t^3 factor cancelled so t = 0 returns the first-coefficient
    ratio exactly."""
    # checked before the cached call, which would fail on an unhashable kind
    check_type("numerator kind", numerator_kind, CoefficientKind)
    check_type("denominator kind", denominator_kind, CoefficientKind)
    check_real("series argument t", t, -1.5, 1.5, lo_open=True, hi_open=True)
    check_int("number of terms N", N, 1)
    s = t * t
    return (_horner(_float_coefficients(numerator_kind, N), s)
            / _horner(_float_coefficients(denominator_kind, N), s))


def solve_p0(tolerance: float) -> float:
    """Bisection root of (p+1)^(1/p) = 2*log(1+sqrt(2)) on [1, 3]; the left
    side is strictly decreasing in p, from 2 at p = 1 to 4^(1/3) at p = 3,
    past the target 1.7627, so the root is inside and unique."""
    check_real("tolerance", tolerance, 0.0, math.inf, lo_open=True)
    target = 2.0 * math.log1p(math.sqrt(2.0))

    def residual(p: float) -> float:
        return (p + 1.0) ** (1.0 / p) - target

    lo, hi = 1.0, 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = residual(mid)
        if abs(r) < tolerance:
            return mid
        if r > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= math.ulp(lo):
            break
    mid = 0.5 * (lo + hi)
    if abs(residual(mid)) >= tolerance:
        raise EvaluationError("bisection stalled before reaching the requested tolerance")
    return mid
