"""Coefficient sequences of the two odd power series behind the ratio
functions, the exact Maclaurin series of asinh, asin, atanh and atan that the
mean kernels' small-gap branches are rounded from, exact ratio-monotonicity
verdicts, truncated-series quotients, and the bisection solver for the
(p+1)^(1/p) = 2*log(1+sqrt(2)) root.
Each coefficient is stated once, as integers; the factorial cancels in every
coefficient ratio, so the verdicts compare ratios by cross-multiplication.

Both series pairs share the factor t^(2n+1), which cancels in the quotient;
the quotients here are therefore polynomials in t^2 divided termwise, which
also makes them exact at t = 0 (first-coefficient ratio).
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import Enum, unique
from fractions import Fraction

from .exceptions import EvaluationError, Record, check_int, check_real, check_type

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
    positive, so a denominator series in s = t^2 is never below its first
    coefficient, the least of which is A_1 = 1/3."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"


# the largest coefficient index and term count, past which the checks raise
# DomainError: the exact HC verdict took about 1.3 s at 10,000 terms (shared
# 2-vCPU x86_64 VM), and math.factorial overflows past the C ssize_t range
_MAX_INDEX = 10_000


def _check_index(name: str, n, lo: int, hi: int) -> int:
    """n if it is an integer from lo to hi, checked against lo first, so
    that a value below lo is reported as not >= lo."""
    return check_int(name, check_int(name, n, lo), lo, hi)


def _parts(kind: CoefficientKind, n: int) -> tuple[int, int]:
    """The n-th coefficient as positive integers (u, w), c_n = u / (w (2n)!), so
    A_n/B_n = 2n/((2n+1)(2^(2n-1)+1)) and C_n/D_n = 1/2 - 1/((2n+1) 4^n) for all n."""
    if kind is CoefficientKind.A:
        return 2 * n, 2 * n + 1
    if kind is CoefficientKind.B:
        return 2 ** (2 * n - 1) + 1, 1
    if kind is CoefficientKind.C:  # 2^(2n)/(2n)! - 2/(2n+1)!
        return 4 ** n * (2 * n + 1) - 2, 2 * n + 1
    return 2 ** (2 * n + 1), 1  # D


def _maclaurin(f: str, terms: int) -> list[Fraction]:
    """The first terms exact coefficients of the series in s = x^2 of f(x)/x for f = asinh, asin,
    atanh or atan: the k-th is r^k (C(2k, k)/4^k if central, else 1) / (2k + 1)."""
    r, central = {"asinh": (-1, True), "asin": (1, True), "atanh": (1, False), "atan": (-1, False)}[f]
    return [Fraction(r**k * (math.comb(2 * k, k) if central else 4**k), 4**k * (2 * k + 1))
            for k in range(terms)]


def _ratio(num: CoefficientKind, den: CoefficientKind, n: int) -> tuple[int, int]:
    """r_n = num_n / den_n as positive integers (p, q), r_n = p / q."""
    (u1, w1), (u2, w2) = _parts(num, n), _parts(den, n)
    return u1 * w2, u2 * w1


def coefficient_exact(kind: CoefficientKind, n: int) -> Fraction:
    """Exact rational value of the n-th coefficient."""
    check_type("coefficient kind", kind, CoefficientKind)
    _check_index("coefficient index n", n, 1, _MAX_INDEX)
    u, w = _parts(kind, n)
    return Fraction(u, w * math.factorial(2 * n))


def ratio_difference(numerator_kind: CoefficientKind, denominator_kind: CoefficientKind,
                     n: int) -> Fraction:
    """Exact consecutive-ratio difference r_(n+1) - r_n of the coefficient
    ratio sequence r_n = num_n / den_n."""
    _check_index("coefficient index n", n, 1, _MAX_INDEX - 1)  # r_(n+1) reads index n + 1
    check_type("coefficient kind", numerator_kind, CoefficientKind)
    check_type("coefficient kind", denominator_kind, CoefficientKind)
    r_n, r_next = (Fraction(*_ratio(numerator_kind, denominator_kind, k)) for k in (n, n + 1))
    return r_next - r_n


@unique
class Direction(Enum):
    STRICTLY_INCREASING = "strictly-increasing"
    STRICTLY_DECREASING = "strictly-decreasing"
    NOT_MONOTONE = "not-monotone"


class MonotonicityVerdict(Record):
    direction: Direction
    checked_up_to: int
    first_violation: int | None = None


def ratio_sequence_verdict(numerator_kind: CoefficientKind,
                           denominator_kind: CoefficientKind,
                           N: int) -> MonotonicityVerdict:
    """Strict monotonicity verdict for the ratio sequence over n = 1..N.

    Binary64 cannot even represent the C/D ratio differences (~4^-n around
    1/2) past n ~ 26, so no floating comparison is used at any index: with
    (2n)! cancelled, r_n = p_n / q_n in integers, q_n > 0, and r_(n+1) - r_n
    has the sign of the cross product p_(n+1) q_n - p_n q_(n+1).
    """
    _check_index("number of terms N", N, 2, _MAX_INDEX)
    check_type("coefficient kind", numerator_kind, CoefficientKind)
    check_type("coefficient kind", denominator_kind, CoefficientKind)
    ratios = (_ratio(numerator_kind, denominator_kind, n) for n in range(1, N + 1))
    signs = (((d := p1 * q - p * q1) > 0) - (d < 0)
             for (p, q), (p1, q1) in itertools.pairwise(ratios))
    # a zero sign is a violation, and so is the first sign unlike the first
    lead = 0
    for n, sign in enumerate(signs, 1):
        lead = lead or sign
        if sign != lead or not sign:
            return MonotonicityVerdict(Direction.NOT_MONOTONE, N, first_violation=n)
    direction = Direction.STRICTLY_INCREASING if lead > 0 else Direction.STRICTLY_DECREASING
    return MonotonicityVerdict(direction, N)


@functools.lru_cache(maxsize=32)
def _float_coefficients(kind: CoefficientKind, N: int) -> tuple[float, ...]:
    """The first N coefficients of a sequence, each correctly rounded from
    its exact value, cut before the first that underflows to 0.0: every
    sequence strictly decreases in n, so the rest would add exact zeros."""
    floats = (u / (w * math.factorial(2 * n))
              for n in range(1, N + 1) for u, w in [_parts(kind, n)])
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
