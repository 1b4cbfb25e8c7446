import math
from fractions import Fraction

import pytest

from means_lab import means
from means_lab import (
    CoefficientKind,
    Direction,
    DomainError,
    MeanFamily,
    coefficient_exact,
    phi_hc,
    phi_hq,
    ratio_difference,
    ratio_sequence_verdict,
    solve_p0,
    truncated_quotient,
)
from means_lab.series import _float_coefficients

A, B, C, D = (CoefficientKind.A, CoefficientKind.B, CoefficientKind.C, CoefficientKind.D)


class TestCoefficients:
    def test_first_values(self):
        assert coefficient_exact(A, 1) == Fraction(1, 3)
        assert coefficient_exact(B, 1) == Fraction(3, 2)
        assert coefficient_exact(C, 1) == Fraction(5, 3)
        assert coefficient_exact(D, 1) == Fraction(4)
        assert coefficient_exact(C, 1) / coefficient_exact(D, 1) == Fraction(5, 12)

    def test_exact_formulas(self):
        for n in range(1, 21):
            f = math.factorial(2 * n)
            assert coefficient_exact(A, n) == Fraction(2 * n, (2 * n + 1) * f)
            assert coefficient_exact(B, n) == Fraction(2 ** (2 * n - 1) + 1, f)
            assert coefficient_exact(D, n) == Fraction(2 ** (2 * n + 1), f)

    def test_positive(self):
        for kind in (A, B, C, D):
            for n in range(1, 30):
                assert coefficient_exact(kind, n) > 0

    def test_float_coefficients_are_the_rounded_exact_values(self):
        # past n ~ 100 every coefficient underflows; the returned prefix is the
        # rounded exact values, and every coefficient it leaves out rounds to 0.0
        for kind in (A, B, C, D):
            coeffs = _float_coefficients(kind, 150)
            assert coeffs == tuple(float(coefficient_exact(kind, n))
                                   for n in range(1, len(coeffs) + 1))
            assert all(float(coefficient_exact(kind, n)) == 0.0
                       for n in range(len(coeffs) + 1, 151))

    def test_float_coefficients_stop_at_the_first_underflow(self):
        # once padded with zeros to N entries: N = 10**6 took seconds and
        # tens of MB, and every entry past the 88th was 0.0
        assert len(_float_coefficients(A, 10**6)) == 88
        assert truncated_quotient(A, B, 0.5, 10**6) == truncated_quotient(A, B, 0.5, 200)

    def test_bad_index(self):
        for n in (0, -1, 1.5, "2"):
            with pytest.raises(DomainError):
                coefficient_exact(A, n)


class TestRatioIdentities:
    def test_hq_difference_closed_form(self):
        # r_{n+1} - r_n = [2 + (2 - 18n - 12n^2) 2^(2n-1)] /
        #                 [(2n+1)(2n+3)(2^(2n-1)+1)(2^(2n+1)+1)]
        for n in range(1, 11):
            expected = Fraction(
                2 + (2 - 18 * n - 12 * n * n) * 2 ** (2 * n - 1),
                (2 * n + 1) * (2 * n + 3) * (2 ** (2 * n - 1) + 1) * (2 ** (2 * n + 1) + 1),
            )
            assert ratio_difference(A, B, n) == expected
            assert expected < 0

    def test_hc_ratio_closed_form(self):
        # c_n/d_n = 1/2 - 1/((2n+1) 4^n)
        for n in range(1, 11):
            expected = Fraction(1, 2) - Fraction(1, (2 * n + 1) * 4**n)
            assert coefficient_exact(C, n) / coefficient_exact(D, n) == expected

    def test_hq_ratio_simplifies(self):
        for n in range(1, 11):
            got = coefficient_exact(A, n) / coefficient_exact(B, n)
            assert got == Fraction(2 * n, (2 * n + 1) * (2 ** (2 * n - 1) + 1))


class TestVerdicts:
    def test_hq_strictly_decreasing(self):
        verdict = ratio_sequence_verdict(A, B, 50)
        assert verdict.direction is Direction.STRICTLY_DECREASING
        assert verdict.checked_up_to == 50
        assert verdict.first_violation is None

    def test_hc_strictly_increasing(self):
        verdict = ratio_sequence_verdict(C, D, 50)
        assert verdict.direction is Direction.STRICTLY_INCREASING
        assert verdict.first_violation is None

    def test_constant_sequence_fails_strictness(self):
        verdict = ratio_sequence_verdict(B, B, 50)
        assert verdict.direction is Direction.NOT_MONOTONE
        assert verdict.first_violation == 1

    def test_needs_two_terms(self):
        with pytest.raises(DomainError):
            ratio_sequence_verdict(A, B, 1)

    @pytest.mark.parametrize("num", list(CoefficientKind))
    @pytest.mark.parametrize("den", list(CoefficientKind))
    def test_every_kind_pair_is_decided(self, num, den):
        # every coefficient is positive, so no ratio divides by zero
        verdict = ratio_sequence_verdict(num, den, 60)
        assert verdict.checked_up_to == 60


class TestTruncatedQuotient:
    def test_limit_at_zero_is_first_ratio(self):
        for n_terms in (1, 5, 40):
            assert truncated_quotient(A, B, 0.0, n_terms) == pytest.approx(2.0 / 9.0, rel=1e-15)
            assert truncated_quotient(C, D, 0.0, n_terms) == pytest.approx(5.0 / 12.0, rel=1e-15)

    def test_matches_closed_form_midrange(self):
        assert truncated_quotient(A, B, 0.5, 40) == pytest.approx(phi_hq(0.5), rel=1e-12)
        assert truncated_quotient(C, D, 0.5, 40) == pytest.approx(phi_hc(0.5), rel=1e-12)

    def test_grid_agreement_with_closed_forms(self):
        upper = math.asinh(1.0)
        for i in range(1, 1000):
            t = upper * i / 1000.0
            assert truncated_quotient(A, B, t, 40) == pytest.approx(phi_hq(t), rel=1e-12)
            assert truncated_quotient(C, D, t, 40) == pytest.approx(phi_hc(t), rel=1e-12)

    @pytest.mark.parametrize("den", list(CoefficientKind))
    def test_finite_for_every_denominator(self, den):
        # the denominator series is at least its first coefficient, >= 1/3
        for num in CoefficientKind:
            for t in (-1.4999, 0.0, 1.4999):
                for n_terms in (1, 40, 400):
                    assert math.isfinite(truncated_quotient(num, den, t, n_terms))

    def test_domain(self):
        with pytest.raises(DomainError):
            truncated_quotient(A, B, 1.5, 10)
        with pytest.raises(DomainError):
            truncated_quotient(A, B, 0.5, 0)
        with pytest.raises(DomainError):
            truncated_quotient(A, B, 0.01, True)


class TestSolveP0:
    def test_defining_residual(self):
        p0 = solve_p0(1e-12)
        target = 2.0 * math.log(1.0 + math.sqrt(2.0))
        assert abs((p0 + 1.0) ** (1.0 / p0) - target) < 1e-12
        assert abs(p0 - 1.8435205184311405) < 1e-8

    def test_leading_digits(self):
        assert f"{solve_p0(1e-12):.4g}" == "1.844"
        assert str(solve_p0(1e-12)).startswith("1.843")

    def test_bracket_straddles_target(self):
        target = 2.0 * math.log(1.0 + math.sqrt(2.0))
        # (p+1)^(1/p) is strictly decreasing: 2 at p=1, 4^(1/3) at p=3
        assert (1.0 + 1.0) ** 1.0 > target > (3.0 + 1.0) ** (1.0 / 3.0)

    def test_bad_tolerance(self):
        for tol in (0.0, -1e-9, True):
            with pytest.raises(DomainError):
                solve_p0(tol)


# Exact Maclaurin coefficients in s = x^2, as lists of the first `terms`
# Fractions: f(x)/x for the four inverse functions, and sqrt(1 +- x^2).
def _inverse_series(terms, alternating, central):
    """sum (+-1)^n c_n s^n with c_n = C(2n,n)/(4^n (2n+1)) if central
    (asin, asinh), else 1/(2n+1) (atanh, atan)."""
    return [(-1) ** (n * alternating)
            * (Fraction(math.comb(2 * n, n), 4**n) if central else 1) * Fraction(1, 2 * n + 1)
            for n in range(terms)]


ASINH = _inverse_series(4, True, True)
ASIN = _inverse_series(4, False, True)
ATAN = _inverse_series(4, True, False)
ATANH = _inverse_series(4, False, False)


class TestHandTypedCoefficients:
    """The series kernels typed into the source are the correctly rounded
    exact series coefficients."""

    @pytest.mark.parametrize("family,series", [
        (MeanFamily.NEUMAN_SANDOR, ASINH), (MeanFamily.SEIFFERT_FIRST, ASIN),
        (MeanFamily.SEIFFERT_SECOND, ATAN), (MeanFamily.LOGARITHMIC, ATANH)])
    def test_kernel_series(self, family, series):
        # the kernel's small-gap branch is 1/(1 + s*(c1 + s*(c2 + s*c3))) with
        # c_n the series of f(x)/x; compiling its shape expression folds the
        # literals into constants
        shape, _ = means._SHAPES[family]
        consts = {c for c in compile(shape, "<shape>", "eval").co_consts if isinstance(c, float)}
        for c in series[1:4]:
            assert float(c) in consts, c
