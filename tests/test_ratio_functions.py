import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from means_lab import (
    ASINH_ONE,
    DomainError,
    Endpoint,
    GEOMETRIC,
    NEUMAN_SANDOR,
    QUADRATIC,
    RatioFunctionKind,
    endpoint_value,
    evaluate_mean,
    evaluate_ratio_function,
    f_p,
    g_p,
    h_lambda0,
    h_onethird,
    limit_at,
    mean_shape,
    mu_lambda0,
    pair_from_gap,
    phi_hc,
    phi_hq,
    ratio_function_domain,
    ratio_gq,
    sharp_constants,
)
from means_lab.ratios import SERIES_SWITCH, _RATIO_ROWS
from oracles import phi_hc_oracle, phi_hq_oracle, ratio_gq_oracle, rel_err

C = sharp_constants()


class TestSharpConstants:
    def test_closed_forms(self):
        log_silver = math.log(1.0 + math.sqrt(2.0))
        assert C.alpha1 == pytest.approx(2.0 / 9.0, rel=1e-15)
        assert C.lambda0 == pytest.approx(1.0 - 1.0 / (math.sqrt(2.0) * log_silver), rel=1e-14)
        assert C.beta1 == C.beta2 == C.lambda0
        assert C.alpha2 == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert C.alpha3 == pytest.approx(1.0 - 1.0 / (2.0 * log_silver), rel=1e-14)
        assert C.beta3 == pytest.approx(5.0 / 12.0, rel=1e-15)

    def test_paper_decimals(self):
        assert f"{C.lambda0:.4f}" == "0.1977"
        assert f"{C.alpha3:.4f}" == "0.4327"
        assert f"{C.p0:.3f}" == "1.844" and str(C.p0).startswith("1.843")

    def test_ordering(self):
        assert 0.0 < C.beta1 < C.alpha1 < C.alpha2 < C.beta3 < C.alpha3 < 1.0


class TestPhiHq:
    def test_frozen_values(self):
        assert rel_err(phi_hq(0.4), "0.2169486006662730285343") < 1e-13
        assert rel_err(phi_hq(0.5), "0.2140344962490301444265") < 1e-13

    def test_decreasing(self):
        ts = [ASINH_ONE * k / 200.0 for k in range(1, 200)]
        values = [phi_hq(t) for t in ts]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert phi_hq(0.4) > phi_hq(0.5)

    def test_range(self):
        for k in range(1, 100):
            t = ASINH_ONE * k / 100.0
            assert C.lambda0 < phi_hq(t) < C.alpha1

    def test_domain(self):
        for t in (0.0, -0.1, ASINH_ONE, 1.0):
            with pytest.raises(DomainError):
                phi_hq(t)
        # unknown kinds and endpoints
        with pytest.raises(DomainError):
            ratio_function_domain("x")
        with pytest.raises(DomainError):
            endpoint_value("x", Endpoint.LOWER)
        with pytest.raises(DomainError):
            endpoint_value(RatioFunctionKind.PHI_HQ, "up")

    def test_branch_seam(self):
        below = phi_hq(SERIES_SWITCH * (1.0 - 1e-12))
        above = phi_hq(SERIES_SWITCH * (1.0 + 1e-12))
        assert below == pytest.approx(above, rel=1e-11)

    def test_against_oracle(self):
        for t in (1e-8, 1e-5, 1e-3, 0.019, 0.021, 0.1, 0.5, 0.88):
            assert rel_err(phi_hq(t), phi_hq_oracle(t)) < 2e-12


class TestPhiHc:
    def test_frozen_value(self):
        assert rel_err(phi_hc(0.5), "0.4223124370806409183986") < 1e-13

    def test_increasing(self):
        ts = [ASINH_ONE * k / 200.0 for k in range(1, 200)]
        values = [phi_hc(t) for t in ts]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_range(self):
        for k in range(1, 100):
            t = ASINH_ONE * k / 100.0
            assert C.beta3 < phi_hc(t) < C.alpha3

    @given(st.floats(min_value=1e-6, max_value=ASINH_ONE * 0.999999))
    @settings(max_examples=100, deadline=None)
    def test_even_bit_exact(self, t):
        assert phi_hc(-t) == phi_hc(t)

    def test_domain(self):
        for t in (0.0, ASINH_ONE, -ASINH_ONE, 2.0):
            with pytest.raises(DomainError):
                phi_hc(t)

    def test_against_oracle(self):
        for t in (1e-8, 1e-4, 0.019, 0.021, 0.2, 0.7, 0.88):
            assert rel_err(phi_hc(t), phi_hc_oracle(t)) < 2e-12


class TestRatioGq:
    def test_frozen_value(self):
        assert rel_err(ratio_gq(0.5), "0.3134437985245963697616") < 1e-13

    def test_range(self):
        for k in range(1, 100):
            x = k / 100.0
            assert C.lambda0 < ratio_gq(x) < C.alpha2

    def test_domain(self):
        for x in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                ratio_gq(x)

    def test_branch_seam(self):
        below = ratio_gq(SERIES_SWITCH * (1.0 - 1e-12))
        above = ratio_gq(SERIES_SWITCH * (1.0 + 1e-12))
        assert below == pytest.approx(above, rel=1e-11)

    def test_against_oracle(self):
        for x in (1e-8, 1e-4, 0.019, 0.021, 0.3, 0.9, 0.999999):
            assert rel_err(ratio_gq(x), ratio_gq_oracle(x)) < 2e-12

    @staticmethod
    def _worst_ulps(xs):
        """The largest error of ratio_gq over xs, in ulps of the exact value."""
        worst = 0.0
        for x in xs:
            exact = ratio_gq_oracle(x)
            worst = max(worst, float(abs(mp.mpf(ratio_gq(x)) - exact)) / math.ulp(float(exact)))
        return worst

    def test_series_branch_within_4_ulps(self):
        # phi_hq's series at asinh(x) times (Q-H)/(Q-G), below the switch
        rng = random.Random("ratio-gq:series")
        xs = [10.0 ** rng.uniform(-12.0, math.log10(SERIES_SWITCH)) for _ in range(1_500)]
        assert self._worst_ulps(xs + [1e-20, 1e-300]) <= 4.0

    @pytest.mark.parametrize("x", [1e-6, 1e-3, 0.019, 0.3, 0.9, 0.999999])
    def test_equals_phi_hq_at_asinh_times_psi(self, x):
        # the identity behind the series branch: with H = G^2 on the unit
        # pair, (Q-M)/(Q-G) = phi_hq(asinh x) * (Q-H)/(Q-G), and
        # (Q-H)/(Q-G) = (s1+s2)(s1+2)/(2(s1+1)) for s1, s2 = sqrt(1 +- x^2)
        with mp.workdps(60):
            s1, s2 = mp.sqrt(1 + mp.mpf(x) ** 2), mp.sqrt(1 - mp.mpf(x) ** 2)
            psi = (s1 + s2) * (s1 + 2) / (2 * (s1 + 1))
            product = phi_hq_oracle(mp.asinh(x)) * psi
            assert abs(product / ratio_gq_oracle(x) - 1) < mp.mpf(10) ** -40

    def test_near_one_within_16_ulps(self):
        # G = sqrt((1-x)(1+x)) keeps its relative accuracy as x -> 1, where
        # sqrt(1 - x^2) cancelled to over a thousand ulps
        rng = random.Random("ratio-gq:near-one")
        xs = [1.0 - 10.0 ** rng.uniform(-16.0, math.log10(0.5)) for _ in range(1_500)]
        assert self._worst_ulps(xs) <= 16.0


@pytest.mark.parametrize("oracle,limit", [(phi_hq_oracle, mp.mpf(2) / 9), (phi_hc_oracle, mp.mpf(5) / 12),
                                          (ratio_gq_oracle, mp.mpf(1) / 3)],
                         ids=["phi_hq", "phi_hc", "ratio_gq"])
@pytest.mark.parametrize("t", [1e-16, 1e-20, 1e-100])
def test_oracle_outlasts_its_cancellation(oracle, limit, t):
    # each closed form is 0/0 at 0 and within about t^2 of its limit: at a
    # fixed 40 digits it read 0.2259, 0.3765 and 0.3012 at t = 1e-20
    assert abs(oracle(t) / limit - 1) < mp.mpf(10) ** -30


class TestEndpoints:
    def test_limits_equal_constants(self):
        assert limit_at(RatioFunctionKind.PHI_HQ, Endpoint.LOWER) == C.alpha1
        assert limit_at(RatioFunctionKind.PHI_HQ, Endpoint.UPPER) == C.lambda0
        assert limit_at(RatioFunctionKind.PHI_HC, Endpoint.LOWER) == C.beta3
        assert limit_at(RatioFunctionKind.PHI_HC, Endpoint.UPPER) == C.alpha3
        assert limit_at(RatioFunctionKind.RATIO_GQ, Endpoint.LOWER) == C.alpha2
        assert limit_at(RatioFunctionKind.RATIO_GQ, Endpoint.UPPER) == C.lambda0

    def test_numeric_endpoint_values_match_limits(self):
        for kind in RatioFunctionKind:
            for end in Endpoint:
                assert endpoint_value(kind, end) == pytest.approx(limit_at(kind, end), rel=1e-13)

    def test_functions_approach_limits(self):
        for kind in RatioFunctionKind:
            lo, hi = ratio_function_domain(kind)
            span = hi - lo
            assert evaluate_ratio_function(kind, lo + span * 1e-9) == pytest.approx(
                limit_at(kind, Endpoint.LOWER), rel=1e-9)
            # the G/Q quotient reaches its x=1 value only like sqrt(1-x)
            upper_rel = 1e-4 if kind is RatioFunctionKind.RATIO_GQ else 1e-7
            assert evaluate_ratio_function(kind, hi - span * 1e-9) == pytest.approx(
                limit_at(kind, Endpoint.UPPER), rel=upper_rel)


class TestMeansRouteEquivalence:
    def test_phi_hq_matches_double_precision_means(self):
        # binary64 mean differences resolve the quotient only for t >~ 0.05
        for k in range(60):
            t = 0.05 + (ASINH_ONE - 1e-3 - 0.05) * k / 59.0
            x = math.sinh(t)
            q = mean_shape(QUADRATIC, x)
            m = mean_shape(NEUMAN_SANDOR, x)
            h = mean_shape(GEOMETRIC, x) ** 2  # G^2/A = H for unit A
            assert (q - m) / (q - h) == pytest.approx(phi_hq(t), rel=1e-11)

    def test_ratio_gq_matches_double_precision_means(self):
        for k in range(60):
            x = 0.05 + 0.94 * k / 59.0
            q = mean_shape(QUADRATIC, x)
            m = mean_shape(NEUMAN_SANDOR, x)
            g = mean_shape(GEOMETRIC, x)
            assert (q - m) / (q - g) == pytest.approx(ratio_gq(x), rel=1e-11)

    def test_phi_hc_matches_double_precision_means(self):
        from means_lab import CONTRA_HARMONIC, HARMONIC
        for k in range(60):
            t = 0.05 + (ASINH_ONE - 1e-3 - 0.05) * k / 59.0
            x = math.sinh(t)
            c = mean_shape(CONTRA_HARMONIC, x)
            m = mean_shape(NEUMAN_SANDOR, x)
            h = mean_shape(HARMONIC, x)
            assert (c - m) / (c - h) == pytest.approx(phi_hc(t), rel=1e-11)


class TestLemmaSignFunctions:
    def test_f_zero_at_origin(self):
        for p in (0.1, 1.0 / 3.0, C.lambda0, 0.9):
            assert f_p(p, 0.0) == 0.0

    def test_f_lambda0_vanishes_at_one(self):
        assert abs(f_p(C.lambda0, 1.0)) < 1e-13

    def test_f_onethird_at_one(self):
        expected = math.log(1.0 + math.sqrt(2.0)) - 3.0 / (2.0 * math.sqrt(2.0))
        got = f_p(1.0 / 3.0, 1.0)
        assert got == pytest.approx(expected, rel=1e-13)
        assert rel_err(got, "-0.1792865847602782613687") < 1e-13
        assert got < 0.0

    def test_f_frozen_midpoints(self):
        assert rel_err(f_p(1.0 / 3.0, 0.5), "-0.002332612722285158259459") < 1e-12
        assert rel_err(f_p(C.lambda0, 0.5), "0.01313748513386520948158") < 1e-12

    def test_f_sign_grids(self):
        for k in range(1, 10_000):
            x = k / 10_000.0
            assert f_p(1.0 / 3.0, x) < 0.0, x
            assert f_p(C.lambda0, x) > 0.0, x

    def test_f_domain(self):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                f_p(p, 0.5)
        with pytest.raises(DomainError):
            f_p(0.5, 1.5)
        with pytest.raises(DomainError):
            f_p(0.5, True)

    def test_g_values(self):
        assert g_p(1.0 / 3.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert g_p(1.0 / 3.0, 1.0) == pytest.approx(-math.sqrt(2.0) / 3.0, rel=1e-13)
        assert g_p(C.lambda0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert g_p(C.lambda0, 1.0) == pytest.approx(-math.sqrt(2.0) * C.lambda0, rel=1e-13)

    def test_h_onethird_values(self):
        assert h_onethird(1.0) == pytest.approx(-2.0 * math.sqrt(2.0) / 9.0, rel=1e-13)
        assert h_onethird(0.0) == pytest.approx(14.0 / 18.0 - 2.0 - 1.0 / 3.0, rel=1e-13)

    def test_h_onethird_negative_on_grid(self):
        for k in range(1, 1001):
            assert h_onethird(k / 1000.0) < 0.0

    def test_h_lambda0_endpoint_values(self):
        assert h_lambda0(0.0) == pytest.approx(2.0 - 6.0 * C.lambda0, rel=1e-13)
        assert rel_err(h_lambda0(0.0), "0.8136689703468632447867") < 1e-13
        assert rel_err(h_lambda0(0.9), "-0.7494377052036873466354") < 1e-13

    def test_h_lambda0_paper_decimals(self):
        assert abs(h_lambda0(0.0) - 0.8137) < 1e-3
        assert abs(h_lambda0(0.9) - (-0.7494)) < 1e-3

    def test_h_lambda0_single_sign_change(self):
        signs = [h_lambda0(k / 10_000.0) > 0.0 for k in range(1, 10_000)]
        flips = sum(1 for s, t in zip(signs, signs[1:]) if s != t)
        assert flips == 1

    def test_mu_lambda0_values(self):
        assert rel_err(mu_lambda0(0.9), "-1.679602424891762267635") < 1e-13
        assert mu_lambda0(0.9) <= -0.3514 + 1e-3
        assert rel_err(mu_lambda0(0.5), "-3.923110573184285992793") < 1e-13

    def test_mu_negative_on_grid(self):
        for k in range(1, 901):
            assert mu_lambda0(k / 1000.0) < 0.0

    def test_mu_domain(self):
        with pytest.raises(DomainError):
            mu_lambda0(0.95)

    def test_subcase_bracket_values(self):
        lam = C.lambda0
        first = 5.58 * lam - 4.58 * lam * lam
        second = 6.25 - 13.5 * lam + 2.0 * lam * lam
        assert abs(first - 0.9242) < 1e-3
        assert abs(second - 3.6589) < 1e-3
        assert rel_err(first, "0.9242376795611990682493") < 1e-12
        assert rel_err(second, "3.658943033942546280726") < 1e-12
        bound = first * math.sqrt(1.81) - second * math.sqrt(0.19)
        assert abs(bound - (-0.3514)) < 1e-3
        assert rel_err(bound, "-0.3514616654171517788133") < 1e-11
        # the first bracket of mu is below its x=0.9 value on [1/2, 0.9]
        assert ((18 * lam - 18 * lam * lam) * 0.81 - (9 * lam - 10 * lam * lam)
                ) == pytest.approx(first, rel=1e-12)


class TestStructuralIdentities:
    def test_sign_identity_combination_vs_f(self):
        rng = random.Random(97)
        checked = 0
        for _ in range(10_000):
            p = rng.uniform(0.02, 0.98)
            x = rng.uniform(0.01, 0.99)
            pair = pair_from_gap(x, 1.0)
            combo = (p * evaluate_mean(GEOMETRIC, pair)
                     + (1.0 - p) * evaluate_mean(QUADRATIC, pair))
            margin = combo - evaluate_mean(NEUMAN_SANDOR, pair)
            f_value = f_p(p, x)
            if abs(margin) < 1e-13 or abs(f_value) < 1e-16:
                continue
            checked += 1
            assert (margin > 0.0) == (f_value > 0.0), (p, x)
        assert checked > 9000

    def test_g_derivative_structure(self):
        # centered difference of g_{1/3} against x^3 h_{1/3}(x)/sqrt(1-x^4)
        step = 1e-6
        for k in range(1, 99):
            x = 0.01 + (0.98 - 0.01) * k / 98.0
            fd = (g_p(1.0 / 3.0, x + step) - g_p(1.0 / 3.0, x - step)) / (2.0 * step)
            structural = x**3 * h_onethird(x) / math.sqrt(1.0 - x**4)
            assert fd < 0.0 and structural < 0.0
            assert fd == pytest.approx(structural, rel=1e-3)

    def test_phi_hq_equals_deficit_quotient_definition(self):
        # phi_hq(t) with x = sinh(t) equals (Q-M)/(Q-H) by construction;
        # checked against the 40-digit mean definitions in the oracle
        from oracles import mean_ratio_oracle
        from means_lab import HARMONIC
        for t in (1e-6, 1e-3, 0.1, 0.5, 0.85):
            x = math.sinh(t)
            assert rel_err(phi_hq(t), mean_ratio_oracle(QUADRATIC, HARMONIC, x)) < 1e-11


def _lemma_oracle(x):
    """x with sqrt(1+x^2) and sqrt(1-x^2) at the working precision."""
    x = mp.mpf(x)
    return x, mp.sqrt(1 + x * x), mp.sqrt(1 - x * x)


def _f_oracle(p, x):
    x, q, g = _lemma_oracle(x)
    return mp.asinh(x) - x / ((1 - p) * q + p * g)


def _g_oracle(p, x):
    x, q, g = _lemma_oracle(x)
    w = q + p * (g - q)
    return g * w * w - g - p * (q - g)


def _h_onethird_oracle(x):
    x, q, g = _lemma_oracle(x)
    return mp.mpf(14) / (9 * (q + g)) - (q + g) - g / 3


def _h_lambda0_oracle(x):
    x, q, g = _lemma_oracle(x)
    lam, sq = mp.mpf(C.lambda0), x * x
    first = (2 - 3 * lam - 2 * lam * lam) - (3 - 6 * lam) * sq
    second = (3 * lam - 2 * lam * lam) + (6 * lam - 6 * lam * lam) * sq
    return first * q - second * g


class TestLemmaAccuracy:
    def test_factors_keep_their_digits_as_x_tends_to_one(self):
        # sqrt(1 - x*x) lost up to 1.5e-12 relative here; as sqrt((1-x)(1+x)) it does not
        rng = random.Random(35)
        xs = [1.0 - 10.0 ** rng.uniform(-16.0, -2.0) for _ in range(1500)]
        cases = [(lambda x: g_p(1.0 / 3.0, x), lambda x: _g_oracle(mp.mpf(1) / 3, x)),
                 (lambda x: g_p(C.lambda0, x), lambda x: _g_oracle(mp.mpf(C.lambda0), x)),
                 (h_onethird, _h_onethird_oracle), (h_lambda0, _h_lambda0_oracle)]
        with mp.workdps(60):
            for fn, oracle in cases:
                for x in xs:
                    assert rel_err(fn(x), oracle(x)) < 1e-14, x

    @pytest.mark.parametrize("p", [1.0 / 3.0, C.lambda0, 0.1, 0.25, 0.3, 0.9])
    def test_f_value_within_a_cubic_bound(self, p):
        # f_p is O(x^3) at 0; the points cover ratio_gq's branch switch and x -> 1
        rng = random.Random(3035)
        xs = [10.0 ** rng.uniform(-4.0, 0.0) for _ in range(1200)]
        xs += [1.0 - 10.0 ** rng.uniform(-16.0, -1.0) for _ in range(1200)]
        xs += [rng.uniform(0.02, 0.03) for _ in range(600)]
        with mp.workdps(50):
            for x in xs:
                assert abs(f_p(p, x) - _f_oracle(mp.mpf(p), x)) <= 1e-12 * x**3, x

    def test_f_has_the_sign_of_ratio_gq_minus_p(self):
        for k in range(1, 10_000):
            x = k / 10_000.0
            for p in (1.0 / 3.0, C.lambda0):
                f = f_p(p, x)
                assert f != 0.0 and (f > 0.0) == (ratio_gq(x) > p), (p, x)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _poly_deriv(a):
    return [k * c for k, c in enumerate(a)][1:]


def _poly_sub(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]


class TestTheorem12Corollary:
    """ratio_gq = phi_hq(asinh x) * psi(x), and psi strictly decreases on
    (0, 1): with phi_hq decreasing, criterion 5's signs of f_p follow.  Each
    check is exact, in Fraction or integer arithmetic; polynomials are
    coefficient lists, lowest degree first."""

    # m = (Q + 1)/(1 + G) runs over (1, 1 + sqrt(2)) as x runs over (0, 1); any
    # identity below, cleared of denominators, is a polynomial of degree at
    # most 5 in m, so agreement at these 6 points (none a pole) proves it
    POINTS = [Fraction(k, 4) for k in range(5, 11)]

    @staticmethod
    def _circle(m):
        return 1 + 2 * (m - 1) / (1 + m * m), (1 + 2 * m - m * m) / (1 + m * m)

    @staticmethod
    def _psi(m):
        return (3 * m * m + 2 * m + 1) / ((m + 1) * (m * m + 1))

    def test_parametrisation(self):
        for m in self.POINTS:
            q, g = self._circle(m)
            assert q * q + g * g == 2
            assert (q + 1) / (1 + g) == m

    def test_psi_is_both_quotients(self):
        assert "((s1 + s2) * (s1 + 2.0) / (2.0 * (s1 + 1.0)))" in _RATIO_ROWS[
            RatioFunctionKind.RATIO_GQ].source
        for m in self.POINTS:
            q, g = self._circle(m)
            psi = self._psi(m)
            assert psi == (q - g * g) / (q - g)
            assert psi == (q + g) * (q + 2) / (2 * (q + 1))
        # at x = 0 (m = 1): phi_hq's 2/9 times psi's 3/2 is ratio_gq's 1/3
        assert Fraction(2, 9) * self._psi(Fraction(1)) == Fraction(1, 3)

    def test_psi_strictly_decreasing(self):
        num, den = [1, 2, 3], [1, 1, 1, 1]  # 3m^2 + 2m + 1 and (m + 1)(m^2 + 1)
        assert den == _poly_mul([1, 1], [1, 0, 1])
        # d psi/dm = (num' den - num den') / den^2
        deriv = _poly_sub(_poly_mul(_poly_deriv(num), den), _poly_mul(num, _poly_deriv(den)))
        assert deriv == [1, 4, -2, -4, -3]
        # m = 1 + u: sum c_k (1 + u)^k, expanded
        shifted = deriv[-1:]
        for c in reversed(deriv[:-1]):
            shifted = _poly_sub(_poly_mul(shifted, [1, 1]), [-c])
        assert shifted == [-4, -24, -32, -16, -3]
        assert all(c < 0 for c in shifted)

