import json
import math
import os
import random
import subprocess
import sys
import types
from means_lab import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from means_lab import (
    ARITHMETIC,
    CHAIN_ORDER,
    GEOMETRIC,
    HARMONIC,
    LOGARITHMIC,
    NEUMAN_SANDOR,
    QUADRATIC,
    SEIFFERT_FIRST,
    SEIFFERT_SECOND,
    DomainError,
    MeanFamily,
    MeanKind,
    PositivePair,
    evaluate_mean,
    generalized_log,
    mean_shape,
    normalized_gap,
    pair_from_gap,
    sharp_constants,
    stable_asinh,
)
from means_lab import certify, means, ratios
from means_lab.certify import theorem_claims
from means_lab.cli import main
from means_lab.means import SMALL_GAP, _columns_fn, _glog_log_shape, _kernel, _mean
from oracles import mean_oracle, rel_err

MAX_FLOAT = sys.float_info.max


def _half_log_ratio(x: float, v: float) -> float:
    """atanh(x) from the exact complement v = 1-x, the rule the L and L_p
    kernels inline: atanh up to 0.5, then 0.5*log((1+x)/v)."""
    if x <= 0.5:
        return math.atanh(x)
    return 0.5 * math.log((1.0 + x) / v)


# the ten families, with representative exponents for the generalized log
ALL_KINDS = list(CHAIN_ORDER) + [generalized_log(2.0)]
GLOG_EXTRA = [generalized_log(p) for p in (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 5.0)]

finite_positive = st.floats(min_value=1e-120, max_value=1e120,
                            allow_nan=False, allow_infinity=False)


class TestSpecExamples:
    def test_harmonic_1_2(self):
        assert evaluate_mean(HARMONIC, (1, 2)) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_quadratic_1_7_exact(self):
        assert evaluate_mean(QUADRATIC, (1, 7)) == 5.0

    def test_diagonal_exact(self):
        assert evaluate_mean(NEUMAN_SANDOR, (2, 2)) == 2.0
        for kind in ALL_KINDS + GLOG_EXTRA:
            assert evaluate_mean(kind, (3.7, 3.7)) == 3.7

    def test_neuman_sandor_1_2(self):
        # 1/(2*asinh(1/3)) at 40 digits: 1.526949978913487213158...
        assert rel_err(evaluate_mean(NEUMAN_SANDOR, (1, 2)), "1.526949978913487213158") < 1e-15

    def test_generalized_log_minus1_at_1_e(self):
        got = evaluate_mean(generalized_log(-1.0), (1.0, math.e))
        assert got == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_invalid_pairs(self):
        for bad in ((0, 1), (-1, 2), (1, float("nan")), (1, float("inf")), (1,),
                    (True, 3), (2, False), (10**400, 1)):
            with pytest.raises(DomainError):
                evaluate_mean(HARMONIC, bad)

    @pytest.mark.parametrize("bad,message", [
        ((0.0, 3.0), "pair entry must be a real number in (0.0, inf), got 0.0"),
        ((3.0, -1), "pair entry must be a real number in (0.0, inf), got -1"),
        ((1.0, "2"), "pair entry must be a real number in (0.0, inf), got '2'"),
        ((1.0, 10**400), "pair entry must be a real number in the float range, "
                         "got an int of 401 digits"),
        ((1.0, 2.0, 3.0), "cannot interpret (1.0, 2.0, 3.0) as a pair"),
        ((1.0,), "cannot interpret (1.0,) as a pair"),
        (5, "cannot interpret 5 as a pair"),
        (None, "cannot interpret None as a pair"),
    ])
    def test_invalid_pair_messages(self, bad, message):
        # evaluate_mean and normalized_gap check a tuple's entries without
        # building a PositivePair, with its messages
        for call in (lambda: evaluate_mean(HARMONIC, bad), lambda: normalized_gap(bad),
                     lambda: means.as_pair(bad)):
            with pytest.raises(DomainError) as caught:
                call()
            assert str(caught.value) == message

    @pytest.mark.parametrize("pair", [(1.0, 3.0), (3.0, 1.0), (2, 2), (1e-300, 1e300),
                                      (5e-324, 1.0), (0.5, 1.5)])
    def test_tuple_and_record_give_the_same_bits(self, pair):
        record = PositivePair(*pair)
        for kind in CHAIN_ORDER:
            assert evaluate_mean(kind, pair).hex() == evaluate_mean(kind, record).hex()
        assert normalized_gap(pair).hex() == normalized_gap(record).hex()

    def test_invalid_parameter(self):
        with pytest.raises(DomainError):
            generalized_log(float("nan"))
        with pytest.raises(DomainError):
            generalized_log(float("inf"))
        with pytest.raises(DomainError):
            generalized_log(10**400)
        with pytest.raises(DomainError):
            MeanKind(MeanFamily.HARMONIC, 2.0)
        with pytest.raises(DomainError):
            generalized_log("a")
        with pytest.raises(DomainError):
            MeanKind(MeanFamily.GENERALIZED_LOG, "a")


class TestNormalizedGap:
    def test_examples(self):
        assert normalized_gap((1, 1)) == 0.0
        assert normalized_gap((1, 3)) == 0.5
        assert normalized_gap((1, 1e6)) == float(Fraction(999999, 1000001))

    def test_symmetry_and_range(self):
        rng = random.Random(11)
        for _ in range(1000):
            a = 10 ** rng.uniform(-6, 6)
            b = 10 ** rng.uniform(-6, 6)
            x = normalized_gap((a, b))
            assert x == normalized_gap((b, a))
            assert 0.0 <= x < 1.0

    @pytest.mark.parametrize("a,b", [(1e308, 1.7e308), (MAX_FLOAT, 1e300), (1e308, 9e307)])
    def test_sum_past_the_float_range(self, a, b):
        # a + b overflows, so the gap is taken from the pair scaled by 1/4
        assert math.isinf(a + b)
        x = normalized_gap((a, b))
        assert x.hex() == normalized_gap((b, a)).hex()
        lo, hi = Fraction(min(a, b)), Fraction(max(a, b))
        assert abs(Fraction(x) - (hi - lo) / (hi + lo)) <= Fraction(math.ulp(x))


class TestPairFromGap:
    def test_examples(self):
        assert pair_from_gap(0.0, 1.0) == PositivePair(1.0, 1.0)
        assert pair_from_gap(0.5, 1.0) == PositivePair(1.5, 0.5)

    def test_domain(self):
        for x in (-0.1, 1.0, 1.5, False):
            with pytest.raises(DomainError):
                pair_from_gap(x, 1.0)
        for scale in (0.0, -2.0, float("inf"), 10**400):
            with pytest.raises(DomainError):
                pair_from_gap(0.5, scale)
        with pytest.raises(DomainError, match=r"^scale must be a real number in the float "
                                              r"range, got an int of 401 digits$"):
            pair_from_gap(0.5, 10**400)

    def test_round_trip_seeded(self):
        rng = random.Random(202)
        for _ in range(1000):
            x = rng.uniform(0.0, 0.999999)
            scale = 10 ** rng.uniform(-6, 6)
            rt = normalized_gap(pair_from_gap(x, scale))
            # the pair entries quantize at ~eps*scale, which bounds the
            # reconstruction at ~eps absolute regardless of ulp(x)
            assert abs(rt - x) <= 4.0 * (math.ulp(x) + math.ulp(1.0))

    @given(st.floats(min_value=0.0, max_value=0.999999),
           st.floats(min_value=1e-100, max_value=1e100))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, x, scale):
        rt = normalized_gap(pair_from_gap(x, scale))
        assert abs(rt - x) <= 4.0 * (math.ulp(x) + math.ulp(1.0))


class TestInvariants:
    @given(finite_positive, finite_positive)
    @settings(max_examples=150, deadline=None)
    def test_symmetry_bit_exact(self, a, b):
        for kind in ALL_KINDS:
            assert evaluate_mean(kind, (a, b)) == evaluate_mean(kind, (b, a))

    def test_symmetry_bit_exact_seeded(self):
        rng = random.Random(5)
        for _ in range(2000):
            a = 10 ** rng.uniform(-9, 9)
            b = a * 10 ** rng.uniform(-9, 9)
            for kind in ALL_KINDS + GLOG_EXTRA:
                assert evaluate_mean(kind, (a, b)) == evaluate_mean(kind, (b, a))

    def test_homogeneity(self):
        rng = random.Random(17)
        for _ in range(500):
            scale = 10 ** rng.uniform(-2, 2)
            pair = pair_from_gap(rng.random(), scale)
            for kind in ALL_KINDS + GLOG_EXTRA:
                base = evaluate_mean(kind, pair)
                for lam in (1e-6, 1.0, 1e6):
                    scaled = evaluate_mean(kind, (lam * pair.a, lam * pair.b))
                    assert scaled == pytest.approx(lam * base, rel=1e-13)

    def test_betweenness(self):
        rng = random.Random(23)
        for _ in range(2000):
            pair = pair_from_gap(rng.uniform(1e-7, 1.0 - 1e-7), 10 ** rng.uniform(-3, 3))
            lo, hi = pair.lo, pair.hi
            for kind in ALL_KINDS + GLOG_EXTRA:
                value = evaluate_mean(kind, pair)
                assert lo < value < hi

    def test_chain_order_pointwise(self):
        rng = random.Random(31)
        for _ in range(500):
            pair = pair_from_gap(rng.uniform(1e-6, 1.0 - 1e-6), 10 ** rng.uniform(-3, 3))
            values = [evaluate_mean(kind, pair) for kind in CHAIN_ORDER]
            assert values == sorted(values)
            assert all(u < v for u, v in zip(values, values[1:]))


class TestAgainstOracle:
    def test_chain_pair_1_2(self):
        for kind in CHAIN_ORDER:
            assert rel_err(evaluate_mean(kind, (1, 2)), mean_oracle(kind, 1, 2)) < 1e-14

    def test_random_pairs_all_kinds(self):
        rng = random.Random(47)
        for _ in range(200):
            a = 10 ** rng.uniform(-3, 3)
            b = a * (1 + rng.uniform(-0.999, 2.0))
            if b <= 0:
                continue
            for kind in ALL_KINDS + GLOG_EXTRA:
                got = evaluate_mean(kind, (a, b))
                assert rel_err(got, mean_oracle(kind, a, b)) < 1e-13

    def test_extreme_ratio_pairs(self):
        for a, b in ((1e-300, 1e300), (1e-30, 1.0), (1.0, 1e250), (1e-308, 2e-308)):
            for kind in ALL_KINDS:
                got = evaluate_mean(kind, (a, b))
                assert min(a, b) <= got <= max(a, b)
                assert rel_err(got, mean_oracle(kind, a, b)) < 1e-12

    def test_near_overflow_pair(self):
        a, b = 1.2e308, 1.7e308
        for kind in ALL_KINDS:
            got = evaluate_mean(kind, (a, b))
            assert math.isfinite(got)
            assert rel_err(got, mean_oracle(kind, a, b)) < 1e-12


class TestDiagonalStability:
    def test_diagonal_continuity_window(self):
        delta = 1e-9
        for kind in ALL_KINDS + GLOG_EXTRA:
            value = evaluate_mean(kind, (1.0, 1.0 + delta))
            assert 1.0 <= value <= 1.0 + delta

    def test_stable_branch_matches_naive_high_precision(self):
        delta = 1e-9
        for kind in ALL_KINDS + GLOG_EXTRA:
            got = evaluate_mean(kind, (1.0, 1.0 + delta))
            assert rel_err(got, mean_oracle(kind, 1.0, 1.0 + delta)) < 1e-13

    def test_switch_region_relative_error(self):
        # series below 1e-4, closed form above; both must hold ~1e-14
        kinds = (NEUMAN_SANDOR, LOGARITHMIC, SEIFFERT_FIRST, SEIFFERT_SECOND)
        for i in range(81):
            x = 9.0e-5 + i * 0.25e-6
            for kind in kinds:
                got = mean_shape(kind, x)
                ref = mean_oracle(kind, 1.0 + x, 1.0 - x)
                assert rel_err(got, ref) < 1e-14, (kind, x)

    def test_tiny_gaps_all_kinds(self):
        for x in (1e-12, 1e-9, 1e-6, 1e-5):
            for kind in ALL_KINDS:
                got = mean_shape(kind, x)
                assert rel_err(got, mean_oracle(kind, 1.0 + x, 1.0 - x)) < 1e-13


class TestShapeConsistency:
    def test_shape_times_scale_matches_pair_evaluation(self):
        rng = random.Random(61)
        for _ in range(300):
            x = rng.uniform(0.0, 1.0 - 1e-9)
            scale = 10 ** rng.uniform(-3, 3)
            pair = pair_from_gap(x, scale)
            for kind in ALL_KINDS:
                via_pair = evaluate_mean(kind, pair)
                via_shape = scale * mean_shape(kind, normalized_gap(pair))
                assert via_pair == pytest.approx(via_shape, rel=1e-12)

    def test_shape_domain(self):
        with pytest.raises(DomainError):
            mean_shape(HARMONIC, 1.0)
        with pytest.raises(DomainError):
            mean_shape(HARMONIC, -0.1)


# the kind lists the sweeps use, L repeated and among L_p exponents at and
# around the special cases
_P0 = generalized_log(sharp_constants().p0)
KERNEL_KIND_LISTS = [
    CHAIN_ORDER,
    (GEOMETRIC, LOGARITHMIC, SEIFFERT_FIRST, ARITHMETIC, NEUMAN_SANDOR, SEIFFERT_SECOND),
    (ARITHMETIC, SEIFFERT_FIRST, NEUMAN_SANDOR),
    (ARITHMETIC, NEUMAN_SANDOR, SEIFFERT_SECOND),
    (ARITHMETIC, NEUMAN_SANDOR, _P0),
    (ARITHMETIC, NEUMAN_SANDOR, generalized_log(2.0)),
    (ARITHMETIC, NEUMAN_SANDOR, QUADRATIC),
    (NEUMAN_SANDOR,),
    (LOGARITHMIC, NEUMAN_SANDOR, LOGARITHMIC),
    [generalized_log(p) for p in (-3.16, -1.0, -1.0 + 1e-9, 0.0, 1e-9, 1e-3, 2.0,
                                  1.7e308, -1.7e308)],
]


def _kernel_pairs():
    """Ordinary pairs, with the rows _mean answers itself among them: the
    diagonal, a sum past max_float, and lo subnormal under hi >= 1 (gap
    complement below 1e-300, read from log(hi/lo) by L and L_p); then
    adjacent floats whose sum rounds to 2*lo (gap complement 1.0 off the
    diagonal)."""
    rng = random.Random(97)
    pairs = []
    for _ in range(300):
        a = 10 ** rng.uniform(-300, 300)
        pairs += [(a, a), (a, 10 ** rng.uniform(-300, 300)), (a, a * (1.0 + 1e-3 * rng.random())),
                  (MAX_FLOAT * rng.uniform(0.5, 1.0), MAX_FLOAT * rng.uniform(0.5, 1.0)),
                  (5e-324 * rng.randint(1, 2**40), 10 ** rng.uniform(0, 308))]
    return pairs + [(lo, math.nextafter(lo, math.inf)) for lo in (1.0, 3.0, 1e300)]


def _is_ordinary(hi, lo, kinds):
    """Whether a pair kernel of kinds takes the row (hi, lo): hi > lo > 0, a
    finite sum and, if a kind is L or L_p, 2*lo/(lo + hi) >= 1e-300."""
    t = lo + hi
    logs = any(kind.p is not None or kind.family is MeanFamily.LOGARITHMIC for kind in kinds)
    return 0.0 < lo < hi and t < math.inf and not (logs and 2.0 * lo / t < 1e-300)


def _ordinary_rows(pairs, kinds):
    """The rows (hi, lo) of pairs that a pair kernel of kinds takes."""
    return [(hi, lo) for hi, lo in ((max(pair), min(pair)) for pair in pairs)
            if _is_ordinary(hi, lo, kinds)]


def _assert_columns_equal_mean(pairs):
    """Each kind list's kernel on the rows of pairs it takes equals _mean,
    bit for bit; at least one kind list takes a row."""
    fed = 0
    for kinds in KERNEL_KIND_LISTS:
        ordered = _ordinary_rows(pairs, kinds)
        if not ordered:
            continue
        fed += 1
        columns = _columns_fn(tuple(kinds))(ordered)
        assert len(columns) == len(kinds)
        for kind, column in zip(kinds, columns):
            assert list(column) == [_mean(kind, lo, hi) for hi, lo in ordered], (kinds, kind)
    assert fed


class TestColumnKernel:
    def test_equals_mean_bit_for_bit(self):
        # one block of the ordinary rows among 1,503 pairs
        _assert_columns_equal_mean(_kernel_pairs())

    def test_block_of_odd_rows(self):
        # the rows _mean answers itself for some kinds, of which a kernel with
        # no L or L_p takes those with lo subnormal under hi >= 1
        pairs = _kernel_pairs()
        _assert_columns_equal_mean([pairs[i] for i in range(len(pairs)) if i % 5 in (0, 3, 4)])

    @pytest.mark.parametrize("pair", [(1.0, 2.0), (3.0, math.nextafter(3.0, 4.0)),
                                      (0.4 * MAX_FLOAT, 0.5 * MAX_FLOAT), (5e-324, 1.0)])
    def test_block_of_one_pair(self, pair):
        _assert_columns_equal_mean([pair])

    @pytest.mark.parametrize("kind", [LOGARITHMIC, _P0, generalized_log(2.0)],
                             ids=["L", "Lp-p0", "Lp-2"])
    @pytest.mark.parametrize("pair", [(3.0, 3.0), (0.9 * MAX_FLOAT, MAX_FLOAT), (5e-324, 1.0)],
                             ids=["diagonal", "sum-past-max", "complement-below-1e-300"])
    def test_mean_answers_odd_rows_itself(self, monkeypatch, kind, pair):
        # no kernel gets a row it does not take: a sum past max_float reaches
        # one only as its quarter, the others none at all
        expected, kernels, fed = _mean(kind, *pair), means._columns_fn, []

        def guarded(kinds, unit=False):
            def kernel(rows):
                if not all(_is_ordinary(hi, lo, kinds) for hi, lo in rows):
                    raise AssertionError(f"a kernel of {kinds} got {rows}")
                fed.extend(rows)
                return kernels(kinds, unit)(rows)
            return kernel

        monkeypatch.setattr(means, "_columns_fn", guarded)
        assert _mean(kind, *pair) == expected
        assert evaluate_mean(kind, pair[::-1]) == expected
        assert fed == ([(0.25 * pair[1], 0.25 * pair[0])] * 2 if pair[1] == MAX_FLOAT else [])


def _float_constants(code):
    for const in code.co_consts:
        if isinstance(const, float):
            yield const
        elif isinstance(const, types.CodeType):
            yield from _float_constants(const)


class TestKernelCompiler:
    def test_import_compiles_nothing(self):
        code = ("import means_lab.cli\n"
                "from means_lab import means\n"
                "print(means._compiled.cache_info().currsize, means._columns_fn.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=str(Path(means.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True, timeout=60).stdout
        assert out.split() == ["0", "0"]

    def test_claims_differing_in_weight_share_one_compiled_kernel(self):
        means._compiled.cache_clear()
        claim = theorem_claims("1.1")[0][1]
        xs = [0.001, 0.25, 0.75]
        (at_claim,) = certify._margin_fn([claim])(xs)
        before = means._compiled.cache_info()
        (at_other,) = certify._margin_fn([replace(claim, weight=0.3)])(xs)
        after = means._compiled.cache_info()
        assert before.currsize == after.currsize == 1
        assert after.hits == before.hits + 1 and after.misses == before.misses
        assert list(at_claim) != list(at_other)

    def test_corpus_compiles_two_kernels(self):
        # ky-fan's six means, and one kernel for the nine pair claims
        means._compiled.cache_clear()
        means._columns_fn.cache_clear()
        certify.verify_corpus(300, 9)
        assert means._compiled.cache_info().misses == 2

    @pytest.mark.parametrize("unit", [False, True], ids=["pairs", "gaps"])
    def test_kernels_cannot_reach_mean(self, unit):
        # a kernel binds no per-row ok flag and calls nothing back
        for kinds in KERNEL_KIND_LISTS:
            kernel = _columns_fn(tuple(kinds), unit)
            codes, names = [kernel.__code__], set()
            while codes:
                code = codes.pop()
                names.update(code.co_names, code.co_varnames, code.co_freevars)
                codes += [const for const in code.co_consts if isinstance(const, types.CodeType)]
            assert "_mean" not in kernel.__globals__ and "evaluate_mean" not in kernel.__globals__
            assert names.isdisjoint({"_mean", "ok"}), kinds

    @pytest.mark.parametrize("unit", [False, True], ids=["pairs", "gaps"])
    def test_generalized_log_kernel_closes_over_only_its_exponent(self, unit):
        # _glog_log_shape chooses L_p's branches, so a kernel is passed p alone
        for p in (-3.16, 1e-9, 1e-3, 2.0, 1.7e308, _P0.p):
            assert _columns_fn((generalized_log(p),), unit).__code__.co_freevars == ("p0",), p

    def test_kernel_namespace_holds_no_inline_log_shape_names(self):
        kernels = [_columns_fn(tuple(kinds), unit) for kinds in KERNEL_KIND_LISTS
                   for unit in (False, True)]
        kernels += [ratios._column(kind) for kind in ratios.RatioFunctionKind]
        for kernel in kernels:
            assert kernel.__globals__.keys().isdisjoint({"expm1", "log1p", "inf"})

    def test_no_cli_value_is_compiled(self, monkeypatch, capsys):
        sources = []
        compiled = means._compiled

        def recording(source):
            sources.append(source)
            return compiled(source)

        monkeypatch.setattr(means, "_compiled", recording)
        means._columns_fn.cache_clear()
        assert main(["eval", "--means", "Lp:1e-320", "--pair", "1,2", "--format", "json"]) == 0
        assert main(["verify", "1.2", "--grid", "100", "--weight-lower", "0.34",
                     "--format", "json"]) in (0, 1)
        capsys.readouterr()
        assert any("p0" in source for source in sources)
        assert any("c0weight" in source for source in sources)
        passed = {0.34, 1.0 - 0.34, 1e-320}
        for source in sources:
            assert "0.34" not in source and "1e-320" not in source, source
            assert passed.isdisjoint(_float_constants(compile(source, "<kernel>", "exec"))), source


# the gaps at and beside the branch edges of the shape kernels: the series
# below SMALL_GAP, P and L's closed forms up to 0.5 and complement forms past
# it, and the grid's last gap
EDGE_GAPS = (0.0, math.nextafter(SMALL_GAP, 0.0), SMALL_GAP, 0.5, math.nextafter(0.5, 1.0),
             1.0 - 1e-8)
EDGE_KINDS = {kind.family.value: kind for kind in CHAIN_ORDER} | {"P0": _P0}

# exponents at and beside the L_p kernel's edges: the cumulant limit 3e-3,
# the window around -1, and a spread up to where 2(p+1) overflows
LP_EDGE_EXPONENTS = (-3e-3, math.nextafter(-3e-3, -1.0), math.nextafter(-3e-3, 0.0),
                     3e-3, math.nextafter(3e-3, 0.0), math.nextafter(3e-3, 1.0),
                     -1.0 - 2e-8, -1.0 + 2e-8, -3.16, -0.5, sharp_constants().p0, 2.0, 700.0,
                     1e300, 1.7e308)


def _w_edge_gaps(p):
    """The two adjacent gaps between which w = 2(p+1)atanh(x) crosses 1e-3,
    where the L_p kernel leaves the small-w series (for p = 2 near 1.67e-4);
    none where w stays below 1e-3 or is never finite on (0, 1)."""
    q = p + 1.0
    x = math.tanh(1e-3 / (2.0 * q)) if 0.0 < 2.0 * q < math.inf else 1.0
    if x == 1.0:
        return []
    w = lambda x: 2.0 * q * _half_log_ratio(x, 1.0 - x)  # noqa: E731
    while w(x) >= 1e-3:
        x = math.nextafter(x, 0.0)
    while w(math.nextafter(x, 1.0)) < 1e-3:
        x = math.nextafter(x, 1.0)
    return [x, math.nextafter(x, 1.0)]


# per kind, per gap of EDGE_GAPS: float.hex of mean_shape(kind, x) and of
# evaluate_mean(kind, pair_from_gap(x, 1.0)), recorded before the shape
# kernels replaced the scalar shape functions
BRANCH_EDGE_BITS = {
    "H": (
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.ffffffaa19c47p-1", "0x1.ffffffaa19c47p-1"),
        ("0x1.ffffffaa19c47p-1", "0x1.ffffffaa19c47p-1"),
        ("0x1.8000000000000p-1", "0x1.8000000000000p-1"),
        ("0x1.7fffffffffffep-1", "0x1.7fffffffffffep-1"),
        ("0x1.5798ee232d4d7p-26", "0x1.5798ee232d4d7p-26"),
    ),
    "G": (
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.ffffffd50ce23p-1", "0x1.ffffffd50ce23p-1"),
        ("0x1.ffffffd50ce23p-1", "0x1.ffffffd50ce23p-1"),
        ("0x1.bb67ae8584caap-1", "0x1.bb67ae8584caap-1"),
        ("0x1.bb67ae8584ca9p-1", "0x1.bb67ae8584ca9p-1"),
        ("0x1.2895033338ec8p-13", "0x1.2895033338ec7p-13"),
    ),
    "L": (
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.ffffffe35dec2p-1", "0x1.ffffffe35dec2p-1"),
        ("0x1.ffffffe35dec2p-1", "0x1.ffffffe35dec2p-1"),
        ("0x1.d20ae03bcc154p-1", "0x1.d20ae03bcc154p-1"),
        ("0x1.d20ae03bcc152p-1", "0x1.d20ae03bcc154p-1"),
        ("0x1.ac97195e44fdap-4", "0x1.ac97195e44fdbp-4"),
    ),
    "P": (
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.fffffff1aef62p-1", "0x1.fffffff1aef62p-1"),
        ("0x1.fffffff1aef62p-1", "0x1.fffffff1aef62p-1"),
        ("0x1.e8ec8a4aeacc3p-1", "0x1.e8ec8a4aeacc3p-1"),
        ("0x1.e8ec8a4aeacc5p-1", "0x1.e8ec8a4aeacc3p-1"),
        ("0x1.45fa8a063acf3p-1", "0x1.45fa8a063acf4p-1"),
    ),
    "A": (
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ),
    "M": (
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.0000000728850p+0", "0x1.0000000728850p+0"),
        ("0x1.000000072884fp+0", "0x1.0000000728850p+0"),
        ("0x1.09fec09279921p+0", "0x1.09fec09279921p+0"),
        ("0x1.09fec09279921p+0", "0x1.09fec09279921p+0"),
        ("0x1.2274aa0aeb4d2p+0", "0x1.2274aa0aeb4d2p+0"),
    ),
    "T": (
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.0000000e5109fp+0", "0x1.0000000e5109fp+0"),
        ("0x1.0000000e5109fp+0", "0x1.0000000e5109fp+0"),
        ("0x1.14125d3f2e9a7p+0", "0x1.14125d3f2e9a7p+0"),
        ("0x1.14125d3f2e9a7p+0", "0x1.14125d3f2e9a7p+0"),
        ("0x1.45f306c8bd6bap+0", "0x1.45f306c8bd6bbp+0"),
    ),
    "Q": (
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.00000015798eep+0", "0x1.00000015798eep+0"),
        ("0x1.00000015798eep+0", "0x1.00000015798eep+0"),
        ("0x1.1e3779b97f4a8p+0", "0x1.1e3779b97f4a8p+0"),
        ("0x1.1e3779b97f4a8p+0", "0x1.1e3779b97f4a8p+0"),
        ("0x1.6a09e64995042p+0", "0x1.6a09e64995042p+0"),
    ),
    "C": (
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.0000002af31dcp+0", "0x1.0000002af31dcp+0"),
        ("0x1.0000002af31dcp+0", "0x1.0000002af31dcp+0"),
        ("0x1.4000000000000p+0", "0x1.4000000000000p+0"),
        ("0x1.4000000000000p+0", "0x1.4000000000000p+0"),
        ("0x1.ffffffaa19c48p+0", "0x1.ffffffaa19c48p+0"),
    ),
    "P0": (
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.0000000609c49p+0", "0x1.0000000609c49p+0"),
        ("0x1.0000000609c49p+0", "0x1.0000000609c49p+0"),
        ("0x1.08e38c4e0b222p+0", "0x1.08e38c4e0b222p+0"),
        ("0x1.08e38c4e0b221p+0", "0x1.08e38c4e0b222p+0"),
        ("0x1.2274aa09688f1p+0", "0x1.2274aa09688f1p+0"),
    ),
}


class TestBranchEdgeBits:
    @pytest.mark.parametrize("name", list(BRANCH_EDGE_BITS))
    def test_bit_for_bit(self, name):
        kind = EDGE_KINDS[name]
        got = [(mean_shape(kind, x).hex(), evaluate_mean(kind, pair_from_gap(x, 1.0)).hex())
               for x in EDGE_GAPS]
        assert got == list(BRANCH_EDGE_BITS[name])

    def test_logarithmic_kernel_keeps_the_half_log_ratio_branch_rule(self):
        # L's kernel inlines _half_log_ratio's rule (atanh up to 0.5, the
        # complement form past it), which the other L_p read; the two forms
        # differ in the last bit at 0.5, so a moved edge in either shows here
        for x in EDGE_GAPS[2:]:
            v = 1.0 - x
            assert _columns_fn((LOGARITHMIC,), True)([x])[0][0] == x / _half_log_ratio(x, v)
            assert mean_shape(generalized_log(-1.0), x) == mean_shape(LOGARITHMIC, x)

    @pytest.mark.parametrize("p", LP_EDGE_EXPONENTS)
    def test_generalized_log_kernel_keeps_the_log_shape_bits(self, p):
        # the L_p kernel calls _glog_log_shape, passing atanh(x) by
        # _half_log_ratio's rule; every row must keep the bits of the scalar
        # log shape it stands for
        xs = list(EDGE_GAPS) + _w_edge_gaps(p)
        vs = [1.0 - x for x in xs]
        kind = generalized_log(p)
        (column,) = _kernel([("{m}", {"m": kind})], unit=True)(xs)
        expected = [math.exp(_glog_log_shape(p, x, v, _half_log_ratio(x, v))).hex()
                    for x, v in zip(xs, vs)]
        assert [shape.hex() for shape in column] == expected
        assert [_columns_fn((kind,), True)([x])[0][0].hex() for x in xs] == expected


class TestGeneralizedLogConsistency:
    def test_p_minus_one_is_logarithmic(self):
        rng = random.Random(71)
        for _ in range(200):
            pair = pair_from_gap(rng.random(), 10 ** rng.uniform(-2, 2))
            assert evaluate_mean(generalized_log(-1.0), pair) == evaluate_mean(LOGARITHMIC, pair)

    def test_p_minus_one_extreme_ratio_is_logarithmic(self, capsys):
        # the gap complement underflows to 0 here; L_-1 takes L's log fallback
        pair = (1e-308, 1e308)
        assert evaluate_mean(generalized_log(-1.0), pair) == evaluate_mean(LOGARITHMIC, pair)
        assert main(["eval", "--means", "Lp:-1", "--pair", "1e-308,1e308", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"][0]["value"] == \
            evaluate_mean(LOGARITHMIC, pair)

    def test_p_one_is_arithmetic(self):
        rng = random.Random(73)
        for _ in range(200):
            pair = pair_from_gap(rng.random(), 10 ** rng.uniform(-2, 2))
            got = evaluate_mean(generalized_log(1.0), pair)
            assert got == pytest.approx(evaluate_mean(ARITHMETIC, pair), rel=1e-13)

    def test_p_two_closed_form(self):
        # L_2(a,b) = sqrt((a^2 + ab + b^2)/3)
        rng = random.Random(79)
        for _ in range(200):
            pair = pair_from_gap(rng.random(), 10 ** rng.uniform(-2, 2))
            a, b = pair.a, pair.b
            expected = math.sqrt((a * a + a * b + b * b) / 3.0)
            assert evaluate_mean(generalized_log(2.0), pair) == pytest.approx(expected, rel=1e-13)

    def test_identric_special_case(self):
        got = evaluate_mean(generalized_log(0.0), (1.0, 2.0))
        assert got == pytest.approx(4.0 / math.e, rel=1e-14)

    def test_near_special_exponents_continuous(self):
        pair = PositivePair(1.0, 2.5)
        for p0, eps in ((0.0, 1e-9), (-1.0, 1e-9)):
            base = evaluate_mean(generalized_log(p0), pair)
            for sign in (-1.0, 1.0):
                nearby = evaluate_mean(generalized_log(p0 + sign * eps), pair)
                assert nearby == pytest.approx(base, rel=1e-8)

    def test_small_p_cumulant_path(self):
        rng = random.Random(83)
        for p in (2e-3, -2e-3, 1e-4, -1e-4, 1e-6):
            for _ in range(50):
                pair = pair_from_gap(rng.uniform(0.0, 0.99), 1.0)
                got = evaluate_mean(generalized_log(p), pair)
                assert rel_err(got, mean_oracle(generalized_log(p), pair.a, pair.b)) < 5e-13

    def test_huge_exponents_approach_min_max(self):
        pair = PositivePair(2.0, 5.0)
        assert evaluate_mean(generalized_log(1e8), pair) == pytest.approx(5.0, rel=1e-6)
        assert evaluate_mean(generalized_log(-1e8), pair) == pytest.approx(2.0, rel=1e-6)

    def test_huge_exponent_with_extreme_ratio_stays_between(self):
        # at (1e-300, 1e300) the shape underflows binary64 and the log-space
        # reassembly keeps the mean inside [lo, hi]; at p = 1.7e308 the
        # log-space argument 2(p+1)atanh(x) overflows; the last two round
        # past an endpoint unless clamped
        for p, pair in ((-1e6, (1e-300, 1e300)), (1e6, (1e-300, 1e300)),
                        (1.7e308, (1.0, 1e300)), (1e300, (MAX_FLOAT, MAX_FLOAT / 2)),
                        (-1e300, (2.0, 3.0))):
            got = evaluate_mean(generalized_log(p), pair)
            assert min(pair) <= got <= max(pair), (p, pair)

    def test_extreme_exponent_fuzz(self):
        # seeded differential: every family, exponents up to the float range,
        # pairs from subnormal to max_float (half of them within 2^40 of each
        # other); finite and between everywhere, and within 1e-12 of the
        # 40-digit oracle on every 16th case with both entries >= 1e-300;
        # the shape at a uniform gap stays within [1-x, 1+x]
        rng = random.Random(331)
        gaps = random.Random(332)
        exponents = [s * 10.0 ** e for s in (-1.0, 1.0) for e in (-6, 0.5, 3, 10, 100, 300)]
        exponents += [-MAX_FLOAT, MAX_FLOAT, -1.0 + 1e-7, 2e-3]
        kinds = list(CHAIN_ORDER) + [generalized_log(p) for p in exponents]
        checked = 0
        for i in range(4000):
            kind = rng.choice(kinds)
            a = min(2.0 ** rng.uniform(-1074.0, 1024.0), MAX_FLOAT)
            b = a * 2.0 ** rng.uniform(-40.0, 40.0) if rng.random() < 0.5 else \
                min(2.0 ** rng.uniform(-1074.0, 1024.0), MAX_FLOAT)
            if not 0.0 < b <= MAX_FLOAT:
                continue
            got = evaluate_mean(kind, (a, b))
            assert math.isfinite(got) and min(a, b) <= got <= max(a, b), (kind, a, b, got)
            x = gaps.random()
            assert 1.0 - x <= mean_shape(kind, x) <= 1.0 + x, (kind, x)
            if i % 16 == 0 and a >= 1e-300 and b >= 1e-300:
                checked += 1
                assert rel_err(got, mean_oracle(kind, a, b)) < 1e-12, (kind, a, b)
        assert checked > 200


class TestStableAsinh:
    def test_odd(self):
        for x in (1e-8, 0.3, 0.99):
            assert stable_asinh(-x) == -stable_asinh(x)

    def test_against_oracle(self):
        import mpmath as mp
        rng = random.Random(89)
        for _ in range(1000):
            x = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-30, 308)
            assert rel_err(stable_asinh(x), mp.asinh(mp.mpf(x))) < 5e-16, x
            assert stable_asinh(-x) == -stable_asinh(x), x
