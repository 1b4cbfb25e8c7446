"""The compiled kernels against the column kernels they replaced, kept here
as the reference: every margin column of every sweep, every mean of the
pair and gap entry points, and every value of the three ratio functions
must equal the reference bit for bit."""

import itertools
import math
import operator
import random
from means_lab import replace

import pytest

from means_lab import certify, ratios
from means_lab.certify import Objective, Relation, recover_constant, theorem_claims
from means_lab.means import (
    ARITHMETIC,
    CHAIN_ORDER,
    NEUMAN_SANDOR,
    QUADRATIC,
    SEIFFERT_FIRST,
    SEIFFERT_SECOND,
    SMALL_GAP,
    MeanFamily,
    _columns_fn,
    _glog_log_shape,
    _mean,
    generalized_log,
    mean_shape,
)
from means_lab.ratios import (
    ASINH_ONE,
    SERIES_SWITCH,
    Endpoint,
    RatioFunctionKind,
    endpoint_value,
    evaluate_ratio_function,
    ratio_function_domain,
    sharp_constants,
)
from means_lab.series import CoefficientKind, _horner, truncated_quotient
from test_means_core import EDGE_GAPS, KERNEL_KIND_LISTS, LP_EDGE_EXPONENTS, _kernel_pairs

_GLOG_SPECIAL_EPS = 1e-8
_GLOG_CUMULANT_LIMIT = 3e-3
_LARGEST_GAP = math.nextafter(1.0, 0.0)


# --- the reference: the column kernels as they were, one list per step ---

def _neuman_sandor_shapes(xs, vs):
    return [1.0 / (1.0 + (s := x * x) * (-1.0 / 6.0 + s * (3.0 / 40.0 + s * (-15.0 / 336.0))))
            if x < SMALL_GAP else x / math.asinh(x) for x in xs]


def _seiffert_second_shapes(xs, vs):
    return [1.0 / (1.0 + (s := x * x) * (-1.0 / 3.0 + s * (1.0 / 5.0 + s * (-1.0 / 7.0))))
            if x < SMALL_GAP else x / math.atan(x) for x in xs]


def _seiffert_first_shapes(xs, vs):
    return [1.0 / (1.0 + (s := x * x) * (1.0 / 6.0 + s * (3.0 / 40.0 + s * (15.0 / 336.0))))
            if x < SMALL_GAP else x / math.asin(x) if x <= 0.5
            else x / (0.5 * math.pi - 2.0 * math.asin(math.sqrt(0.5 * v)))
            for x, v in zip(xs, vs)]


def _logarithmic_shapes(xs, vs):
    return [1.0 / (1.0 + (s := x * x) * (1.0 / 3.0 + s * (1.0 / 5.0 + s * (1.0 / 7.0))))
            if x < SMALL_GAP else x / math.atanh(x) if x <= 0.5
            else x / (0.5 * math.log((1.0 + x) / v))
            for x, v in zip(xs, vs)]


_SHAPES = {
    MeanFamily.HARMONIC: lambda xs, vs: [(1.0 + x) * v for x, v in zip(xs, vs)],
    MeanFamily.GEOMETRIC: lambda xs, vs: [math.sqrt((1.0 + x) * v) for x, v in zip(xs, vs)],
    MeanFamily.LOGARITHMIC: _logarithmic_shapes,
    MeanFamily.SEIFFERT_FIRST: _seiffert_first_shapes,
    MeanFamily.ARITHMETIC: lambda xs, vs: [1.0] * len(xs),
    MeanFamily.NEUMAN_SANDOR: _neuman_sandor_shapes,
    MeanFamily.SEIFFERT_SECOND: _seiffert_second_shapes,
    MeanFamily.QUADRATIC: lambda xs, vs: [math.sqrt(1.0 + x * x) for x in xs],
    MeanFamily.CONTRA_HARMONIC: lambda xs, vs: [1.0 + x * x for x in xs],
}


def _shape_fn(kind):
    p = kind.p
    if p is None:
        return _SHAPES[kind.family]
    if abs(p + 1.0) < _GLOG_SPECIAL_EPS:
        return _logarithmic_shapes
    q = p + 1.0
    cut = 1e-3 if abs(p) >= _GLOG_CUMULANT_LIMIT else math.inf
    return lambda xs, vs: [
        math.exp((q * math.log1p(x) + math.log(-math.expm1(-w) / w) + math.log(h / x)) / p)
        if cut <= (w := 2.0 * q * (h := math.atanh(x) if x <= 0.5 else 0.5 * math.log((1.0 + x) / v))) < math.inf
        else math.exp(_glog_log_shape(p, x, v, h)) for x, v in zip(xs, vs)]


def _reference_mean_shape(kind, x):
    v = 1.0 - x
    return min(max(_shape_fn(kind)([x], [v])[0], v), 1.0 + x)


def _regular_means(kind, los, his, ss, hs, xs, vs):
    fam = kind.family
    if fam is MeanFamily.HARMONIC:
        return [2.0 * lo * (hi / s) for lo, hi, s in zip(los, his, ss)]
    if fam is MeanFamily.GEOMETRIC:
        return [math.sqrt(lo) * math.sqrt(hi) for lo, hi in zip(los, his)]
    if fam is MeanFamily.ARITHMETIC:
        return hs.copy()
    col = list(map(operator.mul, hs, _shape_fn(kind)(xs, vs)))
    return col if kind.p is None else list(map(min, map(max, col, los), his))


def _reference_mean(kind, lo, hi):
    if lo == hi:
        return lo
    s = lo + hi
    if math.isinf(s):
        return 4.0 * _reference_mean(kind, 0.25 * lo, 0.25 * hi)
    x = min((hi - lo) / s, _LARGEST_GAP)
    v = 2.0 * lo / s
    p = kind.p
    if v < 1e-300 and (p is not None or kind.family is MeanFamily.LOGARITHMIC):
        log_ratio = math.log(hi) - math.log(lo)
        if _shape_fn(kind) is _logarithmic_shapes:
            return (hi - lo) / log_ratio
        log_shape = _glog_log_shape(p, x, v, 0.5 * log_ratio)
        unit = math.exp(log_shape)
        mean = 0.5 * s * unit if unit > 1e-300 else math.exp(log_shape + math.log(0.5 * s))
        return min(max(mean, lo), hi)
    return _regular_means(kind, [lo], [hi], [s], [0.5 * s], [x], [v])[0]


def _reference_columns_fn(kinds):
    def columns(los, his):
        ss = list(map(operator.add, los, his))
        vs = [2.0 * lo / s for lo, s in zip(los, ss)]
        xs = [_LARGEST_GAP if _LARGEST_GAP < (x := (hi - lo) / s) else x
              for lo, hi, s in zip(los, his, ss)]
        odd = [i for i, v in enumerate(vs) if not 1e-300 <= v < 1.0]
        for i in odd:
            xs[i], vs[i] = 0.0, 1.0
        hs = [0.5 * s for s in ss]
        cols = []
        for kind in kinds:
            col = _regular_means(kind, los, his, ss, hs, xs, vs)
            for i in odd:
                col[i] = _reference_mean(kind, los[i], his[i])
            cols.append(col)
        return cols

    return columns


def _reference_margin_fn(claims):
    m = _shape_fn(NEUMAN_SANDOR)
    rows = [(c.weight, c.relation is Relation.LESS_THAN_M, _shape_fn(c.first), _shape_fn(c.second))
            for c in claims]
    shapes = list(dict.fromkeys([m] + [shape for row in rows for shape in row[2:]]))

    def margins(xs):
        vs = [1.0 - x for x in xs]
        columns = {shape: shape(xs, vs) for shape in shapes}
        out = []
        for weight, lower, first, second in rows:
            rest = 1.0 - weight
            triples = zip(columns[m], columns[first], columns[second])
            if lower:
                out.append([m_x - (weight * f + rest * s) for m_x, f, s in triples])
            else:
                out.append([(weight * f + rest * s) - m_x for m_x, f, s in triples])
        return out

    return margins


def _split(margins):
    """A reference margin function of (as, bs), called on a block of pairs."""
    return lambda pairs: margins([a for a, _ in pairs], [b for _, b in pairs])


def _reference_chain():
    columns = _reference_columns_fn(CHAIN_ORDER)
    a_index = CHAIN_ORDER.index(ARITHMETIC)

    def margins(as_, bs):
        values = columns(bs, as_)
        a_means = values[a_index]
        return [list(map(operator.truediv, map(operator.sub, above, below), a_means))
                for below, above in zip(values, values[1:])]

    return _split(margins)


def _pair_margins(margin, *kinds):
    columns = _reference_columns_fn((ARITHMETIC, NEUMAN_SANDOR) + kinds)
    return _split(lambda as_, bs: [list(itertools.starmap(margin, zip(*columns(bs, as_))))])


def _qa_margin(weight, lower, a, m, q):
    combo = weight * q + (1.0 - weight) * a
    return (m - combo if lower else combo - m) / a


def _reference_corpus():
    neuman_alpha = (1.0 - ASINH_ONE) / ((math.sqrt(2.0) - 1.0) * ASINH_ONE)
    neuman_lambda = (1.0 - ASINH_ONE) / ASINH_ONE
    ky_fan_means = _reference_columns_fn(certify._KY_FAN_KINDS)

    def ky_fan(as_, bs):
        los, his = list(map(min, as_, bs)), list(map(max, as_, bs))
        mirrors = ky_fan_means([1.0 - hi for hi in his], [1.0 - lo for lo in los])
        ratios = [list(map(operator.truediv, m, mirror))
                  for m, mirror in zip(ky_fan_means(los, his), mirrors)]
        steps = [list(map(operator.sub, nxt, prev)) for prev, nxt in zip(ratios, ratios[1:])]
        return [list(map(min, *steps))]

    return {
        "ky-fan": _split(ky_fan),
        "pm-lt-a2": _pair_margins(lambda a, m, p: (a * a - p * m) / (a * a), SEIFFERT_FIRST),
        "at-lt-m2": _pair_margins(lambda a, m, t: (m * m - a * t) / (a * a), SEIFFERT_SECOND),
        "m2-lt-square-mean": _pair_margins(
            lambda a, m, t: ((a * a + t * t) / 2.0 - m * m) / (a * a), SEIFFERT_SECOND),
        "lp0-lt-m": _pair_margins(lambda a, m, lp0: (m - lp0) / a,
                                  generalized_log(sharp_constants().p0)),
        "m-lt-l2": _pair_margins(lambda a, m, l2: (l2 - m) / a, generalized_log(2.0)),
        "neuman-qa-alpha-lower": _pair_margins(
            lambda a, m, q: _qa_margin(neuman_alpha, True, a, m, q), QUADRATIC),
        "neuman-qa-beta-upper": _pair_margins(
            lambda a, m, q: _qa_margin(1.0 / 3.0, False, a, m, q), QUADRATIC),
        "neuman-qa-lambda-lower": _pair_margins(
            lambda a, m, q: _qa_margin(neuman_lambda, True, a, m, q), QUADRATIC),
        "neuman-qa-mu-upper": _pair_margins(
            lambda a, m, q: _qa_margin(1.0 / 6.0, False, a, m, q), QUADRATIC),
    }


# --- the ratio functions as they were: series routes and closed forms ---

def _phi_hq_closed(t):
    ch = math.cosh(t)
    sh = math.sinh(t)
    sh_half = math.sinh(0.5 * t)
    return (t * ch - sh) / (t * (sh * sh + 2.0 * sh_half * sh_half))


def _phi_hc_closed(t):
    ch = math.cosh(t)
    sh = math.sinh(t)
    return (t * ch * ch - sh) / (2.0 * t * sh * sh)


def _gq_roots(x):
    """sqrt(1 + x^2) and sqrt(1 - x^2), the latter without cancellation near 1."""
    return math.sqrt(1.0 + x * x), math.sqrt((1.0 - x) * (1.0 + x))


def _ratio_gq_series(x):
    # phi_hq's series at asinh(x) times (Q-H)/(Q-G) = (s1+s2)(s1+2)/(2(s1+1))
    s1, s2 = _gq_roots(x)
    return (truncated_quotient(_K.A, _K.B, math.asinh(x), 10)
            * ((s1 + s2) * (s1 + 2.0) / (2.0 * (s1 + 1.0))))


def _ratio_gq_closed(x):
    s1, s2 = _gq_roots(x)
    ah = math.asinh(x)
    return (s1 * ah - x) / ((2.0 * x * x / (s1 + s2)) * ah)


_K = CoefficientKind
_RATIO_REFERENCE = {
    RatioFunctionKind.PHI_HQ: (lambda t: truncated_quotient(_K.A, _K.B, t, 10), _phi_hq_closed),
    RatioFunctionKind.PHI_HC: (lambda t: truncated_quotient(_K.C, _K.D, t, 10), _phi_hc_closed),
    RatioFunctionKind.RATIO_GQ: (_ratio_gq_series, _ratio_gq_closed),
}


def _reference_ratio(kind, t):
    """The ratio function kind at t >= 0, from its series below SERIES_SWITCH
    and its closed form above."""
    series, closed = _RATIO_REFERENCE[kind]
    return series(t) if t < SERIES_SWITCH else closed(t)


# --- the checks -----------------------------------------------------------

def _assert_same_columns(got, expected, context):
    assert len(got) == len(expected), context
    for k, (column, reference) in enumerate(zip(got, expected)):
        assert list(column) == reference, (context, k)


def _blocks(draw, rng, count):
    for start in range(0, count, certify._SWEEP_BLOCK):
        yield draw(rng, min(certify._SWEEP_BLOCK, count - start))


def test_grid_margins_of_every_claim_at_and_beside_its_weight():
    # the full default grid, each of the six claims at its weight and one
    # float either side, all in one kernel as verify_bound builds it
    claims = [replace(claim, weight=w)
              for theorem in ("1.1", "1.2", "1.3") for _, claim in theorem_claims(theorem)
              for w in (math.nextafter(claim.weight, 0.0), claim.weight,
                        math.nextafter(claim.weight, 1.0))]
    kernel, reference = certify._margin_fn(claims), _reference_margin_fn(claims)
    for start, block in certify._grid_blocks(100_000):
        _assert_same_columns(kernel(block), reference(block), start)


def test_sharpness_ladders():
    for theorem in ("1.1", "1.2", "1.3"):
        claims = [claim for _, claim in theorem_claims(theorem)]
        xs = [0.5**k for k in range(1, 50)] + [1.0 - 0.5**k for k in range(1, 50)]
        _assert_same_columns(certify._margin_fn(claims)(xs), _reference_margin_fn(claims)(xs),
                             theorem)


@pytest.mark.parametrize("seed", [7, 42, 101])
def test_chain_blocks(monkeypatch, seed):
    # verify_chain's own kernel, taken from the sweep it starts
    kernels = []

    def capture(sweeps, count, seed):
        kernels.extend(columns for _, _, columns, _ in sweeps)
        return [(claim_id, None) for *_, ids in sweeps for claim_id in ids]

    monkeypatch.setattr(certify, "_sampled_sweeps", capture)
    certify.verify_chain(1, 0)
    (kernel,), reference = kernels, _reference_chain()
    for k, block in enumerate(_blocks(certify._chain_draw, random.Random(seed), 100_000)):
        _assert_same_columns(kernel(block), reference(block), k)


@pytest.mark.parametrize("seed", [7, 42, 101])
def test_corpus_blocks(seed):
    # ky-fan's column, and each of the nine fused columns of the pair claims
    # against its claim's own reference margin
    references = _reference_corpus()
    sweeps = certify._corpus_claims()
    assert [(stream, ids) for stream, _, _, ids in sweeps] == \
        [("ky-fan", ["ky-fan"]), ("pairs", list(references)[1:])]
    for stream, draw, margin_columns, ids in sweeps:
        rng = random.Random(f"{seed}:{stream}")
        for k, block in enumerate(_blocks(draw, rng, 10_000)):
            expected = [column for claim_id in ids for column in references[claim_id](block)]
            _assert_same_columns(margin_columns(block), expected, (stream, k))


def test_columns_and_means_of_the_kernel_pairs():
    # ordinary pairs with the rows the kernels hand back to _mean among
    # them, for every kind list and L_p exponent the column tests use
    pairs = _kernel_pairs()
    ordered = [(max(pair), min(pair)) for pair in pairs]
    his, los = [hi for hi, _ in ordered], [lo for _, lo in ordered]
    for kinds in KERNEL_KIND_LISTS:
        _assert_same_columns(_columns_fn(tuple(kinds))(ordered),
                             _reference_columns_fn(kinds)(los, his), kinds)
        for kind in kinds:
            assert [_mean(kind, lo, hi) for hi, lo in ordered] == \
                [_reference_mean(kind, lo, hi) for hi, lo in ordered], kind


@pytest.mark.parametrize("kind", list(CHAIN_ORDER)
                         + [generalized_log(p) for p in LP_EDGE_EXPONENTS + (-1.0, 0.0, 1e-9)])
def test_mean_shape(kind):
    xs = list(EDGE_GAPS) + [i / 997.0 for i in range(997)] + [1.0 - 2.0**-k for k in range(1, 53)]
    assert [mean_shape(kind, x) for x in xs] == [_reference_mean_shape(kind, x) for x in xs]


def _scan_points(monkeypatch, kind):
    """The points recover_constant scans kind at."""
    scans = []
    monkeypatch.setattr(certify, "_ratio_column", lambda k, ts: scans.append(list(ts)) or
                        ratios._ratio_column(k, ts))
    recover_constant(kind, list(Objective))
    (points,) = scans
    return points


@pytest.mark.parametrize("kind", list(RatioFunctionKind))
def test_ratio_functions(monkeypatch, kind):
    hi = ratio_function_domain(kind)[1]
    rng = random.Random(f"ratio:{kind.value}")
    # the scan, the switch and its neighbours, and 10,000 seeded points, half of
    # them below the switch
    points = _scan_points(monkeypatch, kind)
    assert len(points) == 2023
    points += [math.nextafter(SERIES_SWITCH, 0.0), SERIES_SWITCH, math.nextafter(SERIES_SWITCH, 1.0)]
    points += [hi * rng.random() for _ in range(5_000)]
    points += [SERIES_SWITCH * rng.random() for _ in range(5_000)]
    expected = [_reference_ratio(kind, t).hex() for t in points]
    assert [v.hex() for v in ratios._ratio_column(kind, points)] == expected
    assert [evaluate_ratio_function(kind, t).hex() for t in points] == expected
    if kind is RatioFunctionKind.PHI_HC:
        assert [evaluate_ratio_function(kind, -t).hex() for t in points] == expected
    series, closed = _RATIO_REFERENCE[kind]
    assert endpoint_value(kind, Endpoint.LOWER).hex() == series(0.0).hex()
    assert endpoint_value(kind, Endpoint.UPPER).hex() == closed(hi).hex()


@pytest.mark.parametrize("variable,bind", [("s", lambda v: {"s": v * v}),
                                           ("(ah * ah)", lambda v: {"ah": v})], ids=["s", "ah"])
def test_quotient_source_in_its_series_variable(variable, bind):
    # the unrolled A/B quotient, in s as phi_hq's series branch reads it and in
    # (ah * ah) as ratio_gq's does, is _horner's quotient at the square bit for bit
    source = ratios._quotient_source(ratios._A, ratios._B, variable)
    if variable == "s":
        assert source == ratios._quotient_source(ratios._A, ratios._B)
    code = compile(source, "<quotient>", "eval")
    rng = random.Random(f"quotient:{variable}")
    for v in [0.0, SERIES_SWITCH] + [SERIES_SWITCH * rng.random() for _ in range(1_000)]:
        want = _horner(ratios._A, v * v) / _horner(ratios._B, v * v)
        assert eval(code, bind(v)).hex() == want.hex(), v
