"""The float series coefficients rounded from series._maclaurin against the
hand-typed values they replaced, kept here as the reference: the three
ratios tables and the four small-gap shape branches must equal them bit for
bit.  The exact source itself is checked against test_series_tools's own
Fraction generator, which stays the independent oracle."""

from fractions import Fraction

import pytest

from means_lab import means, ratios, series
from means_lab.means import MeanFamily
from test_series_tools import _inverse_series, _product, _sqrt_series

# --- the reference: the 39 coefficients as they were typed ---

TYPED_TABLES = {
    "_GQ_NUM_COEFFS": (
        1.0 / 3.0, -2.0 / 15.0, 8.0 / 105.0, -16.0 / 315.0, 128.0 / 3465.0,
        -256.0 / 9009.0, 1024.0 / 45045.0, -2048.0 / 109395.0,
    ),
    "_GQ_DEN_COEFFS": (
        1.0, -1.0 / 6.0, 1.0 / 5.0, -11.0 / 168.0, 17.0 / 180.0,
        -137.0 / 3696.0, 269.0 / 4680.0, -173.0 / 7040.0,
    ),
    "_ASINH_DEFICIT_COEFFS": (
        1.0 / 6.0, -3.0 / 40.0, 5.0 / 112.0, -35.0 / 1152.0, 63.0 / 2816.0,
        -231.0 / 13312.0, 143.0 / 10240.0, -6435.0 / 557056.0, 12155.0 / 1245184.0,
        -46189.0 / 5505024.0, 88179.0 / 12058624.0,
    ),
}

# the shapes of the four series families as they were typed, whole
TYPED_SHAPES = {
    MeanFamily.LOGARITHMIC:
        "1.0 / (1.0 + s * (1.0 / 3.0 + s * (1.0 / 5.0 + s * (1.0 / 7.0)))) if x < SMALL_GAP"
        " else x / atanh(x) if x <= 0.5 else x / (0.5 * log((1.0 + x) / v))",
    MeanFamily.SEIFFERT_FIRST:
        "1.0 / (1.0 + s * (1.0 / 6.0 + s * (3.0 / 40.0 + s * (15.0 / 336.0)))) if x < SMALL_GAP"
        " else x / asin(x) if x <= 0.5 else x / (0.5 * pi - 2.0 * asin(sqrt(0.5 * v)))",
    MeanFamily.NEUMAN_SANDOR:
        "1.0 / (1.0 + s * (-1.0 / 6.0 + s * (3.0 / 40.0 + s * (-15.0 / 336.0)))) if x < SMALL_GAP"
        " else x / asinh(x)",
    MeanFamily.SEIFFERT_SECOND:
        "1.0 / (1.0 + s * (-1.0 / 3.0 + s * (1.0 / 5.0 + s * (-1.0 / 7.0)))) if x < SMALL_GAP"
        " else x / atan(x)",
}


def _bits(values) -> list:
    """values with each float as its exact hex form, so -0.0 != 0.0."""
    return [v.hex() if isinstance(v, float) else v for v in values]


def _float_consts(source: str) -> list[float]:
    return [c for c in compile(source, "<shape>", "eval").co_consts if isinstance(c, float)]


@pytest.mark.parametrize("name", sorted(TYPED_TABLES))
def test_ratio_table_equals_the_typed_values(name):
    table = getattr(ratios, name)
    assert type(table) is tuple
    assert _bits(table) == _bits(TYPED_TABLES[name])


@pytest.mark.parametrize("family", list(TYPED_SHAPES), ids=lambda family: family.value)
def test_shape_compiles_to_the_typed_code(family):
    shape, pair_form = means._SHAPES[family]
    assert pair_form is None
    new, old = (compile(source, "<shape>", "eval") for source in (shape, TYPED_SHAPES[family]))
    assert new.co_code == old.co_code
    assert new.co_names == old.co_names
    assert _bits(new.co_consts) == _bits(old.co_consts)


def test_thirty_nine_typed_values_are_derived():
    # 27 table entries and three series coefficients in each of four shapes
    shape_consts = [c for family in TYPED_SHAPES for c in _float_consts(TYPED_SHAPES[family])
                    if c not in (1.0, 0.5, 2.0)]
    assert sum(map(len, TYPED_TABLES.values())) + len(shape_consts) == 39
    derived = [c for family in TYPED_SHAPES for c in _float_consts(means._SHAPES[family][0])
               if c not in (1.0, 0.5, 2.0)]
    assert _bits(derived) == _bits(shape_consts)


# --- the exact source against the test generator ---

TERMS = 40
GENERATED = {
    "asinh": _inverse_series(TERMS, True, True),
    "asin": _inverse_series(TERMS, False, True),
    "atanh": _inverse_series(TERMS, False, False),
    "atan": _inverse_series(TERMS, True, False),
    "sqrt+": _sqrt_series(TERMS, 1),
    "sqrt-": _sqrt_series(TERMS, -1),
}


@pytest.mark.parametrize("f", sorted(GENERATED))
def test_maclaurin_equals_the_generator(f):
    got = series._maclaurin(f, TERMS)
    assert all(type(c) is Fraction for c in got)
    assert got == GENERATED[f]
    if f in ("atanh", "atan"):
        assert got == [Fraction((-1 if f == "atan" else 1) ** k, 2 * k + 1) for k in range(TERMS)]


def test_maclaurin_prefixes_agree():
    for f in GENERATED:
        assert series._maclaurin(f, 0) == []
        assert series._maclaurin(f, 7) == series._maclaurin(f, TERMS)[:7]


def _gq_numerator(series_of, product):
    # sqrt(1+s) * asinh(x)/x, whose terms past the first are _GQ_NUM_COEFFS
    return product(series_of("sqrt+"), series_of("asinh"))


def _gq_denominator(series_of, product):
    # ((sqrt(1+s) - sqrt(1-s))/s) * asinh(x)/x, the terms of _GQ_DEN_COEFFS
    diff = [p - m for p, m in zip(series_of("sqrt+")[1:], series_of("sqrt-")[1:])]
    return product(diff, series_of("asinh"))


@pytest.mark.parametrize("build", [_gq_numerator, _gq_denominator])
def test_products_equal_the_generator(build):
    got = build(lambda f: series._maclaurin(f, TERMS), series._product)
    want = build(GENERATED.__getitem__, _product)
    assert len(got) == len(want) >= TERMS - 1
    assert got == want


def test_product_is_as_long_as_the_shorter_factor():
    a, b = GENERATED["asinh"][:5], GENERATED["sqrt+"][:9]
    assert series._product(a, b) == series._product(b, a) == _product(a, b)
    assert len(series._product(a, b)) == 5
    assert series._product([], b) == []
