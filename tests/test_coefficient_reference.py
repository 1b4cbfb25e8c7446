"""The float series coefficients rounded from series._maclaurin against the
hand-typed values they replaced, kept here as the reference: the four
small-gap shape branches must equal them bit for bit.  The exact source
itself is checked against test_series_tools's own Fraction generator, which
stays the independent oracle."""

from fractions import Fraction

import pytest

from means_lab import means, series
from means_lab.means import MeanFamily
from test_series_tools import _inverse_series

# --- the reference: the shapes of the four series families as they were
# typed, whole, with their 12 series coefficients ---
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


@pytest.mark.parametrize("family", list(TYPED_SHAPES), ids=lambda family: family.value)
def test_shape_compiles_to_the_typed_code(family):
    shape, pair_form = means._SHAPES[family]
    assert pair_form is None
    new, old = (compile(source, "<shape>", "eval") for source in (shape, TYPED_SHAPES[family]))
    assert new.co_code == old.co_code
    assert new.co_names == old.co_names
    assert _bits(new.co_consts) == _bits(old.co_consts)


def test_twelve_typed_values_are_derived():
    # three series coefficients in each of four shapes
    shape_consts = [c for family in TYPED_SHAPES for c in _float_consts(TYPED_SHAPES[family])
                    if c not in (1.0, 0.5, 2.0)]
    assert len(shape_consts) == 12
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
