"""The ratio functions whose ranges are exactly the valid weight intervals
of the weighted-mean bounds, the auxiliary sign functions used to pin the
geometric-quadratic pair, and the sharp constants themselves.

phi_hq(t) is (Q-M)/(Q-H) after the substitutions x = (a-b)/(a+b), x = sinh(t);
phi_hc(t) is (C-M)/(C-H); ratio_gq(x) is (Q-M)/(Q-G).  Each is a quotient of
two odd power series, so near the removable 0/0 point at the origin the
closed forms lose roughly 2*log10(1/t) digits to cancellation; below
``SERIES_SWITCH`` they are evaluated from truncated series instead.
Each is stated once, as source text in ``_RATIO_ROWS`` (an unrolled Horner
quotient below the switch, the closed form above), which ``means._compiled``
compiles on first use into one column kernel: the recovery scan runs it on
its points, ``evaluate_ratio_function`` and ``endpoint_value`` on one row.
"""

from __future__ import annotations

import functools
import math
from enum import Enum, unique

from .exceptions import DomainError, Record, check_real, check_type, shown
# the columns read neither stable_asinh, which only _asinh_deficit calls, nor
# truncated_quotient: perfbench/tracer.py rebinds both
from .means import _compiled, stable_asinh
from .series import (CoefficientKind, _float_coefficients, _horner, _maclaurin, _product, solve_p0,
                     truncated_quotient)

__all__ = [
    "SharpConstants",
    "sharp_constants",
    "RatioFunctionKind",
    "Endpoint",
    "ASINH_ONE",
    "SERIES_SWITCH",
    "phi_hq",
    "phi_hc",
    "ratio_gq",
    "evaluate_ratio_function",
    "ratio_function_domain",
    "limit_at",
    "endpoint_value",
    "f_p",
    "g_p",
    "h_onethird",
    "h_lambda0",
    "mu_lambda0",
    "locate_h_lambda0_sign_change",
]

# asinh(1) = log(1 + sqrt(2)), the upper end of the t-domain.
ASINH_ONE = math.asinh(1.0)

# Below this argument the quotients switch to truncated series; at the
# switch the closed forms still carry ~3*eps/t^2 ~ 1.7e-12 relative error,
# the series ~1e-20.
SERIES_SWITCH = 0.02

_SERIES_TERMS = 10


class SharpConstants(Record):
    """The sharp weights of the three double inequalities, plus the shared
    endpoint constant lambda0 and the exponent p0 of the generalized-log
    sandwich."""

    alpha1: float
    beta1: float
    alpha2: float
    beta2: float
    alpha3: float
    beta3: float
    lambda0: float
    p0: float


@functools.cache
def sharp_constants() -> SharpConstants:
    lambda0 = 1.0 - 1.0 / (math.sqrt(2.0) * ASINH_ONE)
    return SharpConstants(
        alpha1=2.0 / 9.0,
        beta1=lambda0,
        alpha2=1.0 / 3.0,
        beta2=lambda0,
        alpha3=1.0 - 1.0 / (2.0 * ASINH_ONE),
        beta3=5.0 / 12.0,
        lambda0=lambda0,
        p0=solve_p0(1e-12),
    )


@unique
class RatioFunctionKind(Enum):
    PHI_HQ = "phi-hq"
    PHI_HC = "phi-hc"
    RATIO_GQ = "ratio-gq"


@unique
class Endpoint(Enum):
    LOWER = "lower"
    UPPER = "upper"


# With A = asinh(x)/x and S1, S2 = sqrt(1 +- s): the series (S1*A - 1)/s of (sqrt(1+x^2)*asinh(x) - x)/x^3
# and ((S1 - S2)/s)*A of (sqrt(1+x^2) - sqrt(1-x^2))*asinh(x)/x^3, rounded from the exact coefficients.
_ASINH, _S1, _S2 = _maclaurin("asinh", 12), _maclaurin("sqrt+", 9), _maclaurin("sqrt-", 9)
_GQ_NUM_COEFFS = tuple(map(float, _product(_S1, _ASINH)[1:]))
_GQ_DEN_COEFFS = tuple(map(float, _product([p - m for p, m in zip(_S1[1:], _S2[1:])], _ASINH)))


def _quotient_source(num: tuple[float, ...], den: tuple[float, ...]) -> str:
    """The source of _horner(num, s) / _horner(den, s), each unrolled: the
    loop's first step, 0.0 * s + c, is c."""
    sources = []
    for coeffs in (num, den):
        source = repr(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            source = f"({source} * s + {c!r})"
        sources.append(source)
    return " / ".join(sources)


def _column_source(series: str, closed: str, *steps: tuple[str, str]) -> str:
    """The source of make() -> kernel ts -> [f(t) for t in ts]: series, in s = t*t,
    below SERIES_SWITCH, else closed, over the (name, source) bindings steps."""
    binds = "".join(f" for {name} in [{source}]" for name, source in (("s", "t * t"),) + steps)
    return (f"def make():\n return lambda ts: [{series} if t < {SERIES_SWITCH!r} else {closed}"
            f" for t in ts{binds}]\n")


class _RatioRow(Record):
    """One ratio function: the source of its column kernel, from its series
    below SERIES_SWITCH (exact at 0) and its closed form above, the upper
    end hi of its open domain (0, hi), and the SharpConstants fields of its
    limits at 0 and at hi.  An even function also accepts -hi < t < 0."""

    source: str
    hi: float
    lower: str
    upper: str
    even: bool = False


_A, _B, _C, _D = (_float_coefficients(kind, _SERIES_TERMS) for kind in CoefficientKind)

# The closed forms are cancellation-free: phi_hq's cosh(2t)/2 + cosh(t) - 3/2 is
# sinh(t)^2 + 2*sinh(t/2)^2, phi_hc's t*(cosh(2t)+1) - 2*sinh(t) is 2*(t*cosh(t)^2 - sinh(t))
# and 2t*(cosh(2t)-1) is 4t*sinh(t)^2, and ratio_gq's s1 - s2 is 2x^2/(s1+s2), with x = t.
_RATIO_ROWS = {
    RatioFunctionKind.PHI_HQ: _RatioRow(_column_source(
        _quotient_source(_A, _B), "(t * ch - sh) / (t * (sh * sh + 2.0 * sh_half * sh_half))",
        ("ch", "cosh(t)"), ("sh", "sinh(t)"), ("sh_half", "sinh(0.5 * t)")),
        ASINH_ONE, "alpha1", "lambda0"),
    RatioFunctionKind.PHI_HC: _RatioRow(_column_source(
        _quotient_source(_C, _D), "(t * ch * ch - sh) / (2.0 * t * sh * sh)",
        ("ch", "cosh(t)"), ("sh", "sinh(t)")),
        ASINH_ONE, "beta3", "alpha3", even=True),
    RatioFunctionKind.RATIO_GQ: _RatioRow(_column_source(
        _quotient_source(_GQ_NUM_COEFFS, _GQ_DEN_COEFFS),
        "(s1 * ah - t) / ((2.0 * t * t / (s1 + s2)) * ah)",
        ("s1", "sqrt(1.0 + s)"), ("s2", "sqrt(1.0 - s)"), ("ah", "asinh(t)")),
        1.0, "alpha2", "lambda0"),
}


def _row(kind: RatioFunctionKind) -> _RatioRow:
    return _RATIO_ROWS[check_type("ratio function kind", kind, RatioFunctionKind)]


def _is_lower(end: Endpoint) -> bool:
    return check_type("endpoint", end, Endpoint) is Endpoint.LOWER


def evaluate_ratio_function(kind: RatioFunctionKind, t: float) -> float:
    """The ratio function kind at t, from its series below SERIES_SWITCH
    and its closed form above."""
    # checked inline, not by calls: this runs once per golden-section step of
    # recover_constant
    if isinstance(kind, RatioFunctionKind) and isinstance(t, (int, float)) and not isinstance(t, bool):
        row = _RATIO_ROWS[kind]
        u = -t if row.even and t < 0.0 else t
        if 0.0 < u < row.hi:
            return _compiled(row.source)()([u])[0]
    row = _row(kind)
    raise DomainError(f"{kind.value} needs 0 < {'|t|' if row.even else 't'} < {row.hi!r}, got {shown(t)}")


def _ratio_column(kind: RatioFunctionKind, ts) -> list[float]:
    """evaluate_ratio_function(kind, t) for each t of ts in [0, hi], unchecked,
    by kind's column kernel, compiled on first use."""
    return _compiled(_RATIO_ROWS[kind].source)()(ts)


def phi_hq(t: float) -> float:
    """(Q-M)/(Q-H) in the t-coordinate; strictly decreasing on
    (0, log(1+sqrt(2))) from 2/9 down to lambda0."""
    return evaluate_ratio_function(RatioFunctionKind.PHI_HQ, t)


def phi_hc(t: float) -> float:
    """(C-M)/(C-H) in the t-coordinate; even, strictly increasing on
    (0, log(1+sqrt(2))) from 5/12 up to 1 - 1/(2 log(1+sqrt(2)))."""
    return evaluate_ratio_function(RatioFunctionKind.PHI_HC, t)


def ratio_gq(x: float) -> float:
    """(Q-M)/(Q-G) in the gap coordinate; range (lambda0, 1/3) on (0, 1)
    with the endpoints attained in the limits."""
    return evaluate_ratio_function(RatioFunctionKind.RATIO_GQ, x)


def ratio_function_domain(kind: RatioFunctionKind) -> tuple[float, float]:
    """Open domain endpoints of a ratio function's argument."""
    return (0.0, _row(kind).hi)


def limit_at(kind: RatioFunctionKind, end: Endpoint) -> float:
    """Closed-form endpoint limits: these are the sharp constants, exposed
    directly rather than extrapolated."""
    row = _row(kind)
    return getattr(sharp_constants(), row.lower if _is_lower(end) else row.upper)


def endpoint_value(kind: RatioFunctionKind, end: Endpoint) -> float:
    """Continuous-extension value at a domain endpoint, computed numerically
    from the defining expressions (the recovery-side counterpart of the
    closed-form limit_at): the series at 0, the closed form at hi."""
    row = _row(kind)
    return _ratio_column(kind, [0.0 if _is_lower(end) else row.hi])[0]


# --- auxiliary sign functions -------------------------------------------

# x - asinh(x) = x^3 * (-(A - 1)/s)
_ASINH_DEFICIT_COEFFS = tuple(-float(c) for c in _ASINH[1:])


def _asinh_deficit(x: float) -> float:
    """x - asinh(x), computed with full relative accuracy also for small x
    where the direct subtraction would cancel."""
    if x < 0.1:
        return x * x * x * _horner(_ASINH_DEFICIT_COEFFS, x * x)
    return x - stable_asinh(x)


def _lemma_arg(x, hi: float) -> tuple[float, float, float]:
    """x checked to lie in [0, hi], with sqrt(1+x^2) and sqrt(1-x^2)."""
    x = check_real("x", x, 0.0, hi)
    return x, math.sqrt(1.0 + x * x), math.sqrt(1.0 - x * x)


def f_p(p: float, x: float) -> float:
    """asinh(x) - x/(sqrt(1+x^2) - p(sqrt(1+x^2) - sqrt(1-x^2))): negative
    on (0,1) for p = 1/3, positive for p = lambda0.

    Rearranged as x*(den-1)/den - (x - asinh(x)) so both O(x^3) pieces keep
    full relative accuracy; the naive form loses the sign for x below ~1e-3.
    """
    p = check_real("weight p", p, 0.0, 1.0, lo_open=True, hi_open=True)
    x, s1, s2 = _lemma_arg(x, 1.0)
    if x == 0.0:
        return 0.0
    den = s1 - p * (s1 - s2)  # (1-p)*s1 + p*s2 >= 1-p > 0
    # den - 1 = (1-p)(s1-1) - p(1-s2), each factor cancellation-free
    den_minus_1 = x * x * ((1.0 - p) / (1.0 + s1) - p / (1.0 + s2))
    return x * den_minus_1 / den - _asinh_deficit(x)


def g_p(p: float, x: float) -> float:
    """Numerator of f_p's derivative: sign analysis auxiliary."""
    p = check_real("weight p", p, 0.0, 1.0, lo_open=True, hi_open=True)
    x, s1, s2 = _lemma_arg(x, 1.0)
    w = s1 + p * (s2 - s1)
    return s2 * w * w - s2 - p * (s1 - s2)


def h_onethird(x: float) -> float:
    """Scaled derivative factor of g at weight 1/3; strictly negative on (0,1]."""
    x, s1, s2 = _lemma_arg(x, 1.0)
    return 14.0 / (9.0 * (s1 + s2)) - (s1 + s2) - s2 / 3.0


def h_lambda0(x: float) -> float:
    """Scaled derivative factor of g at weight lambda0; positive then
    negative on (0, 1) with a single sign change."""
    x, s1, s2 = _lemma_arg(x, 1.0)
    lam = sharp_constants().lambda0
    sq = x * x
    first = (2.0 - 3.0 * lam - 2.0 * lam * lam) - (3.0 - 6.0 * lam) * sq
    second = (3.0 * lam - 2.0 * lam * lam) + (6.0 * lam - 6.0 * lam * lam) * sq
    return first * s1 - second * s2


def mu_lambda0(x: float) -> float:
    """Scaled derivative factor of h_lambda0; strictly negative on (0, 0.9]."""
    x, s1, s2 = _lemma_arg(x, 0.9)
    lam = sharp_constants().lambda0
    sq = x * x
    first = (18.0 * lam - 18.0 * lam * lam) * sq - (9.0 * lam - 10.0 * lam * lam)
    second = (9.0 - 18.0 * lam) * sq + (4.0 - 9.0 * lam + 2.0 * lam * lam)
    return first * s1 - second * s2


_SIGN_SCAN_POINTS = 10_000  # isolate the one sign change of h_lambda0 on (0, 0.9)


def locate_h_lambda0_sign_change() -> float:
    """The unique root of h_lambda0 in (0, 0.9), as the float just below it: a
    grid scan checks there is one sign change, and bisection narrows it."""
    n = _SIGN_SCAN_POINTS
    xs = [0.9 * k / n for k in range(n + 1)]
    values = [h_lambda0(x) for x in xs]
    flips = [i for i in range(n) if (values[i] > 0.0) != (values[i + 1] > 0.0)]
    # one flip, from a positive start, is the one bracket where h_lambda0 falls
    if len(flips) != 1 or values[0] <= 0.0:
        raise DomainError(f"expected exactly one sign change on (0, 0.9), found {len(flips)}")
    lo, hi = xs[flips[0]], xs[flips[0] + 1]
    # until lo and hi are adjacent, their midpoint rounds to a float between
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if h_lambda0(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo
