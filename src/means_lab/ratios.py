"""The ratio functions whose ranges are exactly the valid weight intervals
of the weighted-mean bounds, the auxiliary sign functions used to pin the
geometric-quadratic pair, and the sharp constants themselves.

phi_hq(t) is (Q-M)/(Q-H) after the substitutions x = (a-b)/(a+b), x = sinh(t);
phi_hc(t) is (C-M)/(C-H); ratio_gq(x) is (Q-M)/(Q-G).  Each is a quotient of
two odd power series, so near the removable 0/0 point at the origin the
closed forms lose roughly 2*log10(1/t) digits to cancellation; below
``SERIES_SWITCH`` they are evaluated from truncated series instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum, unique
from typing import Callable, NamedTuple

from .exceptions import DomainError, check_real, check_type
from .means import stable_asinh
from .series import CoefficientKind, _horner, solve_p0, truncated_quotient

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


@dataclass(frozen=True)
class SharpConstants:
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


def _phi_hq_closed(t: float) -> float:
    ch = math.cosh(t)
    sh = math.sinh(t)
    sh_half = math.sinh(0.5 * t)
    # cosh(2t)/2 + cosh(t) - 3/2 == sinh(t)^2 + 2*sinh(t/2)^2, cancellation-free
    return (t * ch - sh) / (t * (sh * sh + 2.0 * sh_half * sh_half))


def _phi_hc_closed(t: float) -> float:
    ch = math.cosh(t)
    sh = math.sinh(t)
    # numerator t*(cosh(2t)+1) - 2*sinh(t) == 2*(t*cosh(t)^2 - sinh(t)),
    # denominator 2t*(cosh(2t)-1) == 4t*sinh(t)^2
    return (t * ch * ch - sh) / (2.0 * t * sh * sh)


# Series of (sqrt(1+x^2)*asinh(x) - x)/x^3 and of
# ((sqrt(1+x^2)-sqrt(1-x^2))*asinh(x))/x^3, exact rational coefficients.
_GQ_NUM_COEFFS = (
    1.0 / 3.0, -2.0 / 15.0, 8.0 / 105.0, -16.0 / 315.0, 128.0 / 3465.0,
    -256.0 / 9009.0, 1024.0 / 45045.0, -2048.0 / 109395.0,
)
_GQ_DEN_COEFFS = (
    1.0, -1.0 / 6.0, 1.0 / 5.0, -11.0 / 168.0, 17.0 / 180.0,
    -137.0 / 3696.0, 269.0 / 4680.0, -173.0 / 7040.0,
)


def _ratio_gq_closed(x: float) -> float:
    s1 = math.sqrt(1.0 + x * x)
    s2 = math.sqrt(1.0 - x * x)
    ah = stable_asinh(x)
    # s1 - s2 == 2x^2/(s1+s2), cancellation-free
    return (s1 * ah - x) / ((2.0 * x * x / (s1 + s2)) * ah)


class _RatioRow(NamedTuple):
    """One ratio function: its series form (used below SERIES_SWITCH and
    exact at 0), its closed form, the upper end hi of its open domain
    (0, hi), and the SharpConstants fields of its limits at 0 and at hi.
    An even function also accepts -hi < t < 0."""

    series: Callable[[float], float]
    closed: Callable[[float], float]
    hi: float
    lower: str
    upper: str
    even: bool = False


# The series lambdas read truncated_quotient at call time, so a rebinding of
# the module global is seen.
_RATIO_ROWS = {
    RatioFunctionKind.PHI_HQ: _RatioRow(
        lambda t: truncated_quotient(CoefficientKind.A, CoefficientKind.B, t, _SERIES_TERMS),
        _phi_hq_closed, ASINH_ONE, "alpha1", "lambda0"),
    RatioFunctionKind.PHI_HC: _RatioRow(
        lambda t: truncated_quotient(CoefficientKind.C, CoefficientKind.D, t, _SERIES_TERMS),
        _phi_hc_closed, ASINH_ONE, "beta3", "alpha3", even=True),
    RatioFunctionKind.RATIO_GQ: _RatioRow(
        lambda x: _horner(_GQ_NUM_COEFFS, x * x) / _horner(_GQ_DEN_COEFFS, x * x),
        _ratio_gq_closed, 1.0, "alpha2", "lambda0"),
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
            return row.series(u) if u < SERIES_SWITCH else row.closed(u)
    row = _row(kind)
    raise DomainError(f"{kind.value} needs 0 < {'|t|' if row.even else 't'} < {row.hi!r}, got {t!r}")


def _ratio_column(kind: RatioFunctionKind, ts) -> list[float]:
    """evaluate_ratio_function(kind, t) for each t of ts in (0, hi), unchecked."""
    series, closed = _RATIO_ROWS[kind][:2]
    return [series(t) if t < SERIES_SWITCH else closed(t) for t in ts]


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
    return row.series(0.0) if _is_lower(end) else row.closed(row.hi)


# --- auxiliary sign functions -------------------------------------------

_ASINH_DEFICIT_COEFFS = (
    1.0 / 6.0, -3.0 / 40.0, 5.0 / 112.0, -35.0 / 1152.0, 63.0 / 2816.0,
    -231.0 / 13312.0, 143.0 / 10240.0, -6435.0 / 557056.0, 12155.0 / 1245184.0,
    -46189.0 / 5505024.0, 88179.0 / 12058624.0,
)


def _asinh_deficit(x: float) -> float:
    """x - asinh(x), computed with full relative accuracy also for small x
    where the direct subtraction would cancel."""
    if x < 0.1:
        return x * x * x * _horner(_ASINH_DEFICIT_COEFFS, x * x)
    return x - stable_asinh(x)


def f_p(p: float, x: float) -> float:
    """asinh(x) - x/(sqrt(1+x^2) - p(sqrt(1+x^2) - sqrt(1-x^2))): negative
    on (0,1) for p = 1/3, positive for p = lambda0.

    Rearranged as x*(den-1)/den - (x - asinh(x)) so both O(x^3) pieces keep
    full relative accuracy; the naive form loses the sign for x below ~1e-3.
    """
    p = check_real("weight p", p, 0.0, 1.0, lo_open=True, hi_open=True)
    x = check_real("x", x, 0.0, 1.0)
    if x == 0.0:
        return 0.0
    s1 = math.sqrt(1.0 + x * x)
    s2 = math.sqrt(1.0 - x * x)
    den = s1 - p * (s1 - s2)  # (1-p)*s1 + p*s2 >= 1-p > 0
    # den - 1 = (1-p)(s1-1) - p(1-s2), each factor cancellation-free
    den_minus_1 = x * x * ((1.0 - p) / (1.0 + s1) - p / (1.0 + s2))
    return x * den_minus_1 / den - _asinh_deficit(x)


def g_p(p: float, x: float) -> float:
    """Numerator of f_p's derivative: sign analysis auxiliary."""
    p = check_real("weight p", p, 0.0, 1.0, lo_open=True, hi_open=True)
    x = check_real("x", x, 0.0, 1.0)
    s1 = math.sqrt(1.0 + x * x)
    s2 = math.sqrt(1.0 - x * x)
    w = s1 + p * (s2 - s1)
    return s2 * w * w - s2 - p * (s1 - s2)


def h_onethird(x: float) -> float:
    """Scaled derivative factor of g at weight 1/3; strictly negative on (0,1]."""
    x = check_real("x", x, 0.0, 1.0)
    s1 = math.sqrt(1.0 + x * x)
    s2 = math.sqrt(1.0 - x * x)
    return 14.0 / (9.0 * (s1 + s2)) - (s1 + s2) - s2 / 3.0


def h_lambda0(x: float) -> float:
    """Scaled derivative factor of g at weight lambda0; positive then
    negative on (0, 1) with a single sign change."""
    x = check_real("x", x, 0.0, 1.0)
    lam = sharp_constants().lambda0
    s1 = math.sqrt(1.0 + x * x)
    s2 = math.sqrt(1.0 - x * x)
    sq = x * x
    first = (2.0 - 3.0 * lam - 2.0 * lam * lam) - (3.0 - 6.0 * lam) * sq
    second = (3.0 * lam - 2.0 * lam * lam) + (6.0 * lam - 6.0 * lam * lam) * sq
    return first * s1 - second * s2


def mu_lambda0(x: float) -> float:
    """Scaled derivative factor of h_lambda0; strictly negative on (0, 0.9]."""
    x = check_real("x", x, 0.0, 0.9)
    lam = sharp_constants().lambda0
    s1 = math.sqrt(1.0 + x * x)
    s2 = math.sqrt(1.0 - x * x)
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
