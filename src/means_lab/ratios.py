"""The ratio functions whose ranges are exactly the valid weight intervals
of the weighted-mean bounds, the auxiliary sign functions used to pin the
geometric-quadratic pair, and the sharp constants themselves.

phi_hq(t) is (Q-M)/(Q-H) after the substitutions x = (a-b)/(a+b), x = sinh(t);
phi_hc(t) is (C-M)/(C-H); ratio_gq(x) is (Q-M)/(Q-G).  Near the removable 0/0
point at the origin the closed forms lose roughly 2*log10(1/t) digits to
cancellation; below ``SERIES_SWITCH`` they are evaluated from truncated series
instead, ratio_gq's as phi_hq's at asinh(x) times an algebraic factor.
Each is stated once, as source text in ``_RATIO_ROWS`` (an unrolled Horner
quotient below the switch, the closed form above), which ``means._compiled``
compiles on first use into one column kernel: the recovery scan runs it on
its points, ``evaluate_ratio_function`` and ``endpoint_value`` on one row.
Each row also holds its limits at 0 and at hi as (closed form, value), and
``_THEOREMS`` gives each theorem's two means and ratio function: its lower
claim weighs at that function's supremum and its upper claim at its infimum,
each sharp at the end whose limit that is.
f_p, the paper's sign lemma for theorem 1.2, is ratio_gq - p times positive
factors; g_p, h_onethird, h_lambda0 and mu_lambda0 hold its spot values.
"""

from __future__ import annotations

import functools
import math
from enum import Enum, unique

from .exceptions import DomainError, Record, check_real, check_type, shown
# nothing here calls stable_asinh or truncated_quotient: they are imported
# because perfbench/tracer.py rebinds both
from .means import CONTRA_HARMONIC, GEOMETRIC, HARMONIC, QUADRATIC, _compiled, stable_asinh
from .series import CoefficientKind, _float_coefficients, solve_p0, truncated_quotient

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


@unique
class RatioFunctionKind(Enum):
    PHI_HQ = "phi-hq"
    PHI_HC = "phi-hc"
    RATIO_GQ = "ratio-gq"


@unique
class Endpoint(Enum):
    LOWER = "lower"
    UPPER = "upper"


def _quotient_source(num: tuple[float, ...], den: tuple[float, ...], s: str = "s") -> str:
    """The source of _horner(num, s) / _horner(den, s), each unrolled, with s
    the series variable's source: the loop's first step, 0.0 * s + c, is c."""
    sources = []
    for coeffs in (num, den):
        source = repr(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            source = f"({source} * {s} + {c!r})"
        sources.append(source)
    return " / ".join(sources)


def _column_source(series: str, closed: str, *steps: tuple[str, str]) -> str:
    """The source of make() -> kernel ts -> [f(t) for t in ts]: series below
    SERIES_SWITCH, else closed, over s = t*t and the (name, source) bindings steps."""
    binds = "".join(f" for {name} in [{source}]" for name, source in (("s", "t * t"),) + steps)
    return (f"def make():\n return lambda ts: [{series} if t < {SERIES_SWITCH!r} else {closed}"
            f" for t in ts{binds}]\n")


class _RatioRow(Record):
    """One ratio function: the source of its column kernel, from its series
    below SERIES_SWITCH (exact at 0) and its closed form above, the upper
    end hi of its open domain (0, hi), and its limits at 0 and at hi, each
    as (closed form, value).  An even function also accepts -hi < t < 0."""

    source: str
    hi: float
    lower: tuple[str, float]
    upper: tuple[str, float]
    even: bool = False


_A, _B, _C, _D = (_float_coefficients(kind, _SERIES_TERMS) for kind in CoefficientKind)
_LAMBDA0 = ("1 - 1/(sqrt(2)*log(1+sqrt(2)))", 1.0 - 1.0 / (math.sqrt(2.0) * ASINH_ONE))

# The closed forms are cancellation-free: phi_hq's cosh(2t)/2 + cosh(t) - 3/2 is
# sinh(t)^2 + 2*sinh(t/2)^2, phi_hc's t*(cosh(2t)+1) - 2*sinh(t) is 2*(t*cosh(t)^2 - sinh(t))
# and 2t*(cosh(2t)-1) is 4t*sinh(t)^2, and ratio_gq's s1 - s2 is 2x^2/(s1+s2), with x = t and
# s2 = sqrt((1-x)(1+x)).  ratio_gq is phi_hq(ah) times (Q-H)/(Q-G) = (s1+s2)(s1+2)/(2(s1+1)), as H = G^2.
_RATIO_ROWS = {
    RatioFunctionKind.PHI_HQ: _RatioRow(_column_source(
        _quotient_source(_A, _B), "(t * ch - sh) / (t * (sh * sh + 2.0 * sh_half * sh_half))",
        ("ch", "cosh(t)"), ("sh", "sinh(t)"), ("sh_half", "sinh(0.5 * t)")),
        ASINH_ONE, ("2/9", 2.0 / 9.0), _LAMBDA0),
    RatioFunctionKind.PHI_HC: _RatioRow(_column_source(
        _quotient_source(_C, _D), "(t * ch * ch - sh) / (2.0 * t * sh * sh)",
        ("ch", "cosh(t)"), ("sh", "sinh(t)")),
        ASINH_ONE, ("5/12", 5.0 / 12.0), ("1 - 1/(2*log(1+sqrt(2)))", 1.0 - 1.0 / (2.0 * ASINH_ONE)),
        even=True),
    RatioFunctionKind.RATIO_GQ: _RatioRow(_column_source(
        f"{_quotient_source(_A, _B, '(ah * ah)')} * ((s1 + s2) * (s1 + 2.0) / (2.0 * (s1 + 1.0)))",
        "(s1 * ah - t) / ((2.0 * s / (s1 + s2)) * ah)",
        ("s1", "sqrt(1.0 + s)"), ("s2", "sqrt((1.0 - t) * (1.0 + t))"), ("ah", "asinh(t)")),
        1.0, ("1/3", 1.0 / 3.0), _LAMBDA0),
}

_THEOREMS = {
    "1.1": (HARMONIC, QUADRATIC, RatioFunctionKind.PHI_HQ),
    "1.2": (GEOMETRIC, QUADRATIC, RatioFunctionKind.RATIO_GQ),
    "1.3": (HARMONIC, CONTRA_HARMONIC, RatioFunctionKind.PHI_HC),
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
            return _column(kind)([u])[0]
    row = _row(kind)
    raise DomainError(f"{kind.value} needs 0 < {'|t|' if row.even else 't'} < {row.hi!r}, got {shown(t)}")


@functools.cache
def _column(kind: RatioFunctionKind):
    """kind's column kernel, ts -> [evaluate_ratio_function(kind, t) for t
    in ts], each t in [0, hi] and unchecked, built once per process."""
    return _compiled(_RATIO_ROWS[kind].source)()


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
    return (row.lower if _is_lower(end) else row.upper)[1]


def _sharp_limits(kind: RatioFunctionKind) -> list[tuple[Endpoint, str, float]]:
    """kind's two limits as (end, closed form, value), the supremum first:
    each ratio function is monotone, so its range lies between them."""
    row = _RATIO_ROWS[kind]
    return sorted([(Endpoint.LOWER, *row.lower), (Endpoint.UPPER, *row.upper)], key=lambda lim: -lim[2])


@functools.cache
def sharp_constants() -> SharpConstants:
    """The six sharp weights, each theorem's supremum then infimum of its
    ratio function, read from the closed-form limits in _RATIO_ROWS, with
    lambda0 and the exponent p0 bisected to 1e-12; computed once per process."""
    weights = [value for _, _, kind in _THEOREMS.values() for _, _, value in _sharp_limits(kind)]
    return SharpConstants(*weights, lambda0=_LAMBDA0[1], p0=solve_p0(1e-12))


def endpoint_value(kind: RatioFunctionKind, end: Endpoint) -> float:
    """Continuous-extension value at a domain endpoint, computed numerically
    from the defining expressions (the recovery-side counterpart of the
    closed-form limit_at): the series at 0, the closed form at hi."""
    row = _row(kind)
    return _column(kind)([0.0 if _is_lower(end) else row.hi])[0]


# --- auxiliary sign functions -------------------------------------------

def _lemma_arg(x, hi: float) -> tuple[float, float, float]:
    """x checked to lie in [0, hi], with sqrt(1+x^2) and sqrt(1-x^2), the
    latter as sqrt((1-x)(1+x)), which does not cancel as x -> 1."""
    x = check_real("x", x, 0.0, hi)
    return x, math.sqrt(1.0 + x * x), math.sqrt((1.0 - x) * (1.0 + x))


def f_p(p: float, x: float) -> float:
    """asinh(x) - x/(sqrt(1+x^2) - p(sqrt(1+x^2) - sqrt(1-x^2))): negative
    on (0,1) for p = 1/3, positive for p = lambda0.

    With Q = sqrt(1+x^2), G = sqrt(1-x^2), d = Q - G and r = ratio_gq(x),
    asinh(x) = x/M for M = Q - r*d, so f_p is x*(r - p)*d / (M*(Q - p*d)),
    which has the sign of ratio_gq(x) - p.
    """
    p = check_real("weight p", p, 0.0, 1.0, lo_open=True, hi_open=True)
    x, s1, s2 = _lemma_arg(x, 1.0)
    if x == 0.0:
        return 0.0
    d = 2.0 * x * x / (s1 + s2)
    r = _column(RatioFunctionKind.RATIO_GQ)([x])[0]
    # Q - p*d = (1-p)*Q + p*G >= 1-p > 0
    return x * (r - p) * d / ((s1 - r * d) * (s1 - p * d))


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
