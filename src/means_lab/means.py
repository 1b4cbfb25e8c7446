"""Numerically stable evaluation of ten bivariate means of positive reals.

Every mean here is symmetric and homogeneous of degree 1, so evaluation is
reduced to the arithmetic mean A = (a+b)/2 times a shape factor that depends
only on the normalized gap x = |a-b|/(a+b).  The shape factors of the
logarithmic, Seiffert and related means are quotients x/f(x) with f one of
asinh, asin, atan, atanh; those are 0/0 at the diagonal and are evaluated
from truncated power series below ``SMALL_GAP`` so that the relative error
stays at the rounding level through the switch region.

The diagonal a = b, excluded from the classical definitions, is defined here
by continuity: every mean returns ``a`` exactly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum, unique

from .exceptions import DomainError, check_real, check_type

__all__ = [
    "MeanFamily",
    "MeanKind",
    "PositivePair",
    "HARMONIC",
    "GEOMETRIC",
    "LOGARITHMIC",
    "SEIFFERT_FIRST",
    "ARITHMETIC",
    "NEUMAN_SANDOR",
    "SEIFFERT_SECOND",
    "QUADRATIC",
    "CONTRA_HARMONIC",
    "CHAIN_ORDER",
    "generalized_log",
    "as_pair",
    "normalized_gap",
    "pair_from_gap",
    "evaluate_mean",
    "mean_shape",
    "stable_asinh",
]

# Gap below which the 0/0-shaped quotients switch to truncated series.
SMALL_GAP = 1e-4

# |p| and |p+1| windows inside which the generalized logarithmic mean uses
# the identric / logarithmic special cases.
_GLOG_SPECIAL_EPS = 1e-8

# |p| below which the generalized log mean uses the cumulant expansion of
# log((u^q - v^q)/(q(u-v))) around the identric point; above it, the direct
# log-space formula is accurate to ~eps/|p|.
_GLOG_CUMULANT_LIMIT = 3e-3

_LARGEST_GAP = math.nextafter(1.0, 0.0)


@unique
class MeanFamily(Enum):
    HARMONIC = "H"
    GEOMETRIC = "G"
    LOGARITHMIC = "L"
    SEIFFERT_FIRST = "P"
    ARITHMETIC = "A"
    NEUMAN_SANDOR = "M"
    SEIFFERT_SECOND = "T"
    QUADRATIC = "Q"
    CONTRA_HARMONIC = "C"
    GENERALIZED_LOG = "Lp"


@dataclass(frozen=True)
class MeanKind:
    """A mean family, plus the exponent for the generalized log family."""

    family: MeanFamily
    p: float | None = None

    def __post_init__(self) -> None:
        check_type("family", self.family, MeanFamily)
        if self.family is MeanFamily.GENERALIZED_LOG:
            object.__setattr__(self, "p", check_real("exponent p", self.p, -math.inf, math.inf,
                                                     lo_open=True, hi_open=True))
        elif self.p is not None:
            raise DomainError(f"{self.family.value} does not take a parameter")

    @property
    def token(self) -> str:
        if self.family is MeanFamily.GENERALIZED_LOG:
            return f"Lp:{self.p:g}"
        return self.family.value


HARMONIC = MeanKind(MeanFamily.HARMONIC)
GEOMETRIC = MeanKind(MeanFamily.GEOMETRIC)
LOGARITHMIC = MeanKind(MeanFamily.LOGARITHMIC)
SEIFFERT_FIRST = MeanKind(MeanFamily.SEIFFERT_FIRST)
ARITHMETIC = MeanKind(MeanFamily.ARITHMETIC)
NEUMAN_SANDOR = MeanKind(MeanFamily.NEUMAN_SANDOR)
SEIFFERT_SECOND = MeanKind(MeanFamily.SEIFFERT_SECOND)
QUADRATIC = MeanKind(MeanFamily.QUADRATIC)
CONTRA_HARMONIC = MeanKind(MeanFamily.CONTRA_HARMONIC)

# The nine parameter-free means in strictly increasing pointwise order
# (for any a != b): H < G < L < P < A < M < T < Q < C.
CHAIN_ORDER = (
    HARMONIC,
    GEOMETRIC,
    LOGARITHMIC,
    SEIFFERT_FIRST,
    ARITHMETIC,
    NEUMAN_SANDOR,
    SEIFFERT_SECOND,
    QUADRATIC,
    CONTRA_HARMONIC,
)


def generalized_log(p: float) -> MeanKind:
    """Generalized logarithmic mean L_p; L_-1 is logarithmic, L_0 identric,
    L_1 arithmetic."""
    return MeanKind(MeanFamily.GENERALIZED_LOG, p)


@dataclass(frozen=True)
class PositivePair:
    """An unordered pair of positive reals, the argument of every mean."""

    a: float
    b: float

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            object.__setattr__(self, name, check_real(
                "pair entry", getattr(self, name), 0.0, math.inf, lo_open=True, hi_open=True))

    @property
    def lo(self) -> float:
        return min(self.a, self.b)

    @property
    def hi(self) -> float:
        return max(self.a, self.b)


def as_pair(value) -> PositivePair:
    if isinstance(value, PositivePair):
        return value
    try:
        a, b = value
    except (TypeError, ValueError):
        raise DomainError(f"cannot interpret {value!r} as a pair") from None
    return PositivePair(a, b)


def normalized_gap(pair) -> float:
    """|a-b|/(a+b), in [0, 1)."""
    p = as_pair(pair)
    lo, hi = p.lo, p.hi
    s = lo + hi
    if math.isinf(s):
        lo, hi, s = 0.25 * lo, 0.25 * hi, 0.25 * lo + 0.25 * hi
    return min((hi - lo) / s, _LARGEST_GAP)


def pair_from_gap(x: float, scale: float) -> PositivePair:
    """The pair (scale*(1+x), scale*(1-x)), whose normalized gap is x."""
    x = check_real("gap", x, 0.0, 1.0, hi_open=True)
    scale = check_real("scale", scale, 0.0, math.inf, lo_open=True, hi_open=True)
    return PositivePair(scale * (1.0 + x), scale * (1.0 - x))


# libm's asinh.  glibc evaluates it for |x| <= 2 in the cancellation-free
# form log1p(x + x^2/(1 + sqrt(1 + x^2))), and it stays finite to the top of
# the float range.
stable_asinh = math.asinh


# --- shape factors ------------------------------------------------------
#
# Each shape kernel maps the columns (xs, vs) to the column of
# mean((1+x, 1-x)) for the unit arithmetic mean, with v the exact complement
# 1-x of the gap x, in one list comprehension: a column costs one Python call,
# not one per point.  The series below are the Maclaurin expansions of
# f(x)/x in s = x^2, truncated after x^6; at the SMALL_GAP switch the omitted
# x^8 term is below 1e-32 relative.


def _neuman_sandor_shapes(xs: list[float], vs: list[float]) -> list[float]:
    return [1.0 / (1.0 + (s := x * x) * (-1.0 / 6.0 + s * (3.0 / 40.0 + s * (-15.0 / 336.0))))
            if x < SMALL_GAP else x / stable_asinh(x) for x in xs]


def _seiffert_second_shapes(xs: list[float], vs: list[float]) -> list[float]:
    return [1.0 / (1.0 + (s := x * x) * (-1.0 / 3.0 + s * (1.0 / 5.0 + s * (-1.0 / 7.0))))
            if x < SMALL_GAP else x / math.atan(x) for x in xs]


def _seiffert_first_shapes(xs: list[float], vs: list[float]) -> list[float]:
    # past 0.5, asin(x) = pi/2 - 2*asin(sqrt((1-x)/2)) keeps full accuracy as x -> 1
    return [1.0 / (1.0 + (s := x * x) * (1.0 / 6.0 + s * (3.0 / 40.0 + s * (15.0 / 336.0))))
            if x < SMALL_GAP else x / math.asin(x) if x <= 0.5
            else x / (0.5 * math.pi - 2.0 * math.asin(math.sqrt(0.5 * v)))
            for x, v in zip(xs, vs)]


def _logarithmic_shapes(xs: list[float], vs: list[float]) -> list[float]:
    # atanh(x), as 0.5*log((1+x)/v) from the exact complement v past 0.5
    return [1.0 / (1.0 + (s := x * x) * (1.0 / 3.0 + s * (1.0 / 5.0 + s * (1.0 / 7.0))))
            if x < SMALL_GAP else x / math.atanh(x) if x <= 0.5
            else x / (0.5 * math.log((1.0 + x) / v))
            for x, v in zip(xs, vs)]


# The shape kernel of every parameter-free family; L_p binds its exponent in
# _shape_fn.
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


def _log_expm1_ratio(w: float) -> float:
    """log((1 - exp(-w))/w) for w != 0, any sign, without overflow."""
    if w < 0.0:
        return -w + _log_expm1_ratio(-w)
    if w < 1e-3:
        return w * (-0.5 + w * (1.0 / 24.0 - w * w / 2880.0))
    return math.log(-math.expm1(-w) / w)


def _log_near_one(t: float) -> float:
    # t - 1 is exact for t in [0.5, 2] (Sterbenz), so log1p keeps full
    # absolute accuracy where plain log flattens near 1
    return math.log1p(t - 1.0) if t >= 0.5 else math.log(t)


def _glog_log_shape_cumulant(p: float, x: float, v: float) -> float:
    # Cumulant expansion of log[(u^q - v^q)/(q(u-v))]/p around p = 0, with
    # raw log-moments I_k = S_k - k*I_{k-1}; exact at p = 0 (identric mean).
    # Every ingredient is built from the same u, v floats: mixing x-based
    # logs with the quantized u - v shifts the exponent by ~eps/x.
    u = 1.0 + x
    d = u - v
    if d <= 0.0:
        return 0.0
    lu = _log_near_one(u)
    lv = _log_near_one(v) if v > 0.0 else 0.0
    s_prev_u = u * lu
    s_prev_v = 0.0 if v == 0.0 else v * lv
    moments = [1.0]
    for k in range(1, 6):
        moments.append((s_prev_u - s_prev_v) / d - k * moments[k - 1])
        s_prev_u *= lu
        s_prev_v *= lv
    i1, i2, i3, i4, i5 = moments[1:]
    k1 = i1
    k2 = i2 - i1 * i1
    k3 = i3 - 3.0 * i1 * i2 + 2.0 * i1**3
    k4 = i4 - 4.0 * i1 * i3 - 3.0 * i2 * i2 + 12.0 * i1 * i1 * i2 - 6.0 * i1**4
    k5 = (i5 - 5.0 * i4 * i1 - 10.0 * i3 * i2 + 20.0 * i3 * i1 * i1
          + 30.0 * i2 * i2 * i1 - 60.0 * i2 * i1**3 + 24.0 * i1**5)
    return k1 + p * (k2 / 2.0 + p * (k3 / 6.0 + p * (k4 / 24.0 + p * k5 / 120.0)))


def _glog_log_shape(p: float, x: float, v: float, half_log_ratio: float) -> float:
    """Log of the L_p shape, p not near -1, at gap x; v is the exact
    complement of x, half_log_ratio is atanh(x) (equivalently log(hi/lo)/2
    of the underlying pair)."""
    if x == 0.0:
        return 0.0
    if abs(p) < _GLOG_CUMULANT_LIMIT:
        return _glog_log_shape_cumulant(0.0 if abs(p) < _GLOG_SPECIAL_EPS else p, x, v)
    q = p + 1.0
    w = 2.0 * q * half_log_ratio
    if math.isinf(w):
        # exp(-|w|) is nil: log((1 - e^-w)/w) = max(-w, 0) - log|w|, with the
        # -w = -2q*atanh(x) part folded into q*log(1-x), all divided by p
        log_end = math.log1p(x) - (2.0 * half_log_ratio if q < 0.0 else 0.0)
        return (q / p) * log_end - (math.log(2.0 * x) + math.log(abs(q))) / p
    return (q * math.log1p(x) + _log_expm1_ratio(w) + math.log(half_log_ratio / x)) / p


def _shape_fn(kind: MeanKind):
    """The unchecked shape kernel (xs, vs) -> shapes of a kind, for
    0 <= x < 1 and v = 1-x."""
    p = kind.p
    if p is None:
        return _SHAPES[kind.family]
    if abs(p + 1.0) < _GLOG_SPECIAL_EPS:
        return _logarithmic_shapes
    # _glog_log_shape's main branch, for 1e-3 <= w < inf, inline with h = atanh(x)
    # up to 0.5, then 0.5*log((1+x)/v); other rows, and every row of a p in the
    # cumulant window, call it
    q = p + 1.0
    cut = 1e-3 if abs(p) >= _GLOG_CUMULANT_LIMIT else math.inf
    return lambda xs, vs: [
        math.exp((q * math.log1p(x) + math.log(-math.expm1(-w) / w) + math.log(h / x)) / p)
        if cut <= (w := 2.0 * q * (h := math.atanh(x) if x <= 0.5 else 0.5 * math.log((1.0 + x) / v))) < math.inf
        else math.exp(_glog_log_shape(p, x, v, h)) for x, v in zip(xs, vs)]


def mean_shape(kind: MeanKind, x: float) -> float:
    """Value of the mean on the pair (1+x, 1-x): the scale-free profile used
    by the certification grids, clamped into [1-x, 1+x].  Requires
    0 <= x < 1."""
    shape = _shape_fn(check_type("mean kind", kind, MeanKind))
    x = check_real("gap", x, 0.0, 1.0, hi_open=True)
    v = 1.0 - x
    return min(max(shape([x], [v])[0], v), 1.0 + x)


def _regular_means(kind: MeanKind, los, his, ss, hs, xs, vs) -> list[float]:
    """The column of the kind's means on rows with lo < hi, s = lo + hi
    finite, h = s/2, gap x and complement v = 2*lo/s, v > 0 for L and L_p:
    H and G from the pair, A as h, every other family as h times its shape,
    and L_p clamped into [lo, hi]."""
    fam = kind.family
    if fam is MeanFamily.HARMONIC:
        return [2.0 * lo * (hi / s) for lo, hi, s in zip(los, his, ss)]
    if fam is MeanFamily.GEOMETRIC:
        return [math.sqrt(lo) * math.sqrt(hi) for lo, hi in zip(los, his)]
    if fam is MeanFamily.ARITHMETIC:
        return hs.copy()
    col = list(map(operator.mul, hs, _shape_fn(kind)(xs, vs)))
    return col if kind.p is None else list(map(min, map(max, col, los), his))


def _mean(kind: MeanKind, lo: float, hi: float) -> float:
    """evaluate_mean without the argument checks: 0 < lo <= hi, both finite."""
    if lo == hi:
        return lo
    s = lo + hi
    if math.isinf(s):
        # exact power-of-two rescale keeps homogeneity bit-clean
        return 4.0 * _mean(kind, 0.25 * lo, 0.25 * hi)
    x = min((hi - lo) / s, _LARGEST_GAP)
    # 2*lo/s keeps the gap complement accurate where 1-x has already rounded
    # away; once it is below 1e-300 the log forms read log(hi/lo) directly
    v = 2.0 * lo / s
    p = kind.p
    if v < 1e-300 and (p is not None or kind.family is MeanFamily.LOGARITHMIC):
        log_ratio = math.log(hi) - math.log(lo)
        if _shape_fn(kind) is _logarithmic_shapes:  # L, and L_p near p = -1
            return (hi - lo) / log_ratio
        log_shape = _glog_log_shape(p, x, v, 0.5 * log_ratio)
        unit = math.exp(log_shape)
        # a shape at or past underflow has lost precision (only p < -1):
        # reassemble the mean in log space
        mean = 0.5 * s * unit if unit > 1e-300 else math.exp(log_shape + math.log(0.5 * s))
        return min(max(mean, lo), hi)
    return _regular_means(kind, [lo], [hi], [s], [0.5 * s], [x], [v])[0]


def _columns_fn(kinds):
    """(los, his) -> per kind the column [_mean(k, lo, hi) for lo, hi in
    zip(los, his)] bit for bit, for 0 < lo <= hi finite: one _regular_means
    column per kind, in which the rows with v outside [1e-300, 1) (the
    diagonal, a sum past max_float, the log forms) are replaced by _mean."""
    def columns(los: list[float], his: list[float]) -> list[list[float]]:
        ss = list(map(operator.add, los, his))
        vs = [2.0 * lo / s for lo, s in zip(los, ss)]
        # min((hi - lo) / s, _LARGEST_GAP) as min picks it, without a call per row
        xs = [_LARGEST_GAP if _LARGEST_GAP < (x := (hi - lo) / s) else x
              for lo, hi, s in zip(los, his, ss)]
        odd = [i for i, v in enumerate(vs) if not 1e-300 <= v < 1.0]
        for i in odd:  # v may be 0 here, and L's shape divides by v; every
            xs[i], vs[i] = 0.0, 1.0  # kernel is defined at the unit diagonal
        hs = [0.5 * s for s in ss]
        cols = []
        for kind in kinds:
            col = _regular_means(kind, los, his, ss, hs, xs, vs)
            for i in odd:
                col[i] = _mean(kind, los[i], his[i])
            cols.append(col)
        return cols

    return columns


def evaluate_mean(kind: MeanKind, pair) -> float:
    """Evaluate one mean on a pair of positive reals.

    Symmetric bit-exactly (the pair is canonicalized to lo <= hi first),
    homogeneous of degree 1 to rounding accuracy, and between min and max.
    """
    check_type("mean kind", kind, MeanKind)
    p = as_pair(pair)
    return _mean(kind, p.lo, p.hi)
