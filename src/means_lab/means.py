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

Each shape is stated once, as source text in ``_SHAPES``; ``_kernel``
compiles shapes and output expressions over the means into one function,
which does a block of rows in one list comprehension.  ``evaluate_mean`` and
``mean_shape`` call such a kernel on a block of one row.
"""

from __future__ import annotations

import functools
import math
from enum import Enum, unique

from .exceptions import DomainError, Record, check_real, check_type, shown
from .series import _maclaurin

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


class MeanKind(Record):
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
        if self.family is not MeanFamily.GENERALIZED_LOG:
            return self.family.value
        short = f"{self.p:g}"  # unless it loses digits: an id names p exactly
        return f"Lp:{short if float(short) == self.p else repr(self.p)}"


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


class PositivePair(Record):
    """An unordered pair of positive reals, the argument of every mean."""

    a: float
    b: float

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            object.__setattr__(self, name, _pair_entry(getattr(self, name)))

    @property
    def lo(self) -> float:
        return min(self.a, self.b)

    @property
    def hi(self) -> float:
        return max(self.a, self.b)


def _pair_entry(x) -> float:
    return check_real("pair entry", x, 0.0, math.inf, lo_open=True, hi_open=True)


def _entries(value) -> tuple:
    """The two entries of value, a pair of anything."""
    try:
        a, b = value
    except (TypeError, ValueError):
        raise DomainError(f"cannot interpret {shown(value)} as a pair") from None
    return a, b


def as_pair(value) -> PositivePair:
    if isinstance(value, PositivePair):
        return value
    return PositivePair(*_entries(value))


def _lo_hi(value) -> tuple[float, float]:
    """(lo, hi) of as_pair(value), checked as it checks them, without
    building the pair."""
    if isinstance(value, PositivePair):
        return value.lo, value.hi
    a, b = map(_pair_entry, _entries(value))
    return (a, b) if a <= b else (b, a)


def normalized_gap(pair) -> float:
    """|a-b|/(a+b), in [0, 1)."""
    lo, hi = _lo_hi(pair)
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


def _small_gap(f: str) -> str:
    """The source of x/f(x) if x < SMALL_GAP, from f(x)/x's series to x^6, and then " else "."""
    c1, c2, c3 = (repr(float(c)) for c in _maclaurin(f, 4)[1:])
    return f"1.0 / (1.0 + s * ({c1} + s * ({c2} + s * {c3}))) if x < SMALL_GAP else "


# --- shape expressions and the kernel compiler ---------------------------
#
# Per family, the source of its shape, the mean of the pair (1+x, 1-x) whose
# arithmetic mean is 1, in the gap x, its exact complement v = 1-x and
# s = x*x; and for H, G and A the source of their mean on a pair lo <= hi,
# with t = lo + hi and h = t/2 (every other mean is h times its shape).  Below
# SMALL_GAP, L, P, M and T are x/f(x) by _small_gap's series, whose omitted x^8
# term is below 1e-32 relative at the switch.  Past 0.5, P uses asin(x) =
# pi/2 - 2*asin(sqrt(v/2)) and L atanh(x) = 0.5*log((1+x)/v), which keep full
# accuracy as x -> 1.  L_p's shape is the exp of _glog_log_shape, which alone
# chooses its branches, called with L's atanh(x); its exponent p is passed in
# when a kernel is built, as p{k}, k the kind's index in the kernel.
_SHAPES = {
    MeanFamily.HARMONIC: ("(1.0 + x) * v", "2.0 * lo * (hi / t)"),
    MeanFamily.GEOMETRIC: ("sqrt((1.0 + x) * v)", "sqrt(lo) * sqrt(hi)"),
    MeanFamily.LOGARITHMIC: (_small_gap("atanh") + "x / atanh(x) if x <= 0.5"
                             " else x / (0.5 * log((1.0 + x) / v))", None),
    MeanFamily.SEIFFERT_FIRST: (_small_gap("asin") + "x / asin(x) if x <= 0.5"
                                " else x / (0.5 * pi - 2.0 * asin(sqrt(0.5 * v)))", None),
    MeanFamily.ARITHMETIC: ("1.0", "h"),
    MeanFamily.NEUMAN_SANDOR: (_small_gap("asinh") + "x / asinh(x)", None),
    MeanFamily.SEIFFERT_SECOND: (_small_gap("atan") + "x / atan(x)", None),
    MeanFamily.QUADRATIC: ("sqrt(1.0 + s)", None),
    MeanFamily.CONTRA_HARMONIC: ("1.0 + s", None),
    MeanFamily.GENERALIZED_LOG: ("exp(_glog_log_shape(p{k}, x, v, atanh(x) if x <= 0.5"
                                 " else 0.5 * log((1.0 + x) / v)))", None),
}

# Per kernel form (unit or pair): its parameters, its row loop and the names
# bound per row before the means.  A unit kernel reads gaps; a pair kernel
# reads only ordinary rows (a, b): a > b > 0, a + b finite and, if a kind is
# L or L_p, 2b/(a + b) >= 1e-300.  _mean answers every other row itself.
_FORMS = {
    True: ("xs", "x in xs", (("v", "1.0 - x"), ("s", "x * x"))),
    False: ("rows", "hi, lo in rows", (
        ("t", "lo + hi"), ("v", "2.0 * lo / t"), ("x", "(hi - lo) / t"),
        ("x", "_LARGEST_GAP if _LARGEST_GAP < x else x"), ("s", "x * x"), ("h", "0.5 * t"))),
}


def _mean_binding(kind: MeanKind, k: int, unit: bool, values: dict) -> tuple[str, str]:
    """The (name, source) binding that computes kind's mean, or its shape if
    unit, as m{k}; an L_p exponent it reads is added to values as p{k}."""
    shape, pair_form = _SHAPES[kind.family]
    p = kind.p
    if p is not None and abs(p + 1.0) < _GLOG_SPECIAL_EPS:
        shape = _SHAPES[MeanFamily.LOGARITHMIC][0]
    elif p is not None:
        values[f"p{k}"] = p
    mean = shape if unit else pair_form or "h * (" + shape + ")"
    if not unit and p is not None:
        mean = "min(max(" + mean + ", lo), hi)"
    return f"m{k}", mean.format(k=k)


@functools.lru_cache(maxsize=128)
def _compiled(source: str):
    """The factory make(*values) -> kernel of a kernel source, compiled on
    first use."""
    namespace = {"sqrt": math.sqrt, "cosh": math.cosh, "sinh": math.sinh, "asin": math.asin,
                 "atan": math.atan, "atanh": math.atanh, "asinh": stable_asinh, "log": math.log,
                 "exp": math.exp, "pi": math.pi, "SMALL_GAP": SMALL_GAP,
                 "_LARGEST_GAP": _LARGEST_GAP, "_glog_log_shape": _glog_log_shape}
    exec(compile(source, "<means kernel>", "exec"), namespace)
    return namespace["make"]


def _kernel(outputs, *, unit: bool = False):
    """One compiled function for outputs, a list of (template, slots): a
    template is a fixed expression over its slots' names, and a slot is a
    MeanKind, standing for its mean on the row (its shape if unit), or a
    float passed in and never written into the source, so one compiled
    source serves every weight and L_p exponent.  Each mean is computed once
    per row.  A unit kernel maps gaps xs, a pair kernel ordinary pairs
    (a, b), to one column per output, in one list comprehension; its means
    equal _mean(kind, b, a) bit for bit.  A pair is ordinary if a > b > 0,
    a + b is finite and, if a kind is L or L_p, 2b/(a + b) >= 1e-300."""
    values, binds, exprs, kinds = {}, [], [], {}
    for template, slots in outputs:
        names = {}
        for slot, item in slots.items():
            if isinstance(item, MeanKind):
                if item not in kinds:
                    kinds[item] = len(kinds)
                    binds.append(_mean_binding(item, kinds[item], unit, values))
                names[slot] = f"m{kinds[item]}"
            else:
                names[slot] = f"c{len(exprs)}{slot}"
                values[names[slot]] = item
        exprs.append(template.format(**names))
    head, loop, prelude = _FORMS[unit]
    binds = [*prelude, *binds]
    out = exprs[0] if len(exprs) == 1 else "(" + "".join(expr + ", " for expr in exprs) + ")"
    rows = f"[{out} for {loop}" + "".join(f" for {name} in [{source}]" for name, source in binds) + "]"
    body = f"[{rows}]" if len(exprs) == 1 else f"list(zip(*{rows}))"
    return _compiled(f"def make({', '.join(values)}):\n return lambda {head}: {body}\n")(**values)


@functools.lru_cache(maxsize=256)
def _columns_fn(kinds: tuple, unit: bool = False):
    """The kernel of kinds' columns, built once per (kinds, unit): ordinary
    pairs (a, b), as _kernel states them -> per kind the column (_mean(kind,
    b, a) for a, b in pairs), bit for bit, or if unit gaps xs -> per kind its
    column of shapes.  A single call runs it on a block of one row."""
    return _kernel([("{m}", {"m": kind}) for kind in kinds], unit=unit)


def mean_shape(kind: MeanKind, x: float) -> float:
    """Value of the mean on the pair (1+x, 1-x): the scale-free profile used
    by the certification grids, clamped into [1-x, 1+x].  Requires
    0 <= x < 1."""
    check_type("mean kind", kind, MeanKind)
    x = check_real("gap", x, 0.0, 1.0, hi_open=True)
    return min(max(_columns_fn((kind,), True)([x])[0][0], 1.0 - x), 1.0 + x)


def _mean(kind: MeanKind, lo: float, hi: float) -> float:
    """evaluate_mean without the argument checks: 0 < lo <= hi, both finite.
    It answers the diagonal, a sum past max_float and, for L and L_p, a gap
    complement 2*lo/(lo + hi) below 1e-300 itself, and every other row by
    kind's pair kernel."""
    if lo == hi:
        return lo
    t = lo + hi
    if math.isinf(t):
        # exact power-of-two rescale keeps homogeneity bit-clean
        return 4.0 * _mean(kind, 0.25 * lo, 0.25 * hi)
    # 2*lo/t keeps the gap complement accurate where 1-x has already rounded
    # away; once it is below 1e-300 the log forms read log(hi/lo) directly
    v = 2.0 * lo / t
    if v < 1e-300 and (kind.p is not None or kind.family is MeanFamily.LOGARITHMIC):
        p, x = kind.p, min((hi - lo) / t, _LARGEST_GAP)
        log_ratio = math.log(hi) - math.log(lo)
        if p is None or abs(p + 1.0) < _GLOG_SPECIAL_EPS:  # L, and L_p near p = -1
            return (hi - lo) / log_ratio
        log_shape = _glog_log_shape(p, x, v, 0.5 * log_ratio)
        unit = math.exp(log_shape)
        # a shape at or past underflow has lost precision (only p < -1):
        # reassemble the mean in log space
        mean = 0.5 * t * unit if unit > 1e-300 else math.exp(log_shape + math.log(0.5 * t))
        return min(max(mean, lo), hi)
    return _columns_fn((kind,))([(hi, lo)])[0][0]


def evaluate_mean(kind: MeanKind, pair) -> float:
    """Evaluate one mean on a pair of positive reals.

    Symmetric bit-exactly (the pair is canonicalized to lo <= hi first),
    homogeneous of degree 1 to rounding accuracy, and between min and max.
    """
    check_type("mean kind", kind, MeanKind)
    return _mean(kind, *_lo_hi(pair))
