"""High-precision reference implementations used as test oracles.

Everything here evaluates the textbook definitions directly in 40-digit
arithmetic (mpmath; the ratio functions' 0/0 closed forms with more digits
as their argument shrinks), independent of the library's stable-branch
choices, so agreement is a genuine cross-check rather than a tautology.
"""

import mpmath as mp

from means_lab import MeanFamily, MeanKind

mp.mp.dps = 40


def mean_oracle(kind: MeanKind, a, b) -> mp.mpf:
    a, b = mp.mpf(a), mp.mpf(b)
    fam = kind.family
    if a == b and fam is not MeanFamily.GENERALIZED_LOG:
        return a
    if fam is MeanFamily.HARMONIC:
        return 2 * a * b / (a + b)
    if fam is MeanFamily.GEOMETRIC:
        return mp.sqrt(a * b)
    if fam is MeanFamily.LOGARITHMIC:
        return a if a == b else (b - a) / (mp.log(b) - mp.log(a))
    if fam is MeanFamily.SEIFFERT_FIRST:
        return (a - b) / (4 * mp.atan(mp.sqrt(a / b)) - mp.pi)
    if fam is MeanFamily.ARITHMETIC:
        return (a + b) / 2
    if fam is MeanFamily.NEUMAN_SANDOR:
        return (a - b) / (2 * mp.asinh((a - b) / (a + b)))
    if fam is MeanFamily.SEIFFERT_SECOND:
        return (a - b) / (2 * mp.atan((a - b) / (a + b)))
    if fam is MeanFamily.QUADRATIC:
        return mp.sqrt((a * a + b * b) / 2)
    if fam is MeanFamily.CONTRA_HARMONIC:
        return (a * a + b * b) / (a + b)
    if fam is MeanFamily.GENERALIZED_LOG:
        p = mp.mpf(kind.p)
        if a == b:
            return a
        if p == -1:
            return (b - a) / (mp.log(b) - mp.log(a))
        if p == 0:
            return (1 / mp.e) * (b**b / a**a) ** (1 / (b - a))
        return ((b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))) ** (1 / p)
    raise ValueError(f"no oracle for {kind!r}")


def _cancelling(closed_form):
    """closed_form, a 0/0 form whose terms cancel to about t**2 of their
    size, evaluated with two more digits per decade of |t| below 1, so that
    the current working precision survives the cancellation at any t."""
    def oracle(t) -> mp.mpf:
        t = mp.mpf(t)
        decades = max(0, -int(mp.floor(mp.log10(abs(t)))))
        with mp.workdps(mp.mp.dps + 2 * decades):
            return closed_form(t)
    return oracle


@_cancelling
def phi_hq_oracle(t) -> mp.mpf:
    return (t * mp.cosh(t) - mp.sinh(t)) / (
        t * (mp.cosh(2 * t) / 2 + mp.cosh(t) - mp.mpf(3) / 2))


@_cancelling
def phi_hc_oracle(t) -> mp.mpf:
    return (t * (mp.cosh(2 * t) + 1) - 2 * mp.sinh(t)) / (2 * t * (mp.cosh(2 * t) - 1))


@_cancelling
def ratio_gq_oracle(x) -> mp.mpf:
    return (mp.sqrt(1 + x * x) * mp.asinh(x) - x) / (
        (mp.sqrt(1 + x * x) - mp.sqrt(1 - x * x)) * mp.asinh(x))


def mean_ratio_oracle(numerator_pair, denominator_pair, gap) -> mp.mpf:
    """(upper - M)/(upper - lower) for the pair (1+gap, 1-gap), computed
    from the mean definitions: the means-route side of the equivalence."""
    upper_kind, lower_kind = numerator_pair, denominator_pair
    a, b = 1 + mp.mpf(gap), 1 - mp.mpf(gap)
    upper = mean_oracle(upper_kind, a, b)
    lower = mean_oracle(lower_kind, a, b)
    m = mean_oracle(MeanKind(MeanFamily.NEUMAN_SANDOR), a, b)
    return (upper - m) / (upper - lower)


def rel_err(got: float, reference) -> float:
    reference = mp.mpf(reference)
    if reference == 0:
        return abs(got)
    return float(abs((mp.mpf(got) - reference) / reference))
