"""Grid certification of the weighted-mean bounds, sharpness probes for the
extremal weights, recovery of the sharp constants by extremizing the ratio
functions, and verification of the classical inequality corpus.

Margins are always normalized by the arithmetic mean of the pair (the grids
evaluate the scale-free mean profiles directly, so normalized margins are
identical at every scale).  A normalized margin whose magnitude is below
``STRICTNESS_FLOOR`` is numerically indistinguishable from zero in binary64
and is counted separately instead of deciding a verdict: near the endpoints
where the bounds are sharp the true margins drop below 1e-30.  A report with
no resolvable margin (``min_margin`` inf) does not hold.

All three sweeps (the gap grid of ``verify_bound``, the seeded draws of
``verify_chain`` and ``verify_corpus``) go through one walker, ``_sweep``,
which maps their blocks of points, each made only when it is reached, to
margin columns, each mean's column computed by one call of its shape kernel
in ``means``, and ranks them; ``_report`` turns its result into a report.
Memory so holds one block and does not grow with the grid or sample size.
A theorem's claims share a sweep, as a ratio function's objectives share one
scan in ``recover_constant``.
A claim's margin is stated once, in ``_margin_fn``: the grid sweep calls it
per block, and the sharpness ladder is one more column of it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, replace
from enum import Enum, unique

from .exceptions import DomainError, check_int, check_real, check_type
from .means import (
    ARITHMETIC,
    CHAIN_ORDER,
    CONTRA_HARMONIC,
    GEOMETRIC,
    HARMONIC,
    LOGARITHMIC,
    NEUMAN_SANDOR,
    QUADRATIC,
    SEIFFERT_FIRST,
    SEIFFERT_SECOND,
    MeanKind,
    PositivePair,
    _columns_fn,
    _shape_fn,
    evaluate_mean,  # with mean_shape, unused here but rebound by perfbench/tracer.py
    generalized_log,
    mean_shape,
    pair_from_gap,
)
from .ratios import (
    ASINH_ONE,
    Endpoint,
    RatioFunctionKind,
    _ratio_column,
    endpoint_value,
    evaluate_ratio_function,
    ratio_function_domain,
    sharp_constants,
)

__all__ = [
    "Relation",
    "SharpAt",
    "Objective",
    "BoundClaim",
    "CertificationReport",
    "SharpnessReport",
    "STRICTNESS_FLOOR",
    "GRID_EDGE",
    "REPORT_ONLY_CORPUS_CLAIMS",
    "gap_grid",
    "theorem_claims",
    "verify_bound",
    "sharpness_probe",
    "recover_constant",
    "verify_chain",
    "verify_corpus",
]

STRICTNESS_FLOOR = 1e-15

# closest approach of the certification grid to the gap endpoints
GRID_EDGE = 1e-8

# normalized margin below which a sharpness witness is not yet considered
# definitive (well above the ~1e-15 evaluation noise)
_VIOLATION_THRESHOLD = 1e-13

# points per block of every sweep: points and columns live one block at a
# time, so memory grows with neither the grid size nor the sample count
_SWEEP_BLOCK = 256


@unique
class Relation(Enum):
    """How a convex combination is claimed to compare against M."""

    LESS_THAN_M = "combination < M"
    GREATER_THAN_M = "M < combination"


@unique
class SharpAt(Enum):
    """Which end of the gap domain attains the ratio-function extremum that
    makes the claimed weight sharp."""

    GAP_ZERO = "gap-zero"
    GAP_ONE = "gap-one"


@unique
class Objective(Enum):
    SUPREMUM = "supremum"
    INFIMUM = "infimum"


@dataclass(frozen=True)
class BoundClaim:
    """A one-sided bound of M by weight * first + (1-weight) * second at the
    claimed sharp weight; sharp_at is the gap endpoint where it bites."""

    weight: float
    first: MeanKind
    second: MeanKind
    relation: Relation
    sharp_at: SharpAt

    def __post_init__(self) -> None:
        check_real("weight", self.weight, 0.0, 1.0)
        check_type("first", self.first, MeanKind)
        check_type("second", self.second, MeanKind)
        check_type("relation", self.relation, Relation)
        check_type("sharp_at", self.sharp_at, SharpAt)


@dataclass(frozen=True)
class CertificationReport:
    grid_size: int
    min_margin: float
    worst_pair: PositivePair
    holds: bool
    near_zero: int = 0
    seed: int | None = None


@dataclass(frozen=True)
class SharpnessReport:
    perturbation: float
    witness: PositivePair | None
    violated: bool
    witness_gap: float | None


def theorem_claims(which: str) -> list[tuple[str, BoundClaim]]:
    """The six sharp claims, two per double inequality, keyed by claim id."""
    c = sharp_constants()
    table = {
        "1.1": (HARMONIC, QUADRATIC, c.alpha1, SharpAt.GAP_ZERO, c.beta1, SharpAt.GAP_ONE),
        "1.2": (GEOMETRIC, QUADRATIC, c.alpha2, SharpAt.GAP_ZERO, c.beta2, SharpAt.GAP_ONE),
        "1.3": (HARMONIC, CONTRA_HARMONIC, c.alpha3, SharpAt.GAP_ONE, c.beta3, SharpAt.GAP_ZERO),
    }
    if which not in table:
        raise DomainError(f"unknown theorem {which!r}; expected 1.1, 1.2 or 1.3")
    first, second, alpha, alpha_at, beta, beta_at = table[which]
    lower = BoundClaim(alpha, first, second, Relation.LESS_THAN_M, alpha_at)
    upper = BoundClaim(beta, first, second, Relation.GREATER_THAN_M, beta_at)
    return [(f"{which}-lower", lower), (f"{which}-upper", upper)]


def gap_grid(n: int) -> list[float]:
    """n gaps log-dense toward both endpoints: a geometric ladder from
    GRID_EDGE to 0.5 and its mirror 1-x, because every sharp constant lives
    in an endpoint limit and uniform grids under-sample there."""
    return list(itertools.chain.from_iterable(_grid_blocks(n)))


def _grid_blocks(n: int):
    """gap_grid(n), ascending, as non-empty blocks of at most _SWEEP_BLOCK
    gaps, each made from the ladder formula when it is reached."""
    check_int("grid size n", n, 2)
    exp, size = math.exp, _SWEEP_BLOCK
    log_edge = math.log(GRID_EDGE)
    span = math.log(0.5) - log_edge
    lo_count, hi_count = n // 2, n - n // 2

    def rungs(count: int, indices: range) -> list[float]:
        if count == 1:
            return [0.5]
        d = float(count - 1)
        return [exp(log_edge + span * i / d) for i in indices]

    def blocks():
        seam, top = (lo_count - 1) // size * size, hi_count - 1
        for start in range(0, seam, size):
            yield rungs(lo_count, range(start, start + size))
        # the top rung 0.5000000000000009 lies above the first mirror rung; only
        # rungs this close to 0.5 interleave, all in the two blocks merged here
        middle = sorted(rungs(lo_count, range(seam, lo_count))
                        + [1.0 - g for g in rungs(hi_count, range(top, max(top - size, -1), -1))])
        yield middle[:len(middle) // 2]
        yield middle[len(middle) // 2:]
        for stop in range(top - size, -1, -size):
            yield [1.0 - g for g in rungs(hi_count, range(stop, max(stop - size, -1), -1))]

    return blocks()


def _margin_fn(claims: list[BoundClaim]):
    """xs -> one column per claim of its normalized margins at the gaps xs;
    each shape column is computed once for all the claims that use it."""
    m = _shape_fn(NEUMAN_SANDOR)
    rows = [(c.weight, c.relation is Relation.LESS_THAN_M, _shape_fn(c.first), _shape_fn(c.second))
            for c in claims]
    shapes = list(dict.fromkeys([m] + [shape for row in rows for shape in row[2:]]))

    def margins(xs: list[float]) -> list[list[float]]:
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


def _sweep(blocks, margin_columns) -> list[tuple[float, int, object, int]]:
    """Per margin column, (min_margin, index, point, near_zero) over the
    points of blocks, which margin_columns maps to columns a block at a time.
    |margin| < STRICTNESS_FLOOR is counted, not ranked; only a strictly
    smaller margin replaces the minimum, so the earliest of equal minima wins,
    and a column with nothing ranked has point None."""
    scans = []
    start = 0
    for block in blocks:
        columns = margin_columns(block)
        scans = scans or [(math.inf, 0, None, 0)] * len(columns)
        for k, column in enumerate(columns):
            best, at, point, near = scans[k]
            low = min(column)
            # at or above the floor nothing is near zero, and index finds the
            # earliest minimum; a NaN first makes min NaN, so the loop runs
            if low >= STRICTNESS_FLOOR:
                if low < best:
                    i = column.index(low)
                    best, at, point = low, start + i, block[i]
            else:
                for i, margin in enumerate(column):
                    if abs(margin) < STRICTNESS_FLOOR:
                        near += 1
                    elif margin < best:
                        best, at, point = margin, start + i, block[i]
            scans[k] = best, at, point, near
        start += len(block)
    return scans


def _report(size: int, min_margin: float, point, near: int, to_pair, seed=None) -> CertificationReport:
    """The report of a sweep whose worst point is to_pair(point); it holds
    iff some margin is resolvable and every resolvable margin is positive,
    and with none resolvable its worst pair is the unit gap-0.5 pair."""
    worst = pair_from_gap(0.5, 1.0) if point is None else to_pair(point)
    return CertificationReport(size, min_margin, worst, 0.0 < min_margin < math.inf, near, seed)


def verify_bound(claim: BoundClaim | list[BoundClaim] | tuple[BoundClaim, ...],
                 grid_size: int) -> CertificationReport | list[CertificationReport]:
    """Evaluate the claim's normalized margin over an endpoint-dense gap
    grid; holds iff some margin is resolvable and every resolvable margin
    is positive.  Given a list or tuple of claims, return one report per
    claim from one sweep of the grid, through one _margin_fn."""
    single = not isinstance(claim, (list, tuple))
    claims = [check_type("claim", c, BoundClaim) for c in ([claim] if single else claim)]
    check_int("grid_size", grid_size, 100)
    reports = [_report(grid_size, best, x, near, functools.partial(pair_from_gap, scale=1.0))
               for best, _, x, near in _sweep(_grid_blocks(grid_size), _margin_fn(claims))]
    return reports[0] if single else reports


def sharpness_probe(claim: BoundClaim, epsilon: float) -> SharpnessReport:
    """Perturb the claimed sharp weight by epsilon in the falsifying
    direction (lower-bound weights down, upper-bound weights up) and evaluate
    the bound on the ladder 2^-1 ... 2^-49 toward the sharp endpoint; the
    first rung where it breaks is the witness."""
    check_type("claim", claim, BoundClaim)
    check_real("epsilon", epsilon, 0.0, 1e-2, lo_open=True)
    lower = claim.relation is Relation.LESS_THAN_M
    # the claim checks that the perturbed weight stays in [0, 1]
    perturbed = replace(claim, weight=claim.weight - epsilon if lower else claim.weight + epsilon)
    xs = [0.5**k if claim.sharp_at is SharpAt.GAP_ZERO else 1.0 - 0.5**k for k in range(1, 50)]
    (column,) = _margin_fn([perturbed])(xs)
    x = next((x for x, margin in zip(xs, column) if margin < -_VIOLATION_THRESHOLD), None)
    if x is None:
        return SharpnessReport(epsilon, None, False, None)
    return SharpnessReport(epsilon, pair_from_gap(x, 1.0), True, x)


def _golden_refine(fn, lo: float, hi: float, maximize: bool, width: float) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    sign = 1.0 if maximize else -1.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = sign * fn(c), sign * fn(d)
    for _ in range(120):
        if b - a < width:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = sign * fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = sign * fn(d)
    best = max(fc, fd)
    return sign * best


def recover_constant(fn: RatioFunctionKind,
                     objective: Objective | list[Objective] | tuple[Objective, ...],
                     tol: float = 1e-9) -> float | list[float]:
    """Numerically extremize a ratio function over its open domain: uniform
    scan, geometric endpoint approach, golden-section refinement of the best
    interior bracket down to width tol, plus the continuous endpoint
    extensions.  Given a list or tuple of objectives, return one value per
    objective from one scan of the ratio function, refined per objective."""
    single = not isinstance(objective, (list, tuple))
    objectives = [check_type("objective", o, Objective) for o in ([objective] if single else objective)]
    check_real("tolerance", tol, 1e-12)
    lo, hi = ratio_function_domain(fn)
    span = hi - lo
    value = functools.partial(evaluate_ratio_function, fn)
    scan_points = [lo + span * (i + 0.5) / 2001 for i in range(2001)]
    scan_points += [lo + span * 10.0**-j for j in range(2, 13)]
    scan_points += [hi - span * 10.0**-j for j in range(2, 13)]
    # all values are finite, so max/min and index pick the first equal extremum
    values = _ratio_column(fn, scan_points)
    step = span / 2001
    ends = [endpoint_value(fn, Endpoint.LOWER), endpoint_value(fn, Endpoint.UPPER)]
    results = []
    for o in objectives:
        maximize = o is Objective.SUPREMUM
        best_v = max(values) if maximize else min(values)
        best_x = scan_points[values.index(best_v)]
        bracket_lo = max(lo + span * 1e-13, best_x - step)
        bracket_hi = min(hi - span * 1e-13, best_x + step)
        refined = _golden_refine(value, bracket_lo, bracket_hi, maximize, tol)
        candidates = [best_v, refined] + ends
        results.append(max(candidates) if maximize else min(candidates))
    return results[0] if single else results


def _chain_draw(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """count random pairs (a, b), as pair_from_gap builds them, each at a
    log-uniform scale and then a uniform nonzero gap; a >= b, since the gap
    is positive, rounding is monotone and the scale is positive."""
    r = rng.random
    # 10.0 ** rng.uniform(-3.0, 3.0) as CPython computes it, without the method
    # call; a gap of 0.0 is drawn again, up to the stream's next nonzero value
    return [(scale * (1.0 + x), scale * (1.0 - x)) for _ in range(count)
            for scale in [10.0 ** (-3.0 + 6.0 * r())]
            for x in [r() or next(filter(None, iter(r, None)))]]


def _sampled_sweep(draw, rng: random.Random, sample_count: int, margin_columns,
                   seed: int) -> CertificationReport:
    """Report over sample_count pairs (a, b) that draw(rng, count) returns a
    block at a time; margin_columns maps a block's columns (as, bs) to margin
    columns (a chain pair has a >= b, a ky-fan pair either order)."""
    blocks = (draw(rng, min(_SWEEP_BLOCK, sample_count - start))
              for start in range(0, sample_count, _SWEEP_BLOCK))
    # itemgetter, unlike zip(*pairs), builds no iterator per pair
    a_of, b_of = operator.itemgetter(0), operator.itemgetter(1)
    scans = _sweep(blocks, lambda pairs: margin_columns(list(map(a_of, pairs)),
                                                        list(map(b_of, pairs))))
    # a tie between columns goes to the earlier draw, whatever the column order
    best, _, worst, _ = min(scans, key=operator.itemgetter(0, 1))
    return _report(sample_count, best, worst, sum(scan[3] for scan in scans),
                   lambda pair: PositivePair(*pair), seed)


def verify_chain(sample_count: int, seed: int) -> CertificationReport:
    """Strict ordering H < G < L < P < A < M < T < Q < C on random pairs,
    reporting the smallest resolvable normalized margin."""
    check_int("sample_count", sample_count, 1)
    check_int("seed", seed, 0)
    columns = _columns_fn(CHAIN_ORDER)
    a_index = CHAIN_ORDER.index(ARITHMETIC)

    def margins(as_, bs):
        values = columns(bs, as_)  # a chain pair has a >= b
        a_means = values[a_index]
        return [list(map(operator.truediv, map(operator.sub, above, below), a_means))
                for below, above in zip(values, values[1:])]

    return _sampled_sweep(_chain_draw, random.Random(seed), sample_count, margins, seed)


# The two weighted Q/A displays cannot both be sharp as printed; they are
# evaluated and reported, but do not gate an overall corpus verdict.
REPORT_ONLY_CORPUS_CLAIMS = frozenset({
    "neuman-qa-alpha-lower",
    "neuman-qa-beta-upper",
    "neuman-qa-lambda-lower",
    "neuman-qa-mu-upper",
})

_KY_FAN_KINDS = (GEOMETRIC, LOGARITHMIC, SEIFFERT_FIRST, ARITHMETIC,
                 NEUMAN_SANDOR, SEIFFERT_SECOND)


def _ky_fan_pair(r) -> tuple[float, float]:
    """A random pair (a, b) of distinct reals in (0, 1/2) from the stream r."""
    while True:
        # rng.uniform(0.0, 0.5) as CPython computes it, without the method call
        a, b = 0.5 * r(), 0.5 * r()
        if 0.0 < a < 0.5 and 0.0 < b < 0.5 and a != b:
            return a, b


def _ky_fan_draw(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """count random pairs (a, b) of distinct reals in (0, 1/2), unordered."""
    return [_ky_fan_pair(rng.random) for _ in range(count)]


def _pair_margins(margin, *kinds):
    """(as, bs) -> [the column of margin(a, m, *values) per pair], from the
    columns of A, M and kinds, for chain pairs (a >= b)."""
    columns = _columns_fn((ARITHMETIC, NEUMAN_SANDOR) + kinds)
    return lambda as_, bs: [list(itertools.starmap(margin, zip(*columns(bs, as_))))]


def _qa_margin(weight: float, lower: bool, a: float, m: float, q: float) -> float:
    """M against weight*Q + (1-weight)*A, normalized by A."""
    combo = weight * q + (1.0 - weight) * a
    return (m - combo if lower else combo - m) / a


def _corpus_claims():
    """(claim_id, draw, margin_columns) triples; draw samples a block of
    pairs (a, b) from an rng, margin_columns maps the (as, bs) columns of a
    block to a one-column list: each pair's smallest normalized margin over
    the claim's strict inequalities."""
    neuman_alpha = (1.0 - ASINH_ONE) / ((math.sqrt(2.0) - 1.0) * ASINH_ONE)
    neuman_lambda = (1.0 - ASINH_ONE) / ASINH_ONE
    ky_fan_means = _columns_fn(_KY_FAN_KINDS)

    def ky_fan(as_, bs):
        # ky-fan's draws are unordered: order them, and the mirror pairs (1-a, 1-b)
        los, his = list(map(min, as_, bs)), list(map(max, as_, bs))
        mirrors = ky_fan_means([1.0 - hi for hi in his], [1.0 - lo for lo in los])
        ratios = [list(map(operator.truediv, m, mirror))
                  for m, mirror in zip(ky_fan_means(los, his), mirrors)]
        steps = [list(map(operator.sub, nxt, prev)) for prev, nxt in zip(ratios, ratios[1:])]
        return [list(map(min, *steps))]

    pair_claims = [
        ("pm-lt-a2", lambda a, m, p: (a * a - p * m) / (a * a), SEIFFERT_FIRST),
        ("at-lt-m2", lambda a, m, t: (m * m - a * t) / (a * a), SEIFFERT_SECOND),
        ("m2-lt-square-mean", lambda a, m, t: ((a * a + t * t) / 2.0 - m * m) / (a * a), SEIFFERT_SECOND),
        ("lp0-lt-m", lambda a, m, lp0: (m - lp0) / a, generalized_log(sharp_constants().p0)),
        ("m-lt-l2", lambda a, m, l2: (l2 - m) / a, generalized_log(2.0)),
        ("neuman-qa-alpha-lower", functools.partial(_qa_margin, neuman_alpha, True), QUADRATIC),
        ("neuman-qa-beta-upper", functools.partial(_qa_margin, 1.0 / 3.0, False), QUADRATIC),
        ("neuman-qa-lambda-lower", functools.partial(_qa_margin, neuman_lambda, True), QUADRATIC),
        ("neuman-qa-mu-upper", functools.partial(_qa_margin, 1.0 / 6.0, False), QUADRATIC),
    ]
    return [("ky-fan", _ky_fan_draw, ky_fan)] + [(claim_id, _chain_draw, _pair_margins(margin, kind))
                                                 for claim_id, margin, kind in pair_claims]


def verify_corpus(sample_count: int, seed: int) -> list[tuple[str, CertificationReport]]:
    """Evaluate every corpus claim on its own seeded sample stream."""
    check_int("sample_count", sample_count, 1)
    check_int("seed", seed, 0)
    return [(claim_id, _sampled_sweep(draw, random.Random(f"{seed}:{claim_id}"), sample_count,
                                      margin_columns, seed))
            for claim_id, draw, margin_columns in _corpus_claims()]
