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
margin columns, and ranks them; ``_report`` makes a claim's report from the
scans of its columns (one on the grid and in the corpus, one per chain step).
Each sweep's margins are output expressions of one kernel compiled by
``means._kernel``, which computes every mean and margin of a block in one
list comprehension.
Memory so holds one block and does not grow with the grid or sample size.
A theorem's claims share a sweep, and so do the corpus's nine pair claims
(one stream of draws, one kernel), as a ratio function's objectives share
one scan in ``recover_constant``.
A claim's margin is stated once, in ``_margin_fn``: the grid sweep calls it
per block, and the sharpness ladder is one more column of it.

A long sweep is split over the CPUs this process may use, one part per CPU
but at most one per ``_MIN_SPLIT`` points, a draw counted once per claim.
``_fork_map`` runs the first part here and each other part in a child made
by ``os.fork``, which sends its scans back through a pipe; ``_report`` joins
each claim's scans from every part by the rule ``_sweep`` ranks by, so every
report is the one-process report.  Every sweep splits by one rule: part k of
parts sweeps blocks k, k + parts, k + 2 * parts, ... (of the grid's two
ladders, which both end at 0.5, each low block with its high block's mirror,
and of each stream of draws).  A block of draws has its own seeded stream,
so any part can draw any block, and a zero-gap redraw stays inside its
block.  A part runs here instead where ``os.fork`` is missing or fails,
where a second thread runs, or where its child exits non-zero.
"""

from __future__ import annotations

import functools
import marshal
import math
import operator
import os
import random
import sys
from enum import Enum, unique

from .exceptions import DomainError, Record, check_int, check_real, check_type, replace, shown
from .means import (
    ARITHMETIC,
    CHAIN_ORDER,
    GEOMETRIC,
    LOGARITHMIC,
    NEUMAN_SANDOR,
    QUADRATIC,
    SEIFFERT_FIRST,
    SEIFFERT_SECOND,
    MeanKind,
    PositivePair,
    _columns_fn,
    _kernel,
    evaluate_mean,  # with mean_shape, unused here but rebound by perfbench/tracer.py
    generalized_log,
    mean_shape,
    pair_from_gap,
)
from .ratios import (
    ASINH_ONE,
    Endpoint,
    RatioFunctionKind,
    _THEOREMS,
    _column,
    _sharp_limits,
    endpoint_value,
    evaluate_ratio_function,  # unused here but rebound by perfbench/tracer.py
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

# points per block of every sweep: memory grows with neither the grid size nor
# the sample count, and 128 and 256 were fastest, 1-9% ahead of 64 and 5-33% of
# 1024 and 4096 (1.1 grid sweep and 100k chain draws, one CPU, best of 12 runs)
_SWEEP_BLOCK = 256

# fewest points a forked part of a sweep is given: 8-13 ms of the grid sweep
# (the cheapest, 0.5-0.8 us a point on a shared 2-vCPU x86_64 VM), three to
# four times the 2-3 ms that a fork and its pipe round trip took there in a
# 16 MB process
_MIN_SPLIT = 1 << 14

# a sweep's scans rank by (margin, index)
_RANK = operator.itemgetter(0, 1)

# in a forked child, the pid of the process that forked it
_parent = None


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


class BoundClaim(Record):
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


class CertificationReport(Record):
    grid_size: int
    min_margin: float
    worst_pair: PositivePair
    holds: bool
    near_zero: int = 0
    seed: int | None = None


class SharpnessReport(Record):
    perturbation: float
    witness: PositivePair | None
    violated: bool
    witness_gap: float | None


def theorem_claims(which: str) -> list[tuple[str, BoundClaim]]:
    """The six sharp claims, two per double inequality, keyed by claim id."""
    if not isinstance(which, str) or which not in _THEOREMS:
        raise DomainError(f"unknown theorem {shown(which)}; expected 1.1, 1.2 or 1.3")
    first, second, kind = _THEOREMS[which]
    sharp_at = {Endpoint.LOWER: SharpAt.GAP_ZERO, Endpoint.UPPER: SharpAt.GAP_ONE}
    return [(f"{which}-{side}", BoundClaim(weight, first, second, relation, sharp_at[end]))
            for side, relation, (end, _, weight) in zip(("lower", "upper"), Relation, _sharp_limits(kind))]


def gap_grid(n: int) -> list[float]:
    """n gaps log-dense toward both endpoints: a geometric ladder of n // 2
    rungs from GRID_EDGE up to 0.5 itself, then the mirror 1-x of one of
    n - n // 2 rungs, because every sharp constant lives in an endpoint limit
    and uniform grids under-sample there."""
    blocks = _grid_blocks(n)  # checks n before the grid is allocated
    grid = [0.0] * n
    for start, block in blocks:
        grid[start:start + len(block)] = block
    return grid


def _grid_blocks(n: int, part: int = 0, parts: int = 1):
    """gap_grid(n) as (start, block) pairs, block being the non-empty run of
    at most _SWEEP_BLOCK ascending gaps at grid positions start, start + 1, ...;
    the blocks tile range(n) once, not in order.  Both ladders end at 0.5
    itself, so nothing interleaves: ladder block j is the low block at
    j * _SWEEP_BLOCK (empty past the low ladder when n is odd, and then not
    yielded), then the high block mirrored, made from the same exp calls when
    n is even.  Split in parts, the blocks of the part-th: ladder blocks part,
    part + parts, part + 2 * parts, ..."""
    check_int("grid size n", n, 2, sys.maxsize)
    exp, size = math.exp, _SWEEP_BLOCK
    log_edge = math.log(GRID_EDGE)
    span = math.log(0.5) - log_edge
    lo_count, hi_count = n // 2, n - n // 2

    def rungs(count: int, start: int, stop: int) -> list[float]:
        # rungs start..stop-1 of count; the top is 0.5, which exp rounds up to 2.7e-15 above
        top, d = count - 1, float(count - 1)
        block = [exp(log_edge + span * i / d) for i in range(start, min(stop, top))]
        return block + [0.5] if start <= top < stop else block

    def blocks():
        for start in range(part * size, hi_count, parts * size):
            low = rungs(lo_count, start, start + size)
            high = low if hi_count == lo_count else rungs(hi_count, start, start + size)
            if low:
                yield start, low
            # high rung i mirrors to grid position n - 1 - i
            yield n - start - len(high), [1.0 - g for g in reversed(high)]

    return blocks()


# a claim's normalized margin, M against weight*first + rest*second with
# rest = 1 - weight, as a kernel output template
_MARGINS = {
    Relation.LESS_THAN_M: "{m} - ({weight} * {first} + {rest} * {second})",
    Relation.GREATER_THAN_M: "({weight} * {first} + {rest} * {second}) - {m}",
}


def _margin_fn(claims: list[BoundClaim]):
    """xs -> one column per claim of its normalized margins at the gaps xs,
    from one kernel that computes each shape once per gap."""
    return _kernel([(_MARGINS[c.relation], {"m": NEUMAN_SANDOR, "first": c.first, "second": c.second,
                                            "weight": c.weight, "rest": 1.0 - c.weight})
                    for c in claims], unit=True)


def _sweep(blocks, margin_columns) -> list[tuple[float, int, object, int]]:
    """Per margin column, (min_margin, index, point, near_zero) over the
    points of blocks, (start, points) pairs whose points sit at indices
    start, start + 1, ..., which margin_columns maps to columns a block at a
    time.  |margin| < STRICTNESS_FLOOR is counted, not ranked; the rest rank
    by (margin, index), so of equal minima the least index wins whatever
    order the blocks come in, and a column with nothing ranked (NaN and +inf
    never rank) has point None."""
    scans = []
    for start, block in blocks:
        if _parent is not None and os.getppid() != _parent:  # a forked part left behind
            os._exit(1)
        columns = margin_columns(block)
        scans = scans or [(math.inf, 0, None, 0)] * len(columns)
        for k, column in enumerate(columns):
            best, at, point, near = scans[k]
            low = min(column)
            # at or above the floor nothing is near zero, and index finds the
            # block's earliest minimum; a NaN first makes min NaN, so the loop runs
            if low >= STRICTNESS_FLOOR:
                if low < best or low == best and start + column.index(low) < at:
                    i = column.index(low)
                    best, at, point = low, start + i, block[i]
            else:
                for i, margin in enumerate(column):
                    if abs(margin) < STRICTNESS_FLOOR:
                        near += 1
                    elif margin < best or margin == best and start + i < at:
                        best, at, point = margin, start + i, block[i]
            scans[k] = best, at, point, near
    return scans


def _workers(points: int) -> int:
    """How many parts a sweep of points is split into: one per CPU this
    process may use, but at most one per _MIN_SPLIT points."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, points // _MIN_SPLIT))


def _fork_map(tasks: list) -> list:
    """[task() for task in tasks], the first task run in this process and
    each other in a child forked for it, which sends its result back through
    a pipe as marshal data, so results are tuples, lists and numbers.  A task
    runs in this process instead where os.fork is missing or fails, where a
    second thread runs (a fork copies only the calling thread), or where its
    child exits non-zero, so that its error is raised here as in one process.
    No child outlives the call."""
    threading = sys.modules.get("threading")
    if len(tasks) < 2 or not hasattr(os, "fork") or threading and threading.active_count() != 1:
        return [task() for task in tasks]
    parent, children = os.getpid(), {}  # task index -> (pid, read end of its pipe)
    try:
        for i in range(1, len(tasks)):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # the tasks not forked run here
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                _serve(tasks[i], write_end, parent)
            # closed before the next fork, so that only this child holds it
            os.close(write_end)
            children[i] = pid, open(read_end, "rb")
        results = [tasks[0]()]
        for i in range(1, len(tasks)):
            if i in children:
                pid, pipe = children[i]
                with pipe:
                    data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                del children[i]
                if status == 0:
                    results.append(marshal.loads(data))
                    continue
            results.append(tasks[i]())
        return results
    finally:
        if children:  # this call is raising: end the children still running
            import signal

            for pid, pipe in children.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pipe.close()


def _serve(task, write_end: int, parent: int) -> None:
    """Run task in a child that parent forked, write its result to write_end
    as marshal data and exit: 0 if all of that went well, 1 if not."""
    global _parent
    _parent, code = parent, 1
    try:
        with open(write_end, "wb") as pipe:
            pipe.write(marshal.dumps(task()))
        code = 0
    finally:
        os._exit(code)


def _report(size: int, scans, to_pair, seed=None) -> CertificationReport:
    """The report of a claim from the _sweep scans of its margin columns in
    every part of a split sweep: its worst point is the least by (margin,
    index), so a tie goes to the earlier point, and its near-zero count is
    theirs added up.  It holds iff some margin is resolvable and every
    resolvable margin is positive; its worst pair is to_pair(point), or with
    none resolvable the unit gap-0.5 pair."""
    min_margin, _, point, _ = min(scans, key=_RANK)
    worst = pair_from_gap(0.5, 1.0) if point is None else to_pair(point)
    return CertificationReport(size, min_margin, worst, 0.0 < min_margin < math.inf,
                               sum(scan[3] for scan in scans), seed)


def verify_bound(claim: BoundClaim | list[BoundClaim] | tuple[BoundClaim, ...],
                 grid_size: int) -> CertificationReport | list[CertificationReport]:
    """Evaluate the claim's normalized margin over an endpoint-dense gap
    grid; holds iff some margin is resolvable and every resolvable margin
    is positive.  Given a list or tuple of claims, return one report per
    claim from one sweep of the grid, through one _margin_fn."""
    single = not isinstance(claim, (list, tuple))
    claims = [check_type("claim", c, BoundClaim) for c in ([claim] if single else claim)]
    check_int("grid_size", grid_size, 100, sys.maxsize)
    margin_columns, parts = _margin_fn(claims), _workers(grid_size)
    by_part = _fork_map([functools.partial(_sweep, _grid_blocks(grid_size, part, parts), margin_columns)
                         for part in range(parts)])
    reports = [_report(grid_size, [scans[k] for scans in by_part if scans],
                       functools.partial(pair_from_gap, scale=1.0)) for k in range(len(claims))]
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


@functools.cache
def _scan_points(hi: float) -> tuple[float, ...]:
    """recover_constant's 2,023 points on (0, hi): 2,001 at half-offsets, then 11 toward each end."""
    points = [hi * (i + 0.5) / 2001.0 for i in range(2001)]
    return (*points, *(hi * 10.0**-j for j in range(2, 13)), *(hi - hi * 10.0**-j for j in range(2, 13)))


def recover_constant(fn: RatioFunctionKind,
                     objective: Objective | list[Objective] | tuple[Objective, ...],
                     tol: float = 1e-9) -> float | list[float]:
    """The supremum or infimum of a ratio function over its open domain (0, hi):
    the extreme of its two continuous end values (endpoint_value) and of its
    column at 2,023 scan points (_scan_points: a uniform scan, then a
    geometric approach to each end; phi_hq and phi_hc share one table).
    Each ratio function is monotone, so an end value decides every result.
    The scan is the check: a kernel that rose past an end value in the
    interior would win it, and ``constants`` would then fail.  tol is
    checked (at least 1e-12) and bounds nothing.
    Given a list or tuple of objectives, return one value per objective from
    one scan of the ratio function."""
    single = not isinstance(objective, (list, tuple))
    objectives = [check_type("objective", o, Objective) for o in ([objective] if single else objective)]
    check_real("tolerance", tol, 1e-12)
    # every domain is (0, hi)
    hi = ratio_function_domain(fn)[1]
    candidates = [*_column(fn)(_scan_points(hi)),
                  endpoint_value(fn, Endpoint.LOWER), endpoint_value(fn, Endpoint.UPPER)]
    results = [max(candidates) if o is Objective.SUPREMUM else min(candidates) for o in objectives]
    return results[0] if single else results


def _chain_draw(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """count random pairs (a, b), as pair_from_gap builds them, each at a
    log-uniform scale s in [1e-3, 1e3] and then a uniform gap x >= 2**-53.
    Each is ordinary, as means._kernel states it: a > b, since 2sx is at
    least ulp(s), and a + b <= about 2e3 with 2b/(a + b) >= about 2**-54."""
    r = rng.random
    # 10.0 ** rng.uniform(-3.0, 3.0) as CPython computes it, without the method
    # call; a gap of 0.0 is drawn again, up to the stream's next nonzero value
    return [(scale * (1.0 + x), scale * (1.0 - x)) for _ in range(count)
            for scale in [10.0 ** (-3.0 + 6.0 * r())]
            for x in [r() or next(filter(None, iter(r, None)))]]


def _sampled_sweeps(sweeps, count: int, seed: int) -> list[tuple[str, CertificationReport]]:
    """(claim_id, report) per claim over count pairs (a, b) per sweep
    (stream, draw, margin_columns, claim_ids): draw(rng, size) returns a
    block of pairs (a chain pair has a >= b, a ky-fan pair either order),
    margin_columns maps a block to margin columns, and claim k of n
    claim_ids reports on columns k, k + n, k + 2 * n, ... (the chain's one
    claim on its eight steps, each of the nine pair claims on its own
    column).  Block j of a stream is drawn once,
    from random.Random(f"{seed:x}:{stream}:{j}") (hex, since str() refuses
    an int of over 4,300 digits), so any part can draw any block: part k of
    parts sweeps blocks k, k + parts, k + 2 * parts, ... of every stream.
    The split counts count points per claim."""
    key, parts = f"{seed:x}", _workers(count * sum(len(ids) for *_, ids in sweeps))

    def scans(part: int) -> list:
        return [_sweep(((start, draw(random.Random(f"{key}:{stream}:{start // _SWEEP_BLOCK}"),
                                     min(_SWEEP_BLOCK, count - start)))
                        for start in range(part * _SWEEP_BLOCK, count, parts * _SWEEP_BLOCK)),
                       margin_columns)
                for stream, draw, margin_columns, _ in sweeps]

    by_part = _fork_map([functools.partial(scans, part) for part in range(parts)])
    return [(claim_id, _report(count, [scan for scans in by_part for scan in scans[i][k::len(ids)]],
                               lambda pair: PositivePair(*pair), seed))
            for i, (*_, ids) in enumerate(sweeps) for k, claim_id in enumerate(ids)]


# one step of the chain, normalized by A
_CHAIN_STEP = "({above} - {below}) / {a}"


def verify_chain(sample_count: int, seed: int) -> CertificationReport:
    """Strict ordering H < G < L < P < A < M < T < Q < C on random pairs,
    reporting the smallest resolvable normalized margin."""
    check_int("sample_count", sample_count, 1, sys.maxsize)
    check_int("seed", seed, 0)
    steps = _kernel([(_CHAIN_STEP, {"above": above, "below": below, "a": ARITHMETIC})
                     for below, above in zip(CHAIN_ORDER, CHAIN_ORDER[1:])])
    ((_, report),) = _sampled_sweeps([("chain", _chain_draw, steps, ["chain"])], sample_count, seed)
    return report


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
    """A random pair (a, b) of reals in (0, 1/2) from the stream r whose
    mirrors 1 - a and 1 - b differ, so the pair and its mirror pair are both
    ordinary, as means._kernel states it.  Draws are multiples of 2**-54 and
    mirrors of 2**-53, so two distinct draws can share a mirror."""
    while True:
        # rng.uniform(0.0, 0.5) as CPython computes it, without the method call;
        # it is below 0.5, so only a 0.0, a repeat or a shared mirror is drawn again
        a, b = 0.5 * r(), 0.5 * r()
        if a and b and 1.0 - a != 1.0 - b:
            return a, b


def _ky_fan_draw(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """count random pairs (a, b) of distinct reals in (0, 1/2), unordered."""
    return [_ky_fan_pair(rng.random) for _ in range(count)]


def _corpus_claims():
    """verify_corpus's sweeps for _sampled_sweeps: ky-fan, whose one column
    is each pair's smallest normalized margin over its strict inequalities,
    and the nine pair claims on the stream "pairs", whose one kernel computes
    A, M and their other means once per pair and returns nine margin columns."""
    neuman_alpha = (1.0 - ASINH_ONE) / ((math.sqrt(2.0) - 1.0) * ASINH_ONE)
    neuman_lambda = (1.0 - ASINH_ONE) / ASINH_ONE
    ky_fan_means = _columns_fn(_KY_FAN_KINDS)

    def ky_fan(pairs):
        # ky-fan's draws are unordered: order them, and the mirror pairs (1-a, 1-b)
        ordered = [(a, b) if a > b else (b, a) for a, b in pairs]
        mirrors = ky_fan_means([(1.0 - lo, 1.0 - hi) for hi, lo in ordered])
        ratios = [list(map(operator.truediv, m, mirror))
                  for m, mirror in zip(ky_fan_means(ordered), mirrors)]
        steps = [list(map(operator.sub, nxt, prev)) for prev, nxt in zip(ratios, ratios[1:])]
        return [list(map(min, *steps))]

    def qa(weight: float, relation: Relation):
        # M against weight*Q + (1-weight)*A, normalized by A
        return "(" + _MARGINS[relation] + ") / {a}", {"first": QUADRATIC, "second": ARITHMETIC,
                                                      "weight": weight, "rest": 1.0 - weight}

    # each margin over A, M and the claim's slots
    pair_claims = [
        ("pm-lt-a2", "({a} * {a} - {p} * {m}) / ({a} * {a})", {"p": SEIFFERT_FIRST}),
        ("at-lt-m2", "({m} * {m} - {a} * {t}) / ({a} * {a})", {"t": SEIFFERT_SECOND}),
        ("m2-lt-square-mean", "(({a} * {a} + {t} * {t}) / 2.0 - {m} * {m}) / ({a} * {a})",
         {"t": SEIFFERT_SECOND}),
        ("lp0-lt-m", "({m} - {lp0}) / {a}", {"lp0": generalized_log(sharp_constants().p0)}),
        ("m-lt-l2", "({l2} - {m}) / {a}", {"l2": generalized_log(2.0)}),
        ("neuman-qa-alpha-lower", *qa(neuman_alpha, Relation.LESS_THAN_M)),
        ("neuman-qa-beta-upper", *qa(1.0 / 3.0, Relation.GREATER_THAN_M)),
        ("neuman-qa-lambda-lower", *qa(neuman_lambda, Relation.LESS_THAN_M)),
        ("neuman-qa-mu-upper", *qa(1.0 / 6.0, Relation.GREATER_THAN_M)),
    ]
    return [("ky-fan", _ky_fan_draw, ky_fan, ["ky-fan"]),
            ("pairs", _chain_draw,
             _kernel([(margin, {"a": ARITHMETIC, "m": NEUMAN_SANDOR, **slots})
                      for _, margin, slots in pair_claims]),
             [claim_id for claim_id, _, _ in pair_claims])]


def verify_corpus(sample_count: int, seed: int) -> list[tuple[str, CertificationReport]]:
    """Evaluate every corpus claim on seeded block streams, the nine pair claims in one sweep."""
    check_int("sample_count", sample_count, 1, sys.maxsize)
    check_int("seed", seed, 0)
    return _sampled_sweeps(_corpus_claims(), sample_count, seed)
