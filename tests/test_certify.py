import ast
import itertools
import json
import math
import random
import re
import tracemalloc
import types
from means_lab import replace

import pytest

from means_lab import certify, means, ratios
from means_lab import (
    BoundClaim,
    DomainError,
    Endpoint,
    GRID_EDGE,
    HARMONIC,
    NEUMAN_SANDOR,
    Objective,
    PositivePair,
    QUADRATIC,
    Relation,
    REPORT_ONLY_CORPUS_CLAIMS,
    RatioFunctionKind,
    SERIES_SWITCH,
    SharpAt,
    endpoint_value,
    evaluate_mean,
    evaluate_ratio_function,
    gap_grid,
    normalized_gap,
    pair_from_gap,
    phi_hq,
    ratio_function_domain,
    recover_constant,
    sharp_constants,
    sharpness_probe,
    stable_asinh,
    theorem_claims,
    verify_bound,
    verify_chain,
    verify_corpus,
)
from test_means_core import _ordinary_rows

C = sharp_constants()
ALL_CLAIMS = [item for name in ("1.1", "1.2", "1.3") for item in theorem_claims(name)]


class TestClaimConstruction:
    def test_weights_and_endpoints(self):
        claims = dict(ALL_CLAIMS)
        assert claims["1.1-lower"].weight == C.alpha1
        assert claims["1.1-upper"].weight == C.beta1
        assert claims["1.2-lower"].weight == C.alpha2
        assert claims["1.2-upper"].weight == C.beta2
        assert claims["1.3-lower"].weight == C.alpha3
        assert claims["1.3-upper"].weight == C.beta3
        for cid, claim in ALL_CLAIMS:
            expected_relation = Relation.LESS_THAN_M if cid.endswith("lower") else Relation.GREATER_THAN_M
            assert claim.relation is expected_relation
        # sharpness endpoints: 2/9, 1/3, 5/12 bite at gap 0; lambda0 and
        # alpha3 at gap 1
        assert claims["1.1-lower"].sharp_at is SharpAt.GAP_ZERO
        assert claims["1.2-lower"].sharp_at is SharpAt.GAP_ZERO
        assert claims["1.3-upper"].sharp_at is SharpAt.GAP_ZERO
        assert claims["1.1-upper"].sharp_at is SharpAt.GAP_ONE
        assert claims["1.2-upper"].sharp_at is SharpAt.GAP_ONE
        assert claims["1.3-lower"].sharp_at is SharpAt.GAP_ONE

    @pytest.mark.parametrize("which", ["2.1", ["1.1"], {}], ids=["str", "list", "dict"])
    def test_unknown_theorem(self, which):
        with pytest.raises(DomainError, match="^unknown theorem"):
            theorem_claims(which)

    def test_combination_validation(self):
        for weight in (1.2, -0.1, True):
            with pytest.raises(DomainError, match="weight"):
                BoundClaim(weight, HARMONIC, QUADRATIC, Relation.LESS_THAN_M, SharpAt.GAP_ZERO)

    @pytest.mark.parametrize("field,bad", [
        ("weight", None),
        ("weight", "0.3"),
        ("first", "H"),
        ("first", None),
        ("second", QUADRATIC.token),
        ("second", (0.3, HARMONIC, QUADRATIC)),
        ("relation", Relation.LESS_THAN_M.value),
        ("relation", "lower"),
        ("sharp_at", SharpAt.GAP_ZERO.value),
        ("sharp_at", Relation.LESS_THAN_M),
    ])
    def test_claim_fields_checked(self, field, bad):
        # an enum's own value is not the enum: "combination < M" was once
        # verified as an upper bound, and "gap-zero" walked toward gap 1
        fields = {"weight": 0.3, "first": HARMONIC, "second": QUADRATIC,
                  "relation": Relation.LESS_THAN_M, "sharp_at": SharpAt.GAP_ZERO}
        BoundClaim(**fields)
        fields[field] = bad
        with pytest.raises(DomainError, match=field):
            BoundClaim(**fields)


def _reference_grid(n):
    """gap_grid(n) as stated: a ladder of n // 2 rungs from GRID_EDGE up to
    0.5, then the mirror of one of n - n // 2 rungs."""
    log_edge = math.log(GRID_EDGE)
    span = math.log(0.5) - log_edge

    def ladder(count):
        return [math.exp(log_edge + span * i / (count - 1)) for i in range(count - 1)] + [0.5]

    return ladder(n // 2) + [1.0 - g for g in reversed(ladder(n - n // 2))]


class TestGapGrid:
    def test_shape(self):
        grid = gap_grid(1000)
        assert len(grid) == 1000
        assert grid == sorted(grid)
        assert grid[0] == pytest.approx(GRID_EDGE)
        assert grid[-1] == pytest.approx(1.0 - GRID_EDGE)

    def test_endpoint_density(self):
        grid = gap_grid(10_000)
        assert sum(1 for g in grid if g < 1e-4) > 1000
        assert sum(1 for g in grid if g > 1.0 - 1e-4) > 1000

    def test_order_and_blocks(self):
        # the ladder and its mirror, appended: each ladder's rungs below the
        # top from exp, then 0.5 itself (exp would round it above), so
        # nothing needs sorting
        for n in [*range(2, 1201), 4095, 4096, 4097, 8193, 12295, 99_999, 100_000, 100_001,
                  250_000]:
            reference, grid = _reference_grid(n), gap_grid(n)
            assert all(a <= b for a, b in zip(reference, reference[1:])), n
            assert list(map(float.hex, grid)) == list(map(float.hex, reference)), n
            assert grid[n // 2 - 1:n // 2 + 1] == [0.5, 0.5], n
            assert all(0 < len(block) <= BLOCK for block in certify._grid_blocks(n)), n

    @pytest.mark.parametrize("n", [2, 100, 2000, 100_000])
    def test_even_grid_mirrors(self, n):
        # the upper half is the lower half mirrored (1 - (1 - g) may differ
        # from g, so the property is read from the lower half)
        grid = gap_grid(n)
        assert all(grid[-1 - i] == 1.0 - grid[i] for i in range(n // 2))

    def test_block_positions_tile_the_grid(self):
        # test_order_and_blocks' sizes
        for n in [*range(2, 1201), 4095, 4096, 4097, 8193, 12295, 99_999, 100_000, 100_001,
                  250_000]:
            positions = sorted(i for start, block in certify._grid_blocks(n)
                               for i in range(start, start + len(block)))
            assert positions == list(range(n)), n

    @pytest.mark.parametrize("n,calls", [(100_000, 49_999), (100_001, 99_999)])
    def test_exp_calls(self, monkeypatch, n, calls):
        # an even grid's mirror blocks reuse their low block's rungs; an odd
        # grid's two ladders differ; each rung below a top is made once
        reference = _reference_grid(n)
        count, exp = [0], math.exp

        def counted(y):
            count[0] += 1
            return exp(y)

        monkeypatch.setattr(math, "exp", counted)
        blocks = list(certify._grid_blocks(n))
        monkeypatch.undo()
        assert count[0] == calls
        grid = [0.0] * n
        for start, block in blocks:
            grid[start:start + len(block)] = block
        assert list(map(float.hex, grid)) == list(map(float.hex, reference))

    @pytest.mark.parametrize("n", [2.5, 1, 0, -3, True, "100"])
    def test_size_checked_before_anything_is_made(self, n):
        with pytest.raises(DomainError):
            gap_grid(n)
        with pytest.raises(DomainError):
            certify._grid_blocks(n)


class TestVerifyBound:
    @pytest.mark.parametrize("claim_id,claim", ALL_CLAIMS)
    def test_sharp_claims_hold(self, claim_id, claim):
        report = verify_bound(claim, 2000)
        assert report.holds, claim_id
        assert report.min_margin > 0.0
        assert report.grid_size == 2000

    def test_degenerate_quadratic_upper(self):
        claim = BoundClaim(0.0, HARMONIC, QUADRATIC, Relation.GREATER_THAN_M, SharpAt.GAP_ONE)
        report = verify_bound(claim, 500)
        assert report.holds and report.min_margin > 0.0

    def test_below_sharp_lower_weight_fails(self):
        claim = BoundClaim(0.2210, HARMONIC, QUADRATIC, Relation.LESS_THAN_M, SharpAt.GAP_ZERO)
        report = verify_bound(claim, 2000)
        assert not report.holds
        assert report.min_margin < 0.0
        assert normalized_gap(report.worst_pair) < 0.2

    def test_grid_size_validation(self):
        claim = ALL_CLAIMS[0][1]
        with pytest.raises(DomainError):
            verify_bound(claim, 99)
        with pytest.raises(DomainError):
            gap_grid(2.5)
        # checked when called, not at the first block
        with pytest.raises(DomainError):
            certify._grid_blocks(1)

    @pytest.mark.parametrize("relation", list(Relation))
    def test_no_resolvable_margin_does_not_hold(self, relation):
        # M against the combination 0.5*M + 0.5*M: every margin is exactly
        # zero, so neither M < M nor M > M may hold
        claim = BoundClaim(0.5, NEUMAN_SANDOR, NEUMAN_SANDOR, relation, SharpAt.GAP_ZERO)
        report = verify_bound(claim, 100)
        assert report.min_margin == math.inf
        assert report.near_zero == 100
        assert not report.holds


def _point_margin(claim, weight, x):
    """The claim's normalized margin at gap x with its combination weighted
    by weight, one point at a time: the reference for the column sweeps."""
    m_x = means._columns_fn((NEUMAN_SANDOR,), True)([x])[0][0]
    first = means._columns_fn((claim.first,), True)([x])[0][0]
    second = means._columns_fn((claim.second,), True)([x])[0][0]
    combo = weight * first + (1.0 - weight) * second
    return m_x - combo if claim.relation is Relation.LESS_THAN_M else combo - m_x


# the three theorems, and 1.1 with a failing lower weight whose worst point
# lies past the first block of the sweep
SWEEP_CASES = {
    **{t: [claim for _, claim in theorem_claims(t)] for t in ("1.1", "1.2", "1.3")},
    "1.1-lower-0.2210": [replace(theorem_claims("1.1")[0][1], weight=0.2210),
                         theorem_claims("1.1")[1][1]],
}
BLOCK = certify._SWEEP_BLOCK


@pytest.fixture(params=["one process", "split"])
def sweep_parts(request, monkeypatch):
    """Run a memory test with the whole sweep in this traced process, and
    again split over this machine's CPUs as it runs by default."""
    if request.param == "one process":
        monkeypatch.setattr(certify, "_workers", lambda points: 1)


def _flat_compile(source, filename, mode):
    """compile(source, filename, mode) with every node at one source
    location: the code objects' location tables stay short, and tracemalloc
    scans them for each allocation it traces."""
    tree = ast.parse(source, filename, mode)
    for node in ast.walk(tree):
        if "lineno" in node._attributes:
            node.lineno = node.end_lineno = 1
            node.col_offset = node.end_col_offset = 0
    return compile(tree, filename, mode)


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while fn runs, after one untraced run
    has paid the one-time costs (kernels compiled, caches filled).  The
    kernels of both runs are compiled flat, and dropped after them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(means, "compile", _flat_compile, raising=False)
        means._compiled.cache_clear()
        means._columns_fn.cache_clear()
        try:
            fn()
            tracemalloc.start()
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            means._compiled.cache_clear()
            means._columns_fn.cache_clear()


def _code_objects(code):
    """code and every code object nested in it, depth first."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _const_key(const):
    """const, comparable bit for bit: floats by hex, code objects by name."""
    if isinstance(const, float):
        return const.hex()
    if isinstance(const, tuple):
        return tuple(map(_const_key, const))
    if isinstance(const, types.CodeType):
        return const.co_name
    return type(const), const


def test_flat_compile_changes_only_the_location_tables(monkeypatch):
    # every kernel source the memory tests below build, and the ratio columns
    sources, compiled = [], means._compiled

    def recording(source):
        sources.append(source)
        return compiled(source)

    monkeypatch.setattr(means, "_compiled", recording)
    means._columns_fn.cache_clear()
    verify_bound(SWEEP_CASES["1.1"], 10_000)
    verify_chain(1_000, seed=42)
    verify_corpus(1_000, seed=42)
    assert len(sources) == 4
    sources += [row.source for row in ratios._RATIO_ROWS.values()]
    for source in sources:
        flat = list(_code_objects(_flat_compile(source, "<means kernel>", "exec")))
        plain = list(_code_objects(compile(source, "<means kernel>", "exec")))
        assert len(flat) == len(plain)
        for f, p in zip(flat, plain):
            assert f.co_code == p.co_code, source
            assert f.co_names == p.co_names, source
            assert list(map(_const_key, f.co_consts)) == list(map(_const_key, p.co_consts)), source
        assert sum(len(f.co_linetable) for f in flat) < sum(len(p.co_linetable) for p in plain)


class TestOneSweep:
    @pytest.mark.parametrize("n", [255, 256, 257, 513, 4095, 4096, 4097, 12295, 100_000])
    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_equals_per_point_scan(self, case, n):
        claims = SWEEP_CASES[case]
        reports = verify_bound(claims, n)
        assert len(reports) == len(claims)
        grid = gap_grid(n)
        worst = []
        for claim, report in zip(claims, reports):
            weight = claim.weight
            best, worst_x, near = math.inf, 0.5, 0
            for x in grid:
                margin = _point_margin(claim, weight, x)
                if abs(margin) < certify.STRICTNESS_FLOOR:
                    near += 1
                elif margin < best:
                    best, worst_x = margin, x
            assert report.min_margin == best, case
            assert report.worst_pair == pair_from_gap(worst_x, 1.0), case
            assert report.near_zero == near, case
            assert report.grid_size == n
            worst.append(worst_x)
        if case == "1.1-lower-0.2210":
            assert reports[0].min_margin < 0.0
            # its worst gap sits at about 0.9 of the lower half of the grid,
            # past the first block once the grid has four blocks
            if n > 4 * BLOCK:
                assert grid.index(worst[0]) >= BLOCK

    def test_single_claim_form(self):
        claims = SWEEP_CASES["1.3"]
        reports = verify_bound(claims, 500)
        assert [verify_bound(claim, 500) for claim in claims] == reports
        assert verify_bound((), 500) == []
        with pytest.raises(DomainError):
            verify_bound([claims[0], "1.3-upper"], 500)
        with pytest.raises(DomainError):
            verify_bound(3, 500)

    def test_memory_does_not_grow_with_the_grid(self, sweep_parts):
        # the grid is made a block at a time, so the sweep never holds it
        grid_peak = traced_peak(lambda: gap_grid(100_000))
        small_peak = traced_peak(lambda: verify_bound(SWEEP_CASES["1.1"], 10_000))
        sweep_peak = traced_peak(lambda: verify_bound(SWEEP_CASES["1.1"], 100_000))
        assert sweep_peak <= grid_peak / 10
        assert sweep_peak <= 1.1 * small_peak


def _ranking_column(margins):
    """A margin column of RANKED points, 1.0 but for the {index: margin}
    entries."""
    column = [1.0] * RANKED
    for index, margin in margins.items():
        column[index] = margin
    return column


FLOOR = certify.STRICTNESS_FLOOR
NAN = float("nan")
RANKED = 2 * BLOCK + 50  # three blocks, the last one short

# (name, column, expected (min_margin, point, near_zero)); the points are
# the indices 0..RANKED-1, and a column with nothing ranked has point None
RANKING_CASES = [
    ("equal negative minima in two blocks",
     _ranking_column({10: -0.5, BLOCK + 20: -0.5}), (-0.5, 10, 0)),
    ("equal positive minima in two blocks",
     _ranking_column({5: 0.25, BLOCK + 5: 0.25}), (0.25, 5, 0)),
    ("equal positive minima in one block",
     _ranking_column({BLOCK + 5: 0.25, BLOCK + 200: 0.25}), (0.25, BLOCK + 5, 0)),
    ("half floor counted, not ranked",
     _ranking_column({3: 0.5 * FLOOR, BLOCK + 3: -0.5 * FLOOR, 2 * BLOCK + 1: 0.75}),
     (0.75, 2 * BLOCK + 1, 2)),
    ("minus floor ranked", _ranking_column({BLOCK + 7: -FLOOR}), (-FLOOR, BLOCK + 7, 0)),
    ("plus floor ranked", _ranking_column({4: FLOOR}), (FLOOR, 4, 0)),
    ("nan first in a block and mid-block",
     _ranking_column({5: NAN, BLOCK: NAN, BLOCK + 9: 0.5}), (0.5, BLOCK + 9, 0)),
    ("nan first in the first block", _ranking_column({0: NAN, 100: 0.25}), (0.25, 100, 0)),
    ("all near zero", [(-1) ** i * 0.5 * FLOOR if i % 3 else 0.0 for i in range(RANKED)],
     (math.inf, None, RANKED)),
    ("all nan", [NAN] * RANKED, (math.inf, None, 0)),
    ("all inf", [math.inf] * RANKED, (math.inf, None, 0)),
    ("nan mid-block beside near-zero and negative margins",
     _ranking_column({BLOCK + 3: NAN, BLOCK + 9: 0.5 * FLOOR, BLOCK + 20: -0.25}),
     (-0.25, BLOCK + 20, 1)),
    ("plus and minus inf in one block",
     _ranking_column({7: math.inf, 30: -math.inf, 31: 0.0}), (-math.inf, 30, 1)),
    ("plus floor ranked beside a near-zero margin",
     _ranking_column({BLOCK + 4: FLOOR, BLOCK + 5: 0.5 * FLOOR}), (FLOOR, BLOCK + 4, 1)),
    ("minus inf", _ranking_column({2 * BLOCK + 5: -math.inf, 2 * BLOCK + 6: -math.inf}),
     (-math.inf, 2 * BLOCK + 5, 0)),
]

# range(RANKED) cut into the (start, block) pairs a sweep walks
RANKED_BLOCKS = [(start, range(start, min(start + BLOCK, RANKED)))
                 for start in range(0, RANKED, BLOCK)]
RANKING_COLUMNS = [case[1] for case in RANKING_CASES]


def _ranking_scans(blocks):
    """_sweep's scans of every RANKING_CASES column over blocks."""
    return certify._sweep(blocks, lambda block: [[c[i] for i in block] for c in RANKING_COLUMNS])


class TestSweepRanking:
    @pytest.mark.parametrize("name,column,expected", RANKING_CASES,
                             ids=[case[0] for case in RANKING_CASES])
    def test_ranking_rule(self, name, column, expected):
        blocks = []

        def margin_columns(block):
            blocks.append(len(block))
            return [[column[i] for i in block]]

        ((best, at, point, near),) = certify._sweep(RANKED_BLOCKS, margin_columns)
        assert blocks == [BLOCK, BLOCK, 50]
        assert (best, point, near) == expected
        if point is not None:
            assert at == point

    def test_columns_ranked_apart(self):
        scans = _ranking_scans(RANKED_BLOCKS)
        assert [(best, point, near) for best, _, point, near in scans] == \
            [case[2] for case in RANKING_CASES]

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_block_order_does_not_matter(self, order):
        # the grid sweep walks its blocks out of grid order; a scan ranks by
        # (margin, index), so it reads the same in any order
        blocks = list(RANKED_BLOCKS)
        if order == "reversed":
            blocks.reverse()
        else:
            random.Random(20).shuffle(blocks)
            assert blocks != RANKED_BLOCKS
        assert _ranking_scans(blocks) == _ranking_scans(RANKED_BLOCKS)

    @pytest.mark.parametrize("margin", [0.25, -0.25])
    def test_tie_in_a_later_block_goes_to_the_least_index(self, margin):
        # equal minima at indices 10 and BLOCK + 20, the later block walked
        # first; a minimum below the floor takes the per-point loop
        column = _ranking_column({10: margin, BLOCK + 20: margin})
        scans = certify._sweep(RANKED_BLOCKS[::-1], lambda block: [[column[i] for i in block]])
        assert scans == [(margin, 10, 10, 0)]


class TestSharpness:
    @pytest.mark.parametrize("claim_id,claim", ALL_CLAIMS)
    def test_probe_violates_each_claim(self, claim_id, claim):
        report = sharpness_probe(claim, 1e-3)
        assert report.violated, claim_id
        assert report.witness is not None
        if claim.sharp_at is SharpAt.GAP_ZERO:
            assert report.witness_gap < 0.2
        else:
            assert report.witness_gap > 0.95

    def test_epsilon_domain(self):
        claim = ALL_CLAIMS[0][1]
        for eps in (0.0, -1e-3, 0.02):
            with pytest.raises(DomainError):
                sharpness_probe(claim, eps)

    def test_perturbed_weight_must_stay_in_unit_interval(self):
        claim = BoundClaim(0.0, HARMONIC, QUADRATIC, Relation.LESS_THAN_M, SharpAt.GAP_ZERO)
        with pytest.raises(DomainError):
            sharpness_probe(claim, 1e-3)

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-14])
    @pytest.mark.parametrize("claim_id,claim", ALL_CLAIMS)
    def test_equals_per_point_walk(self, claim_id, claim, epsilon):
        # halve the offset from the sharp end from 0.5 while it is at least
        # 1e-15, and stop at the first margin below -_VIOLATION_THRESHOLD
        lower = claim.relation is Relation.LESS_THAN_M
        weight = claim.weight - epsilon if lower else claim.weight + epsilon
        witness, offset = None, 0.5
        while witness is None and offset >= 1e-15:
            x = offset if claim.sharp_at is SharpAt.GAP_ZERO else 1.0 - offset
            if _point_margin(claim, weight, x) < -certify._VIOLATION_THRESHOLD:
                witness = x
            offset *= 0.5
        report = sharpness_probe(claim, epsilon)
        assert report.perturbation == epsilon
        assert report.violated is (witness is not None)
        assert report.witness_gap == witness
        assert report.witness == (None if witness is None else pair_from_gap(witness, 1.0))

    def test_no_witness_at_1e_8(self):
        # on the three claims that are sharp at gap 0, a perturbation of 1e-8
        # breaks the bound by less than _VIOLATION_THRESHOLD at every rung
        missed = {cid for cid, claim in ALL_CLAIMS if not sharpness_probe(claim, 1e-8).violated}
        assert missed == {"1.1-lower", "1.2-lower", "1.3-upper"}

    def test_probe_perturbs_the_verified_weight(self):
        # one weight per claim: 1.1-lower at 0.3 holds, and so does 0.3 - 1e-3
        claim = replace(theorem_claims("1.1")[0][1], weight=0.3)
        assert verify_bound(claim, 500).holds
        assert not sharpness_probe(claim, 1e-3).violated
        assert sharpness_probe(replace(claim, weight=0.2), 1e-3).violated

    def test_sharpness_duality(self):
        # the bound holds at the sharp weight and breaks at eps past it
        for claim_id, claim in ALL_CLAIMS:
            assert verify_bound(claim, 500).holds, claim_id
            assert sharpness_probe(claim, 1e-3).violated, claim_id


class TestRecoverConstant:
    @pytest.mark.parametrize("kind,objective,expected", [
        (RatioFunctionKind.PHI_HQ, Objective.SUPREMUM, C.alpha1),
        (RatioFunctionKind.PHI_HQ, Objective.INFIMUM, C.lambda0),
        (RatioFunctionKind.RATIO_GQ, Objective.SUPREMUM, C.alpha2),
        (RatioFunctionKind.RATIO_GQ, Objective.INFIMUM, C.lambda0),
        (RatioFunctionKind.PHI_HC, Objective.SUPREMUM, C.alpha3),
        (RatioFunctionKind.PHI_HC, Objective.INFIMUM, C.beta3),
    ])
    def test_recovers_sharp_constants(self, kind, objective, expected):
        assert recover_constant(kind, objective, 1e-9) == pytest.approx(expected, abs=1e-9)

    def test_tolerance_floor(self):
        with pytest.raises(DomainError):
            recover_constant(RatioFunctionKind.PHI_HQ, Objective.SUPREMUM, 1e-13)
        with pytest.raises(DomainError):
            recover_constant(RatioFunctionKind.PHI_HQ, Objective.SUPREMUM, True)

    @pytest.mark.parametrize("kind", list(RatioFunctionKind))
    def test_end_values_decide_at_every_tolerance(self, kind):
        # each ratio function is monotone, so its supremum and infimum are
        # its end values, bit for bit, and no scan value lies beyond them
        ends = [endpoint_value(kind, end) for end in Endpoint]
        expected = [max(ends).hex(), min(ends).hex()]
        for tol in (1e-12, 1e-9, 1e-3, 1.0):
            assert [v.hex() for v in recover_constant(kind, list(Objective), tol)] == expected
        column = ratios._column(kind)(certify._scan_points(ratio_function_domain(kind)[1]))
        assert min(ends) <= min(column) and max(column) <= max(ends)

    def test_scan_is_the_check(self, monkeypatch, capsys):
        # a kernel that rose past its supremum end in the interior wins the
        # recovery, and constants fails on it
        from means_lab.cli import main

        kind = RatioFunctionKind.PHI_HQ
        raised = max(endpoint_value(kind, end) for end in Endpoint) + 1e-6

        def raising(k):
            def column(ts):
                values = ratios._column(k)(ts)
                if k is kind:
                    values[1000] = raised
                return values
            return column

        monkeypatch.setattr(certify, "_column", raising)
        assert recover_constant(kind, Objective.SUPREMUM) == raised
        assert main(["constants", "--format", "json"]) == 1
        rows = {row["id"]: row for row in json.loads(capsys.readouterr().out)["verdicts"]}
        assert rows["alpha1"]["recovered"] == raised and rows["alpha1"]["abs_diff"] >= 1e-9

    @pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-12])
    @pytest.mark.parametrize("kind", list(RatioFunctionKind))
    def test_objectives_from_one_scan_equal_single_calls(self, kind, tol):
        singles = [recover_constant(kind, objective, tol) for objective in Objective]
        assert recover_constant(kind, list(Objective), tol) == singles
        assert recover_constant(kind, tuple(Objective), tol) == singles
        assert recover_constant(kind, [Objective.INFIMUM], tol) == singles[1:]

    def test_objective_sequence_validation(self):
        assert recover_constant(RatioFunctionKind.PHI_HQ, []) == []
        for objectives in ([Objective.SUPREMUM, "infimum"], [None], "supremum", None):
            with pytest.raises(DomainError):
                recover_constant(RatioFunctionKind.PHI_HQ, objectives)

    @pytest.mark.parametrize("kind", list(RatioFunctionKind))
    def test_scan_column_equals_checked_evaluation(self, monkeypatch, kind):
        scans = []

        def recording(k):
            return lambda ts: scans.append(list(ts)) or ratios._column(k)(ts)

        monkeypatch.setattr(certify, "_column", recording)
        recover_constant(kind, list(Objective))
        (points,) = scans
        assert len(points) == 2023
        points += [math.nextafter(SERIES_SWITCH, 0.0), SERIES_SWITCH,
                   math.nextafter(SERIES_SWITCH, 1.0)]
        column = ratios._column(kind)(points)
        # bit for bit, and finite: the scan's max/min pick relies on it
        assert [v.hex() for v in column] == [evaluate_ratio_function(kind, t).hex()
                                              for t in points]
        assert all(math.isfinite(v) for v in column)

    def test_monotone_recovery_no_interior_extremum(self):
        # at 1,999 interior points each ratio function is strictly monotone,
        # from one end value toward the other, and lies between the two
        rising = {RatioFunctionKind.PHI_HQ: False, RatioFunctionKind.PHI_HC: True,
                  RatioFunctionKind.RATIO_GQ: False}
        for kind in RatioFunctionKind:
            lo, hi = ratio_function_domain(kind)
            values = [evaluate_ratio_function(kind, lo + (hi - lo) * k / 2000.0) for k in range(1, 2000)]
            if not rising[kind]:
                values.reverse()
            ends = sorted(endpoint_value(kind, end) for end in Endpoint)
            assert all(a < b for a, b in zip([ends[0], *values], [*values, ends[1]])), kind


class TestRecoveryCaches:
    """One scan table per domain end and one built column kernel per ratio
    function, each made once per process."""

    def test_phi_hq_and_phi_hc_scan_one_table(self, monkeypatch):
        scans = {}

        def recording(k):
            def column(ts):
                scans[k] = ts
                return ratios._column(k)(ts)
            return column

        monkeypatch.setattr(certify, "_column", recording)
        for kind in RatioFunctionKind:
            recover_constant(kind, list(Objective))
        assert scans[RatioFunctionKind.PHI_HQ] is scans[RatioFunctionKind.PHI_HC]
        assert scans[RatioFunctionKind.PHI_HQ] is certify._scan_points(ratios.ASINH_ONE)
        assert scans[RatioFunctionKind.RATIO_GQ] is certify._scan_points(1.0)

    @pytest.mark.parametrize("hi", [ratios.ASINH_ONE, 1.0])
    def test_table_is_the_scan_formula(self, hi):
        expected = ([hi * (i + 0.5) / 2001.0 for i in range(2001)]
                    + [hi * 10.0**-j for j in range(2, 13)]
                    + [hi - hi * 10.0**-j for j in range(2, 13)])
        table = certify._scan_points(hi)
        assert isinstance(table, tuple) and len(table) == 2023
        assert [t.hex() for t in table] == [t.hex() for t in expected]

    def test_second_constants_call_builds_nothing(self, capsys):
        from means_lab.cli import main

        infos = []
        outputs = []
        for _ in range(2):
            assert main(["constants", "--format", "json"]) == 0
            outputs.append(capsys.readouterr())
            infos.append((certify._scan_points.cache_info(), ratios._column.cache_info(),
                          means._compiled.cache_info()))
        (tables, columns, compiled), (tables_after, columns_after, compiled_after) = infos
        assert tables_after.misses == tables.misses and tables_after.currsize == tables.currsize
        assert tables_after.hits == tables.hits + 3
        assert columns_after.misses == columns.misses and columns_after.hits > columns.hits
        assert compiled_after.misses == compiled.misses
        assert outputs[0].out == outputs[1].out and outputs[0].err == outputs[1].err == ""


class TestChain:
    def test_chain_holds_seeded(self):
        report = verify_chain(2000, seed=42)
        assert report.holds
        assert report.min_margin > 0.0
        assert report.seed == 42
        assert report.grid_size == 2000

    def test_chain_holds_at_full_scale(self):
        report = verify_chain(100_000, seed=42)
        assert report.holds
        assert report.min_margin > 0.0

    def test_sample_count_validation(self):
        with pytest.raises(DomainError):
            verify_chain(0, seed=1)
        with pytest.raises(DomainError):
            verify_chain(True, 1)

    def test_deterministic(self):
        assert verify_chain(500, seed=7) == verify_chain(500, seed=7)

    def test_memory_does_not_grow_with_samples(self, sweep_parts):
        # the draws are held one block at a time
        assert traced_peak(lambda: verify_chain(100_000, seed=42)) \
            <= 1.25 * traced_peak(lambda: verify_chain(1_000, seed=42))


class TestCorpus:
    def test_corpus_verdicts(self):
        results = dict(verify_corpus(2000, seed=42))
        gating = {cid for cid in results if cid not in REPORT_ONLY_CORPUS_CLAIMS}
        assert gating == {"ky-fan", "pm-lt-a2", "at-lt-m2", "m2-lt-square-mean",
                          "lp0-lt-m", "m-lt-l2"}
        for cid in gating:
            assert results[cid].holds, cid
        # first weighted Q/A constant set survives, second fails on the
        # upper side (1/6 < 1/3 = the actual supremum)
        assert results["neuman-qa-alpha-lower"].holds
        assert results["neuman-qa-beta-upper"].holds
        assert results["neuman-qa-lambda-lower"].holds
        assert not results["neuman-qa-mu-upper"].holds
        assert results["neuman-qa-mu-upper"].min_margin < 0.0

    def test_seed_recorded_and_deterministic(self):
        first = verify_corpus(300, seed=9)
        second = verify_corpus(300, seed=9)
        assert first == second
        assert all(report.seed == 9 for _, report in first)

    def test_memory_does_not_grow_with_samples(self, sweep_parts):
        # both counts fill whole blocks; 100 samples would not fill one
        assert traced_peak(lambda: verify_corpus(10_000, seed=42)) \
            <= 1.25 * traced_peak(lambda: verify_corpus(1_000, seed=42))


@pytest.mark.parametrize("verify", [verify_chain, verify_corpus])
@pytest.mark.parametrize("seed", [None, True, 1.5, "7", -5])
def test_seed_is_a_nonnegative_int(verify, seed):
    # None once seeded the chain from OS entropy, and -5 drew seed 5's stream
    with pytest.raises(DomainError, match=f"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"):
        verify(300, seed)


def _reference_chain_pair(rng):
    """The per-pair chain draw a block must reproduce: a log-uniform scale,
    then a uniform gap, drawn again while it is 0.0."""
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    x = rng.random()
    while x == 0.0:
        x = rng.random()
    return scale * (1.0 + x), scale * (1.0 - x)


def _reference_ky_fan_pair(rng):
    """The per-pair ky-fan draw: reals in (0, 1/2) with distinct mirrors
    1 - a and 1 - b, drawn again until they are."""
    while True:
        a = rng.uniform(0.0, 0.5)
        b = rng.uniform(0.0, 0.5)
        if 0.0 < a < 0.5 and 0.0 < b < 0.5 and 1.0 - a != 1.0 - b:
            return a, b


class _ZeroAt(random.Random):
    """A seeded Random whose random() returns 0.0 at the chosen call
    positions; every call still advances the underlying stream."""

    def __init__(self, seed, zeros):
        super().__init__(seed)
        self.zeros, self.calls = frozenset(zeros), 0

    def random(self):
        value = super().random()
        self.calls += 1
        return 0.0 if self.calls - 1 in self.zeros else value


# call positions 1 and 4-6 are gaps of the first two pairs (the second gap
# is drawn three times more), 3 is a scale, 511 and 515 lie past the first
# 256 pairs; ky-fan meets zeros in both entries and equal entries rarely
ZERO_CALLS = (1, 3, 4, 5, 6, 511, 515)


class TestBlockDraws:
    @pytest.mark.parametrize("count", [1, 255, 256, 257, 1000])
    @pytest.mark.parametrize("draw,reference", [(certify._chain_draw, _reference_chain_pair),
                                                (certify._ky_fan_draw, _reference_ky_fan_pair)],
                             ids=["chain", "ky-fan"])
    @pytest.mark.parametrize("zeros", [(), ZERO_CALLS], ids=["random", "zeros"])
    def test_block_is_the_per_pair_stream(self, draw, reference, count, zeros):
        block_rng, pair_rng = _ZeroAt(17, zeros), _ZeroAt(17, zeros)
        block = draw(block_rng, count)
        expected = [reference(pair_rng) for _ in range(count)]
        assert [(a.hex(), b.hex()) for a, b in block] == \
            [(a.hex(), b.hex()) for a, b in expected]
        assert block_rng.calls == pair_rng.calls
        assert block_rng.getstate() == pair_rng.getstate()

    def test_zero_gap_is_drawn_again_and_zero_scale_kept(self):
        rng = _ZeroAt(17, ZERO_CALLS)
        (a0, b0), (a1, b1) = certify._chain_draw(rng, 2)
        # pair 0's gap is call 2; pair 1's scale is call 3, 10**-3, and its
        # gap is call 7
        assert rng.calls == 8
        assert a0 > b0 and a1 > b1
        assert (a1 + b1) / 2.0 == pytest.approx(1e-3, rel=1e-15)

    def test_ky_fan_pair_with_a_shared_mirror_is_drawn_again(self):
        # 3 * 2**-54 and 4 * 2**-54 are distinct, but 1 - each rounds to 1 - 2**-52
        values = iter([3 * 2.0**-53, 4 * 2.0**-53, 0.5, 0.25])
        assert certify._ky_fan_pair(lambda: next(values)) == (0.25, 0.125)

    @pytest.mark.parametrize("seed", [7, 42, 101])
    def test_streams_draw_only_ordinary_rows(self, seed):
        # the streams at the sampled-chain workload's sizes, as _sampled_sweeps
        # draws them: every chain and pairs row, and every ky-fan pair and
        # mirror pair, is a row its kernel takes (each kernel has L or L_p)
        kinds = (means.LOGARITHMIC,)
        for stream, draw, count in [("chain", certify._chain_draw, 100_000),
                                    ("pairs", certify._chain_draw, 10_000),
                                    ("ky-fan", certify._ky_fan_draw, 10_000)]:
            rows = []
            for j, start in enumerate(range(0, count, certify._SWEEP_BLOCK)):
                rng = random.Random(f"{seed:x}:{stream}:{j}")
                rows += draw(rng, min(certify._SWEEP_BLOCK, count - start))
            if stream == "ky-fan":
                rows += [(1.0 - a, 1.0 - b) for a, b in rows]
            assert len(_ordinary_rows(rows, kinds)) == len(rows), stream

    @pytest.mark.parametrize("seed", [7, 42])
    def test_chain_pairs_are_ordered(self, seed):
        # the samplers read a chain block's columns (as, bs) as (his, los)
        assert all(a >= b for a, b in certify._chain_draw(random.Random(seed), 1000))


def _fixed_draws(monkeypatch, pairs):
    """Make certify._chain_draw, which feeds the chain and nine of the ten
    corpus claims, return blocks of pairs in order, starting over when they
    run out."""
    draws = itertools.cycle(pairs)
    monkeypatch.setattr(certify, "_chain_draw",
                        lambda rng, count: list(itertools.islice(draws, count)))


# the corpus claims whose worst pair among the fixed draws below is the
# small-gap pair (neuman-qa-mu-upper fails at wide gaps; ky-fan draws its own)
SMALL_GAP_WORST = {"pm-lt-a2", "at-lt-m2", "m2-lt-square-mean", "lp0-lt-m", "m-lt-l2",
                   "neuman-qa-alpha-lower", "neuman-qa-beta-upper", "neuman-qa-lambda-lower"}


class TestSampledDrawOrder:
    @pytest.mark.parametrize("first,second", [(3, 10), (10, 3), (3, 300), (300, 3)])
    def test_earlier_of_equal_minima_wins(self, monkeypatch, first, second):
        # a pair and its copy scaled by 4 have bit-identical normalized
        # margins; among wide-gap fillers they tie for the minimum, in one
        # block or in two, and the earlier draw must be the worst pair
        rng = random.Random(5)
        pairs = []
        for _ in range(400):
            x, scale = rng.uniform(0.3, 0.9), 10 ** rng.uniform(-2.0, 2.0)
            pairs.append((scale * (1.0 + x), scale * (1.0 - x)))
        small, scaled = (1.01, 0.99), (4.0 * 1.01, 4.0 * 0.99)
        pairs[first], pairs[second] = small, scaled
        earlier = PositivePair(*(small if first < second else scaled))
        _fixed_draws(monkeypatch, pairs)
        report = verify_chain(len(pairs), seed=1)
        assert report.worst_pair == earlier
        assert report.min_margin > 0.0
        results = dict(verify_corpus(len(pairs), seed=1))
        for cid in SMALL_GAP_WORST:
            assert results[cid].worst_pair == earlier, cid

    @pytest.mark.parametrize("columns", [(1, 6), (6, 1)])
    @pytest.mark.parametrize("first,second", [(3, 10), (3, 300)])
    def test_tie_across_columns_goes_to_the_earlier_draw(self, monkeypatch, first, second,
                                                          columns):
        # chain values 1..9 around A = 5 give every margin 1/5; at draw first
        # the step above chain column columns[0] is halved, at draw second
        # that above columns[1], so the two columns tie at 0.5/5 and the
        # earlier draw must be the worst pair in either column order
        halved = {first: columns[0], second: columns[1]}

        def fake_kernel(outputs):
            # the chain kernel's outputs, the steps (above - below) / A, from
            # the fake chain values of each pair
            assert len(outputs) == 8

            def fake_steps(pairs):
                rows = []
                for hi, _ in pairs:
                    v = [k + 1.0 for k in range(9)]
                    c = halved.get(int(hi) - 2)
                    # halve the step above v[c] without moving A = v[4]
                    if c is not None and c >= 4:
                        v[c + 1:] = [value - 0.5 for value in v[c + 1:]]
                    elif c is not None:
                        v[:c + 1] = [value + 0.5 for value in v[:c + 1]]
                    rows.append([(above - below) / v[4] for below, above in zip(v, v[1:])])
                return [list(column) for column in zip(*rows)]
            return fake_steps

        monkeypatch.setattr(certify, "_kernel", fake_kernel)
        _fixed_draws(monkeypatch, [(i + 2.0, 1.0) for i in range(400)])
        report = verify_chain(400, seed=1)
        assert report.min_margin == 0.5 / 5.0
        assert report.worst_pair == PositivePair(first + 2.0, 1.0)
        assert report.near_zero == 0

    @pytest.mark.parametrize("n", [1, 256, 600])
    def test_no_resolvable_margin(self, monkeypatch, n):
        # on the diagonal every margin is near zero: no block may move the
        # report off its default worst pair, and with nothing resolved the
        # report does not hold
        _fixed_draws(monkeypatch, [(1.0, 1.0)])
        assert verify_chain(n, seed=3) == certify.CertificationReport(
            grid_size=n, min_margin=math.inf, worst_pair=PositivePair(1.5, 0.5),
            holds=False, near_zero=8 * n, seed=3)
        for cid, report in verify_corpus(n, seed=3):
            if cid == "ky-fan":
                continue
            assert report == certify.CertificationReport(
                grid_size=n, min_margin=math.inf, worst_pair=PositivePair(1.5, 0.5),
                holds=False, near_zero=n, seed=3), cid


class TestRatioMarginEquivalence:
    def test_sign_pivot(self):
        # sign(M - (wH + (1-w)Q)) == sign(w - phi_hq(t)) at t = asinh(gap)
        rng = random.Random(123)
        checked = 0
        for _ in range(10_000):
            w = rng.random()
            gap = rng.uniform(1e-6, 1.0 - 1e-6)
            pair = pair_from_gap(gap, 1.0)
            m = evaluate_mean(NEUMAN_SANDOR, pair)
            combo = (w * evaluate_mean(HARMONIC, pair)
                     + (1.0 - w) * evaluate_mean(QUADRATIC, pair))
            margin = m - combo
            pivot = w - phi_hq(stable_asinh(gap))
            if abs(margin) < 1e-13 or abs(pivot) < 1e-13:
                continue
            checked += 1
            assert (margin > 0.0) == (pivot > 0.0)
        assert checked > 9500
