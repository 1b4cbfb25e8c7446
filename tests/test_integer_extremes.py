"""Totality at the integer extremes: ints of 401 and 5,001 digits, past the
float range and past the 4,300 digits that str() converts, reach every
integer and class argument of the entry points below.  Each call raises a
DomainError that names its parameter, and each CLI command exits 2 with an
`error:` line and no traceback."""

import re
import sys

import pytest

from means_lab import (
    DomainError,
    Endpoint,
    as_pair,
    coefficient_exact,
    evaluate_mean,
    limit_at,
    phi_hc,
    phi_hq,
    ratio_difference,
    ratio_gq,
    ratio_sequence_verdict,
    theorem_claims,
    verify_bound,
    verify_chain,
    verify_corpus,
)
from means_lab.certify import gap_grid
from means_lab.exceptions import check_int, shown
from means_lab.series import CoefficientKind
from test_cli import run_cli

HUGE = 10**5000
PAST_FLOAT = 10**400
# each bad value by name, with the text a message shows for it
VALUES = {"5001-digits": (HUGE, "an int of 5001 digits"),
          "minus-5001-digits": (-HUGE, "an int of 5001 digits"),
          "401-digits": (PAST_FLOAT, "an int of 401 digits")}
ALL = tuple(VALUES)
NEGATIVE = ("minus-5001-digits",)

CLAIM = theorem_claims("1.1")[0][1]

# entry point -> (call of the bad value, the words that name the parameter,
# the bad values): a count is bounded by sys.maxsize, a coefficient index and
# a term count by series._MAX_INDEX, and a seed only below
ENTRY_POINTS = {
    "verify_chain-sample_count": (lambda v: verify_chain(v, 1), "sample_count", ALL),
    "verify_chain-seed": (lambda v: verify_chain(10, v), "seed", NEGATIVE),
    "verify_corpus-sample_count": (lambda v: verify_corpus(v, 1), "sample_count", ALL),
    "verify_corpus-seed": (lambda v: verify_corpus(10, v), "seed", NEGATIVE),
    "coefficient_exact-n": (lambda v: coefficient_exact(CoefficientKind.A, v),
                            "coefficient index n", ALL),
    "ratio_difference-n": (lambda v: ratio_difference(CoefficientKind.A, CoefficientKind.B, v),
                           "coefficient index n", ALL),
    "ratio_sequence_verdict-N": (lambda v: ratio_sequence_verdict(CoefficientKind.C, CoefficientKind.D, v),
                                 "number of terms N", ALL),
    "gap_grid-n": (gap_grid, "grid size n", ALL),
    "verify_bound-claim": (lambda v: verify_bound(v, 100), "claim", ALL),
    "verify_bound-grid_size": (lambda v: verify_bound(CLAIM, v), "grid_size", ALL),
    "evaluate_mean-kind": (lambda v: evaluate_mean(v, (1, 2)), "mean kind", ALL),
    "limit_at-kind": (lambda v: limit_at(v, Endpoint.LOWER), "ratio function kind", ALL),
    "as_pair": (as_pair, "as a pair", ALL),
    "theorem_claims": (theorem_claims, "unknown theorem", ALL),
    "phi_hq": (phi_hq, "phi-hq needs 0 < t", ALL),
    "phi_hc": (phi_hc, "phi-hc needs 0 < |t|", ALL),
    "ratio_gq": (ratio_gq, "ratio-gq needs 0 < t", ALL),
}


@pytest.mark.parametrize("call,name,value,shown", [
    pytest.param(call, name, *VALUES[label], id=f"{entry}-{label}")
    for entry, (call, name, labels) in ENTRY_POINTS.items() for label in labels])
def test_raises_domain_error_naming_the_parameter(call, name, value, shown):
    with pytest.raises(DomainError) as info:
        call(value)
    message = str(info.value)
    assert name in message
    assert shown in message
    assert len(message) < 200


def test_counts_are_bounded_by_sys_maxsize():
    # the largest index a list can have; gap_grid(sys.maxsize + 1) used to
    # raise OverflowError from its list, so only the check is run here
    assert check_int("n", sys.maxsize, 2, sys.maxsize) == sys.maxsize
    with pytest.raises(DomainError, match=re.escape(f"in [2, {sys.maxsize}], got {sys.maxsize + 1}")):
        gap_grid(sys.maxsize + 1)
    with pytest.raises(DomainError, match=r"^grid size n must be an integer in \[2, \d+\], got 1$"):
        gap_grid(1)


def test_an_unbounded_check_keeps_its_message():
    with pytest.raises(DomainError, match=r"^seed must be an integer >= 0, got an int of 5001 digits$"):
        verify_chain(10, -HUGE)


def test_a_huge_seed_is_accepted():
    report = verify_chain(10, HUGE)
    assert report.seed == HUGE
    assert report.holds


def test_a_huge_seed_is_accepted_by_the_corpus():
    # each claim's streams are keyed by the seed in hex, which str() would refuse
    reports = verify_corpus(5, HUGE)
    assert len(reports) == 10
    assert all(report.seed == HUGE for _, report in reports)


def test_a_record_shows_a_huge_int_by_its_digit_count():
    assert repr(verify_chain(10, HUGE)).endswith(", seed=an int of 5001 digits)")


def test_shown_is_repr_inside_the_float_range():
    for value in (5, -7, 2**1000, "1.1", None, (1.0, 2.0)):
        assert shown(value) == repr(value)
    assert shown(-10**309) == "an int of 310 digits"


# str() refuses to write an int of over 4,300 digits, so its text is built
HUGE_TEXT = "1" + "0" * 5000
CLI_CASES = {
    "grid-past-float": (["verify", "1.1", "--grid", str(PAST_FLOAT)], "grid_size"),
    "chain-samples-past-float": (["verify", "chain", "--samples", str(PAST_FLOAT)], "sample_count"),
    "corpus-samples-past-float": (["verify", "corpus", "--samples", str(PAST_FLOAT)], "sample_count"),
    "chain-seed-negative-past-float": (["verify", "chain", "--samples", "10", "--seed", str(-PAST_FLOAT)],
                                       "seed"),
    # argparse refuses to convert an int of over 4,300 digits itself
    "grid-huge": (["verify", "1.1", "--grid", HUGE_TEXT], "--grid"),
    "grid-huge-negative": (["verify", "1.1", "--grid", "-" + HUGE_TEXT], "--grid"),
    "chain-samples-huge": (["verify", "chain", "--samples", HUGE_TEXT], "--samples"),
    "corpus-seed-huge-negative": (["verify", "corpus", "--seed", "-" + HUGE_TEXT], "--seed"),
    "series-terms-past-float": (["series", "HQ", "--terms", str(PAST_FLOAT)], "number of terms N"),
}


@pytest.mark.parametrize("argv,name", list(CLI_CASES.values()), ids=list(CLI_CASES))
def test_cli_exits_2_without_a_traceback(argv, name):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert re.search(r"(^|: )error: ", err, re.MULTILINE)
    assert name in err
