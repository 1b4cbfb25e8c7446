"""Known answers for every command the workloads run.

Each check takes the command's parsed JSON document and returns a list of
``(label, ok)`` verdicts.  The expected values are computed here with
``math`` and ``fractions`` from the paper's closed forms; nothing is taken from the CLI's own
cross-checks (``abs_diff``, ``holds`` of report-only claims).  A verdict
whose row is missing from the document counts as wrong.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

ASINH_ONE = math.log(1.0 + math.sqrt(2.0))
LAMBDA0 = 1.0 - 1.0 / (math.sqrt(2.0) * ASINH_ONE)

SHARP_CONSTANTS = {
    "alpha1": 2.0 / 9.0,
    "beta1": LAMBDA0,
    "alpha2": 1.0 / 3.0,
    "beta2": LAMBDA0,
    "alpha3": 1.0 - 1.0 / (2.0 * ASINH_ONE),
    "beta3": 5.0 / 12.0,
    "lambda0": LAMBDA0,
}
CONSTANT_TOLERANCE = 1e-9
P0_RESIDUAL_TOLERANCE = 1e-12

# Gap end where each claim's ratio-function extremum sits: 0 or 1.
SHARP_END = {
    "1.1-lower": 0, "1.1-upper": 1,
    "1.2-lower": 0, "1.2-upper": 1,
    "1.3-lower": 1, "1.3-upper": 0,
}

GATING_CORPUS_CLAIMS = ("ky-fan", "pm-lt-a2", "at-lt-m2", "m2-lt-square-mean",
                        "lp0-lt-m", "m-lt-l2")
VIOLATED_CORPUS_CLAIM = "neuman-qa-mu-upper"

# H < G < L < P < A < M < T < Q < C: eight comparisons per chain sample
CHAIN_COMPARISONS = 8

SERIES_DIRECTION = {"HQ": "strictly-decreasing", "HC": "strictly-increasing"}
# the series command verdicts 50 terms and prints the first 10 ratios
SERIES_TERMS = 50
SERIES_PRINTED = 10


def _rows(doc: dict) -> dict[str, dict]:
    return {row.get("id"): row for row in doc.get("verdicts") or []}


def check_theorem(target: str, doc: dict) -> list[tuple[str, bool]]:
    rows = _rows(doc)
    out = []
    for side in ("lower", "upper"):
        claim = f"{target}-{side}"
        row = rows.get(claim, {})
        margin = row.get("min_margin")
        ok = (row.get("holds") is True and isinstance(margin, float) and margin > 0.0)
        out.append((f"{claim} holds", ok))
    return out


def check_sharpness(claim: str, doc: dict) -> list[tuple[str, bool]]:
    row = _rows(doc).get(claim, {})
    gap = row.get("witness_gap")
    if not isinstance(gap, float):
        at_end = False
    elif SHARP_END[claim] == 0:
        at_end = gap < 0.2
    else:
        at_end = gap > 0.95
    return [(f"{claim} witness", row.get("violated") is True and at_end)]


def check_chain(doc: dict) -> list[tuple[str, bool]]:
    return [("chain holds", _rows(doc).get("chain", {}).get("holds") is True)]


def check_corpus(doc: dict) -> list[tuple[str, bool]]:
    rows = _rows(doc)
    out = [(f"{c} holds", rows.get(c, {}).get("holds") is True) for c in GATING_CORPUS_CLAIMS]
    out.append((f"{VIOLATED_CORPUS_CLAIM} violated",
                 rows.get(VIOLATED_CORPUS_CLAIM, {}).get("holds") is False))
    return out


def _as_float(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def p0_residual(p: float) -> float:
    """|(p+1)^(1/p) - 2*log(1+sqrt(2))|, the defining equation of p0."""
    if not (isinstance(p, float) and p > 0.0):
        return math.inf
    return abs((p + 1.0) ** (1.0 / p) - 2.0 * ASINH_ONE)


def check_constants(doc: dict) -> list[tuple[str, bool]]:
    rows = _rows(doc)
    out = []
    for name, expected in SHARP_CONSTANTS.items():
        row = rows.get(name, {})
        values = (row.get("recovered"), _as_float(row.get("value")))
        ok = all(isinstance(v, float) and abs(v - expected) <= CONSTANT_TOLERANCE for v in values)
        out.append((f"{name} = closed form", ok))
    row = rows.get("p0", {})
    residuals = (p0_residual(row.get("recovered")), p0_residual(_as_float(row.get("value"))))
    out.append(("p0 solves (p+1)^(1/p) = 2 log(1+sqrt 2)",
                all(r <= P0_RESIDUAL_TOLERANCE for r in residuals)))
    return out


def _series_coefficients(pairing: str, n: int) -> tuple[Fraction, Fraction]:
    """n-th numerator and denominator coefficients, from the closed forms:
    HQ is A_n / B_n, HC is C_n / D_n."""
    fact = math.factorial(2 * n)
    if pairing == "HQ":
        return (Fraction(2 * n, (2 * n + 1) * fact), Fraction(2 ** (2 * n - 1) + 1, fact))
    return (Fraction(2 ** (2 * n), fact) - Fraction(2, (2 * n + 1) * fact),
            Fraction(2 ** (2 * n + 1), fact))


@cache
def series_ratios(pairing: str) -> tuple[Fraction, ...]:
    """The exact coefficient ratios for n = 1..SERIES_TERMS."""
    out = []
    for n in range(1, SERIES_TERMS + 1):
        num, den = _series_coefficients(pairing, n)
        out.append(num / den)
    return tuple(out)


def series_direction(pairing: str) -> str:
    ratios = series_ratios(pairing)
    steps = [b - a for a, b in zip(ratios, ratios[1:])]
    if all(step < 0 for step in steps):
        return "strictly-decreasing"
    if all(step > 0 for step in steps):
        return "strictly-increasing"
    return "not-monotone"


def check_series(pairing: str, doc: dict) -> list[tuple[str, bool]]:
    rows = doc.get("verdicts") or []
    direction = SERIES_DIRECTION[pairing]
    expected = series_ratios(pairing)[:SERIES_PRINTED]
    printed_ok = len(rows) == SERIES_PRINTED and all(
        row.get("ratio") == f"{r.numerator}/{r.denominator}" and row.get("ratio_float") == float(r)
        for row, r in zip(rows, expected))
    ok = (series_direction(pairing) == direction and printed_ok
          and doc.get("first_violation", "missing") is None
          and all(row.get("direction") == direction for row in rows))
    return [(f"{pairing} {direction}", ok)]


def undecided(doc: dict) -> tuple[int, int]:
    """(near_zero, points) of a verify document: margins too small to decide
    against the margins evaluated."""
    rows = doc.get("verdicts") or []
    near = sum(row.get("near_zero") or 0 for row in rows)
    if doc.get("grid_size"):
        return near, doc["grid_size"] * len(rows)
    per_row = doc.get("samples") or 0
    if [row.get("id") for row in rows] == ["chain"]:
        per_row *= CHAIN_COMPARISONS
    return near, per_row * len(rows)
