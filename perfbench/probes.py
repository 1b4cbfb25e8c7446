"""Isolated timings of each layer's public functions on fixed inputs.

Kernel probes report the fastest of several repeats of a timeit loop, in ns
per call.  Each gap input sits in one branch region of ``means``: ``small``
(x < SMALL_GAP, series branch), ``mid`` ([SMALL_GAP, 0.5]) and ``wide``
(> 0.5, complement forms); the ratio functions are probed either side of
``SERIES_SWITCH``.  The inputs are fixed; the region each one falls in under
the package's current thresholds is returned with the timings, so a moved
threshold shows instead of silently relabelling a probe.

Sweep probes (``certify``) run once each at the workloads' scales and are
reported in seconds at the reference speed, like the end-to-end pass time.
"""

from __future__ import annotations

import timeit

from means_lab import certify, means, ratios, series
from speed import Stopwatch

GAPS = {"small": 3e-5, "mid": 0.25, "wide": 0.75}
RATIO_ARGS = {"series": 0.01, "closed": 0.5}
FAMILIES = ("H", "G", "L", "P", "A", "M", "T", "Q", "C", "Lp")
GRID = 100_000
CHAIN_SAMPLES = 100_000
CORPUS_SAMPLES = 10_000
SERIES_TERMS = 50
# the truncation ratios.phi_hq / phi_hc use below SERIES_SWITCH
QUOTIENT_TERMS = 10
EPSILON = 1e-3
SAMPLE_PERIOD_S = 0.05


def _per_call(fn, *args, target: float = 0.01, repeat: int = 5) -> float:
    """Fastest seconds per call of fn(*args) over ``repeat`` loops of about
    ``target`` seconds each."""
    names = [f"a{i}" for i in range(len(args))]
    timer = timeit.Timer(f"f({', '.join(names)})", globals={"f": fn, **dict(zip(names, args))})
    number = 1
    while timer.timeit(number) < target:
        number *= 2
    return min(timer.repeat(repeat=repeat, number=number)) / number


def _once(fn, *args):
    """(seconds at the reference speed, result) of one call; see speed.py."""
    watch = Stopwatch(SAMPLE_PERIOD_S)
    watch.start()
    result = fn(*args)
    return watch.stop()[1], result


def gap_region(x: float) -> str:
    if x < means.SMALL_GAP:
        return "small"
    return "mid" if x <= 0.5 else "wide"


def ratio_region(t: float) -> str:
    return "series" if t < ratios.SERIES_SWITCH else "closed"


def _kinds() -> dict[str, means.MeanKind]:
    named = {
        "H": means.HARMONIC, "G": means.GEOMETRIC, "L": means.LOGARITHMIC,
        "P": means.SEIFFERT_FIRST, "A": means.ARITHMETIC, "M": means.NEUMAN_SANDOR,
        "T": means.SEIFFERT_SECOND, "Q": means.QUADRATIC, "C": means.CONTRA_HARMONIC,
    }
    named["Lp"] = means.generalized_log(ratios.sharp_constants().p0)
    return named


def kernel_probes() -> dict[str, float]:
    out = {}
    kinds = _kinds()
    for region, x in GAPS.items():
        pair = means.PositivePair(1.0 + x, 1.0 - x)
        for name in FAMILIES:
            kind = kinds[name]
            out[f"means.mean_shape.ns.{name}.{region}"] = _per_call(
                means.mean_shape, kind, x) * 1e9
            out[f"means.evaluate_mean.ns.{name}.{region}"] = _per_call(
                means.evaluate_mean, kind, pair) * 1e9
    out["means.PositivePair.ns"] = _per_call(means.PositivePair, 1.25, 0.75) * 1e9
    for fn in (ratios.phi_hq, ratios.phi_hc, ratios.ratio_gq):
        for region, t in RATIO_ARGS.items():
            out[f"ratios.{fn.__name__}.ns.{region}"] = _per_call(fn, t) * 1e9
    kind_a, kind_b = series.CoefficientKind.A, series.CoefficientKind.B
    out["series.truncated_quotient.ns"] = _per_call(
        series.truncated_quotient, kind_a, kind_b, RATIO_ARGS["series"], QUOTIENT_TERMS) * 1e9
    pairings = {"HQ": (kind_a, kind_b), "HC": (series.CoefficientKind.C, series.CoefficientKind.D)}
    for label, (num, den) in pairings.items():
        out[f"series.ratio_sequence_verdict.ms.{label}"] = _per_call(
            series.ratio_sequence_verdict, num, den, SERIES_TERMS, target=0.02, repeat=3) * 1e3
    return out


def certify_probes(seed: int) -> dict[str, float]:
    out = {"certify.gap_grid.ms": _per_call(certify.gap_grid, GRID, target=0.05, repeat=3) * 1e3}
    claims = [claim for theorem in ("1.1", "1.2", "1.3")
              for claim in certify.theorem_claims(theorem)]
    for claim_id, claim in claims:
        seconds, report = _once(certify.verify_bound, claim, GRID)
        out[f"certify.verify_bound.s.{claim_id}"] = seconds
        out[f"certify.near_zero.{claim_id}"] = report.near_zero

    def probe_all() -> None:
        for _, claim in claims:
            certify.sharpness_probe(claim, EPSILON)

    out["certify.sharpness_probe.us"] = _per_call(probe_all) / len(claims) * 1e6
    out["certify.verify_chain.s"] = _once(certify.verify_chain, CHAIN_SAMPLES, seed)[0]
    out["certify.verify_corpus.s"] = _once(certify.verify_corpus, CORPUS_SAMPLES, seed)[0]
    for fn in ratios.RatioFunctionKind:
        for objective in certify.Objective:
            name = f"certify.recover_constant.ms.{fn.name.lower()}.{objective.value}"
            out[name] = _per_call(certify.recover_constant, fn, objective, 1e-9,
                                  target=0.02, repeat=3) * 1e3
    return out


def regions() -> dict[str, dict[str, str]]:
    """Branch region of every probe input under the package's thresholds."""
    return {
        "gap": {label: gap_region(x) for label, x in GAPS.items()},
        "ratio": {label: ratio_region(t) for label, t in RATIO_ARGS.items()},
    }
