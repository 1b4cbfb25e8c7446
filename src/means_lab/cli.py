"""Command-line front end: mean evaluation, bound verification, sharpness
probing, constant recovery, and series verdicts, with table/JSON/CSV output.

Exit codes: 0 = all claims hold / expected witness found, 1 = a verification
failed, 2 = usage or domain error, 3 = internal error, 130 = interrupted; a
closed stdout drops the rest of the output and keeps the verdict's code.
Every JSON document carries the same top-level keys: command, seed, grid_size,
samples, verdicts, worst_case; it is strict JSON, non-finite floats as null.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .certify import (
    REPORT_ONLY_CORPUS_CLAIMS,
    Objective,
    Relation,
    sharpness_probe,
    recover_constant,
    theorem_claims,
    verify_bound,
    verify_chain,
    verify_corpus,
)
from .exceptions import DomainError, EvaluationError, replace
from .means import (
    CHAIN_ORDER,
    MeanKind,
    PositivePair,
    evaluate_mean,
    generalized_log,
    normalized_gap,
)
from .ratios import ASINH_ONE, RatioFunctionKind, sharp_constants
from .series import CoefficientKind, ratio_sequence_verdict, coefficient_exact

__all__ = ["main", "build_parser", "parse_mean_token"]

_NAMED_MEANS = {kind.token: kind for kind in CHAIN_ORDER}


def parse_mean_token(token: str) -> MeanKind:
    token = token.strip()
    if token in _NAMED_MEANS:
        return _NAMED_MEANS[token]
    if token.startswith("Lp:"):
        try:
            return generalized_log(float(token[3:]))
        except ValueError:
            raise DomainError(f"bad generalized-log exponent in {token!r}") from None
    raise DomainError(f"unknown mean {token!r}; expected one of "
                      f"{','.join(_NAMED_MEANS)} or Lp:<p>")


def _parse_pair(text: str) -> PositivePair:
    try:
        a, b = map(float, text.split(","))
    except ValueError:
        raise DomainError(f"--pair expects two decimal literals 'a,b', got {text!r}") from None
    return PositivePair(a, b)


def _document(command: str, verdicts: list[dict], *, seed: int | None = None,
              grid_size: int | None = None, samples: int | None = None,
              worst_case: dict | None = None) -> dict:
    return {
        "command": command,
        "seed": seed,
        "grid_size": grid_size,
        "samples": samples,
        "verdicts": verdicts,
        "worst_case": worst_case,
    }


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render(doc: dict, fmt: str) -> None:
    if fmt == "json":
        # dumped leniently and parsed back, Infinity and NaN become null
        strict = json.loads(json.dumps(doc), parse_constant=lambda _: None)
        print(json.dumps(strict, indent=2, allow_nan=False))
        return
    rows = doc["verdicts"]
    header = list(rows[0].keys())
    table = [header] + [[_cell(row.get(k, "")) for k in header] for row in rows]
    if fmt == "csv":
        import csv  # only here: json and table output never load it
        csv.writer(sys.stdout).writerows(table)
    else:
        widths = [max(len(r[i]) for r in table) for i in range(len(header))]
        for r in table:
            print("  ".join(cell.ljust(width) for cell, width in zip(r, widths)))


def _report_row(claim_id: str, report) -> dict:
    return {
        "id": claim_id,
        "holds": report.holds,
        "min_margin": report.min_margin,
        "near_zero": report.near_zero,
        "worst_gap": normalized_gap(report.worst_pair),
        "worst_a": report.worst_pair.a,
        "worst_b": report.worst_pair.b,
    }


def _worst_case(rows: list[dict]) -> dict | None:
    finite = [r for r in rows if math.isfinite(r["min_margin"])]
    if not finite:
        return None
    worst = min(finite, key=lambda r: r["min_margin"])
    return {
        "claim": worst["id"],
        "min_margin": worst["min_margin"],
        "pair": [worst["worst_a"], worst["worst_b"]],
        "gap": worst["worst_gap"],
    }


# Each handler returns (document, ok); main renders the document and maps ok
# to the exit code.

def cmd_eval(args) -> tuple[dict, bool]:
    pair = _parse_pair(args.pair)
    kinds = [parse_mean_token(tok) for tok in args.means.split(",")]
    rows = [{"id": kind.token, "value": evaluate_mean(kind, pair)} for kind in kinds]
    return _document("eval", rows), True


def _theorem_reports(args) -> list[dict]:
    ids, claims = [], []
    for claim_id, claim in theorem_claims(args.target):
        override = args.weight_lower if claim.relation is Relation.LESS_THAN_M else args.weight_upper
        if override is not None:
            claim = replace(claim, weight=override)
        ids.append(claim_id)
        claims.append(claim)
    # both claims of the theorem from one sweep of the grid
    return [_report_row(claim_id, report)
            for claim_id, report in zip(ids, verify_bound(claims, args.grid))]


def cmd_verify(args) -> tuple[dict, bool]:
    if args.target in ("1.1", "1.2", "1.3"):
        rows = _theorem_reports(args)
        doc = _document("verify", rows, grid_size=args.grid, worst_case=_worst_case(rows))
        return doc, all(r["holds"] for r in rows)
    if args.target == "chain":
        reports = [("chain", verify_chain(args.samples, args.seed))]
    else:
        reports = verify_corpus(args.samples, args.seed)
    rows = [_report_row(claim_id, report) for claim_id, report in reports]
    if args.target == "corpus":
        for row in rows:
            row["gating"] = row["id"] not in REPORT_ONLY_CORPUS_CLAIMS
    doc = _document("verify", rows, seed=args.seed, samples=args.samples,
                    worst_case=_worst_case(rows))
    return doc, all(r["holds"] for r in rows if r.get("gating", True))


def cmd_sharpness(args) -> tuple[dict, bool]:
    claims = dict(theorem_claims(args.theorem))
    claim = claims[f"{args.theorem}-{args.side}"]
    report = sharpness_probe(claim, args.epsilon)
    row = {
        "id": f"{args.theorem}-{args.side}",
        "violated": report.violated,
        "perturbation": report.perturbation,
        "witness_gap": report.witness_gap,
        "witness_a": report.witness.a if report.witness else None,
        "witness_b": report.witness.b if report.witness else None,
    }
    worst = None
    if report.violated:
        worst = {"claim": row["id"], "min_margin": None,
                 "pair": [report.witness.a, report.witness.b], "gap": report.witness_gap}
    return _document("sharpness", [row], worst_case=worst), report.violated


def _recover_p0() -> float:
    # fixed-point iteration p <- log(1+p)/log(2 log(1+sqrt(2))), an
    # independent route to the same root as the bisection solver
    target_log = math.log(2.0 * ASINH_ONE)
    p = 2.0
    for _ in range(200):
        p = math.log1p(p) / target_log
    return p


def cmd_constants(args) -> tuple[dict, bool]:
    c = sharp_constants()
    lam_form = "1 - 1/(sqrt(2)*log(1+sqrt(2)))"
    # one scan per ratio function for both objectives: (supremum, infimum)
    hq, hc, gq = (recover_constant(fn, list(Objective), 1e-9) for fn in RatioFunctionKind)
    recoveries = {
        "alpha1": (c.alpha1, "2/9", hq[0]),
        "beta1": (c.beta1, lam_form, hq[1]),
        "alpha2": (c.alpha2, "1/3", gq[0]),
        "beta2": (c.beta2, lam_form, gq[1]),
        "alpha3": (c.alpha3, "1 - 1/(2*log(1+sqrt(2)))", hc[0]),
        "beta3": (c.beta3, "5/12", hc[1]),
        "lambda0": (c.lambda0, lam_form, gq[1]),
        "p0": (c.p0, "root of (p+1)^(1/p) = 2*log(1+sqrt(2))", _recover_p0()),
    }
    rows = [{
        "id": name,
        "closed_form": form,
        "value": f"{value:.15f}",
        "recovered": recovered,
        "abs_diff": abs(value - recovered),
    } for name, (value, form, recovered) in recoveries.items()]
    return _document("constants", rows), all(row["abs_diff"] < 1e-9 for row in rows)


def cmd_series(args) -> tuple[dict, bool]:
    pairing = {"HQ": (CoefficientKind.A, CoefficientKind.B),
               "HC": (CoefficientKind.C, CoefficientKind.D)}[args.pairing]
    verdict = ratio_sequence_verdict(pairing[0], pairing[1], args.terms)
    rows = []
    for n in range(1, min(10, args.terms) + 1):
        ratio = coefficient_exact(pairing[0], n) / coefficient_exact(pairing[1], n)
        rows.append({
            "id": f"{args.pairing}-ratio-{n}",
            "direction": verdict.direction.value,
            "ratio": f"{ratio.numerator}/{ratio.denominator}",
            "ratio_float": float(ratio),
        })
    doc = _document("series", rows)
    doc["first_violation"] = verdict.first_violation
    return doc, True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="means-lab",
        description="Bivariate means and sharp weighted-mean inequality certification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("table", "json", "csv"), default=None,
                       help="output format (default: table on a terminal, else json)")

    p_eval = sub.add_parser("eval", help="evaluate means on a pair")
    p_eval.add_argument("--means", required=True,
                        help="comma-separated means, e.g. H,G,Q or Lp:2")
    p_eval.add_argument("--pair", required=True, help="the pair as 'a,b'")
    add_format(p_eval)
    p_eval.set_defaults(handler=cmd_eval)

    p_verify = sub.add_parser("verify", help="verify bounds, the chain, or the corpus")
    p_verify.add_argument("target", choices=("1.1", "1.2", "1.3", "chain", "corpus"))
    p_verify.add_argument("--grid", type=int, default=100_000,
                          help="gap-grid size for theorem targets")
    p_verify.add_argument("--samples", type=int, default=None,
                          help="sample count for chain/corpus targets")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--weight-lower", type=float, default=None,
                          help="override the lower-bound weight")
    p_verify.add_argument("--weight-upper", type=float, default=None,
                          help="override the upper-bound weight")
    add_format(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    p_sharp = sub.add_parser("sharpness", help="witness that a perturbed weight breaks a bound")
    p_sharp.add_argument("theorem", choices=("1.1", "1.2", "1.3"))
    p_sharp.add_argument("--side", choices=("lower", "upper"), required=True)
    p_sharp.add_argument("--epsilon", type=float, required=True)
    add_format(p_sharp)
    p_sharp.set_defaults(handler=cmd_sharpness)

    p_const = sub.add_parser("constants", help="sharp constants with recovery cross-check")
    add_format(p_const)
    p_const.set_defaults(handler=cmd_constants)

    p_series = sub.add_parser("series", help="coefficient-ratio monotonicity verdicts")
    p_series.add_argument("pairing", choices=("HQ", "HC"))
    p_series.add_argument("--terms", type=int, default=50)
    add_format(p_series)
    p_series.set_defaults(handler=cmd_series)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.samples is None:
        args.samples = 100_000 if args.target == "chain" else 10_000
    try:
        doc, ok = args.handler(args)
        _render(doc, args.format or ("table" if sys.stdout.isatty() else "json"))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader is gone; exit flushes stdout again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # the one exit path: no traceback leaves the CLI
        expected = isinstance(exc, (DomainError, EvaluationError))
        detail = str(exc) if expected else f"internal {type(exc).__name__}: {exc}"
        print(f"error: {detail}", file=sys.stderr)
        return 2 if expected else 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
