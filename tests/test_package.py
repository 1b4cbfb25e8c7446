import ast
import re
import sys
import types
from pathlib import Path

import pytest

import means_lab
from means_lab import certify, means, ratios, series
from means_lab import (
    HARMONIC,
    BoundClaim,
    CoefficientKind,
    DomainError,
    MeanKind,
    RatioFunctionKind,
    Relation,
    SharpAt,
    coefficient_exact,
    endpoint_value,
    evaluate_mean,
    mean_shape,
    ratio_function_domain,
    ratio_sequence_verdict,
    recover_constant,
    sharpness_probe,
    truncated_quotient,
    verify_bound,
)


def test_exports_exactly_the_module_apis():
    exported = {name for name, value in vars(means_lab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    api = set(means.__all__) | set(ratios.__all__) | set(series.__all__) | set(certify.__all__)
    assert exported == api | {"DomainError", "EvaluationError"}


@pytest.mark.parametrize("call,name,value", [
    # an enum's value is not its member: MeanKind("H") was once accepted and
    # failed later with KeyError, MeanKind("Lp", 2.0) with AttributeError
    (lambda: MeanKind("H"), "family", "H"),
    (lambda: MeanKind("Lp", 2.0), "family", "Lp"),
    (lambda: evaluate_mean("H", (1, 2)), "mean kind", "H"),
    (lambda: mean_shape("M", 0.3), "mean kind", "M"),
    (lambda: BoundClaim(0.3, HARMONIC, "Q", Relation.LESS_THAN_M, SharpAt.GAP_ZERO), "second", "Q"),
    (lambda: ratio_function_domain("phi-hq"), "ratio function kind", "phi-hq"),
    (lambda: endpoint_value(RatioFunctionKind.PHI_HQ, "lower"), "endpoint", "lower"),
    # a str is one bad argument, not a sequence of them: these two were once
    # split into characters and reported 's' and '1'
    (lambda: recover_constant(RatioFunctionKind.PHI_HQ, "supremum"), "objective", "supremum"),
    (lambda: verify_bound("1.1-lower", 500), "claim", "1.1-lower"),
    (lambda: sharpness_probe(None, 1e-3), "claim", None),
    # an unhashable kind once reached the coefficient cache as a TypeError
    (lambda: truncated_quotient([1], CoefficientKind.B, 0.1), "numerator kind", [1]),
    # a kind's value once raised "unknown coefficient kind 'A'"
    (lambda: coefficient_exact("A", 1), "coefficient kind", "A"),
    (lambda: ratio_sequence_verdict("A", CoefficientKind.B, 5), "coefficient kind", "A"),
], ids=["MeanKind-value", "MeanKind-Lp-value", "evaluate_mean", "mean_shape", "BoundClaim",
        "ratio_function_domain", "endpoint_value", "recover_constant", "verify_bound",
        "sharpness_probe", "truncated_quotient", "coefficient_exact", "ratio_sequence_verdict"])
def test_class_arguments_checked(call, name, value):
    with pytest.raises(DomainError, match=f"^{name} must be of type .*, got {re.escape(repr(value))}$"):
        call()


def test_runtime_code_imports_only_the_standard_library():
    package = Path(means_lab.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.partition(".")[0]]
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names or root == "means_lab", (path.name, root)
