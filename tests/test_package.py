import types

import pytest

import means_lab
from means_lab import certify, means, ratios, series
from means_lab import (
    HARMONIC,
    ConvexCombination,
    DomainError,
    MeanKind,
    RatioFunctionKind,
    endpoint_value,
    evaluate_mean,
    mean_shape,
    ratio_function_domain,
    recover_constant,
    sharpness_probe,
    verify_bound,
)


def test_exports_exactly_the_module_apis():
    exported = {name for name, value in vars(means_lab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    api = set(means.__all__) | set(ratios.__all__) | set(series.__all__) | set(certify.__all__)
    assert exported == api | {"DomainError", "EvaluationError"}


@pytest.mark.parametrize("call,name", [
    # an enum's value is not its member: MeanKind("H") was once accepted and
    # failed later with KeyError, MeanKind("Lp", 2.0) with AttributeError
    (lambda: MeanKind("H"), "family"),
    (lambda: MeanKind("Lp", 2.0), "family"),
    (lambda: evaluate_mean("H", (1, 2)), "mean kind"),
    (lambda: mean_shape("M", 0.3), "mean kind"),
    (lambda: ConvexCombination(0.3, HARMONIC, "Q"), "second"),
    (lambda: ratio_function_domain("phi-hq"), "ratio function kind"),
    (lambda: endpoint_value(RatioFunctionKind.PHI_HQ, "lower"), "endpoint"),
    (lambda: recover_constant(RatioFunctionKind.PHI_HQ, "supremum"), "objective"),
    (lambda: verify_bound("1.1-lower", 500), "claim"),
    (lambda: sharpness_probe(None, 1e-3), "claim"),
], ids=["MeanKind-value", "MeanKind-Lp-value", "evaluate_mean", "mean_shape", "ConvexCombination",
        "ratio_function_domain", "endpoint_value", "recover_constant", "verify_bound",
        "sharpness_probe"])
def test_class_arguments_checked(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be of type "):
        call()
