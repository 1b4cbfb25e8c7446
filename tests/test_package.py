import ast
import copy
import math
import os
import pickle
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import means_lab
from means_lab import certify, means, ratios, series
from means_lab import (
    HARMONIC,
    BoundClaim,
    CertificationReport,
    CoefficientKind,
    DomainError,
    MeanKind,
    PositivePair,
    RatioFunctionKind,
    Relation,
    SharpAt,
    coefficient_exact,
    endpoint_value,
    evaluate_mean,
    generalized_log,
    mean_shape,
    ratio_function_domain,
    ratio_sequence_verdict,
    recover_constant,
    replace,
    sharp_constants,
    sharpness_probe,
    theorem_claims,
    truncated_quotient,
    verify_bound,
)
from means_lab.exceptions import Record


def test_exports_exactly_the_module_apis():
    exported = {name for name, value in vars(means_lab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    api = set(means.__all__) | set(ratios.__all__) | set(series.__all__) | set(certify.__all__)
    assert exported == api | {"DomainError", "EvaluationError", "replace"}


@pytest.mark.parametrize("module", [means, ratios, series, certify], ids=lambda m: m.__name__)
def test_exports_are_the_module_objects(module):
    # a name in two modules' __all__ would leave the package one of the two
    for name in module.__all__:
        assert getattr(means_lab, name) is getattr(module, name), name


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


def test_cli_start_up_loads_no_unused_standard_modules():
    # the CLI's fixed cost: dataclasses pulls in inspect, typing is slow to
    # import without site hooks, and only csv output needs csv
    src = Path(means_lab.__file__).parent.parent
    code = ("import sys, means_lab.cli; means_lab.cli.sharp_constants(); "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'csv'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


# every record of the package: a builder, its fields in order, and one field
# change that makes an unequal record
RECORDS = {
    "MeanKind": (lambda: generalized_log(1.5), ("family", "p"), {"p": 2.5}),
    "PositivePair": (lambda: PositivePair(1.0, 3.0), ("a", "b"), {"b": 2.0}),
    "SharpConstants": (sharp_constants, ("alpha1", "beta1", "alpha2", "beta2", "alpha3", "beta3",
                                         "lambda0", "p0"), {"p0": 1.5}),
    "MonotonicityVerdict": (lambda: ratio_sequence_verdict(CoefficientKind.A, CoefficientKind.B, 8),
                            ("direction", "checked_up_to", "first_violation"), {"checked_up_to": 9}),
    "BoundClaim": (lambda: theorem_claims("1.1")[0][1],
                   ("weight", "first", "second", "relation", "sharp_at"), {"weight": 0.3}),
    "CertificationReport": (lambda: CertificationReport(100, 0.25, PositivePair(1.0, 3.0), True),
                            ("grid_size", "min_margin", "worst_pair", "holds", "near_zero", "seed"),
                            {"seed": 7}),
    "SharpnessReport": (lambda: sharpness_probe(theorem_claims("1.1")[0][1], 1e-3),
                        ("perturbation", "witness", "violated", "witness_gap"), {"violated": False}),
    "_RatioRow": (lambda: ratios._RATIO_ROWS[RatioFunctionKind.PHI_HQ],
                  ("series", "closed", "hi", "lower", "upper", "even"), {"even": True}),
}


@pytest.fixture(params=sorted(RECORDS))
def record_case(request):
    build, fields, change = RECORDS[request.param]
    return request.param, build(), fields, change


def test_record_fields_are_the_annotations_in_order(record_case):
    name, record, fields, _ = record_case
    assert type(record).__name__ == name
    assert isinstance(record, Record) and type(record)._fields == fields


def test_record_is_frozen(record_case):
    _, record, fields, _ = record_case
    for field in fields + ("new_field",):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, field)
    assert all(hasattr(record, field) for field in fields)


def test_record_equality_and_hash_by_class_and_fields(record_case):
    _, record, fields, change = record_case
    same = replace(record)
    assert same is not record and same == record and hash(same) == hash(record)
    assert replace(record, **change) != record
    twin_class = type("Twin", (Record,), {"__annotations__": dict.fromkeys(fields)})
    twin = twin_class(*(getattr(record, field) for field in fields))
    assert twin != record and record != twin and len({twin, record}) == 2
    assert record != tuple(getattr(record, field) for field in fields)


def test_record_repr_is_dataclass_style(record_case):
    _, record, fields, _ = record_case
    body = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{type(record).__qualname__}({body})"


def test_record_repr_examples():
    assert repr(PositivePair(1, 3.0)) == "PositivePair(a=1.0, b=3.0)"
    assert repr(generalized_log(2)) == "MeanKind(family=<MeanFamily.GENERALIZED_LOG: 'Lp'>, p=2.0)"


def test_record_copy_and_pickle(record_case):
    name, record, _, _ = record_case
    if name == "_RatioRow":
        # the rows hold lambdas, which pickle cannot name; a row of module
        # functions stands in
        record = ratios._RatioRow(math.sin, math.cos, 1.0, "alpha1", "lambda0")
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and hash(twin) == hash(record)


def test_record_binds_fields_by_position_keyword_and_default():
    report = CertificationReport(100, 0.25, worst_pair=PositivePair(1.0, 3.0), holds=True)
    assert (report.near_zero, report.seed) == (0, None)
    assert report == CertificationReport(100, 0.25, PositivePair(1.0, 3.0), True, 0, None)
    for args, kwargs in [((100,), {}), ((100, 0.25, None, True, 0, None, 1), {}),
                         ((100, 0.25, None, True), {"grid_size": 100}),
                         ((100, 0.25, None, True), {"bogus": 1})]:
        with pytest.raises(TypeError):
            CertificationReport(*args, **kwargs)


def test_replace_runs_the_checks_again():
    claim = theorem_claims("1.1")[0][1]
    assert replace(claim, weight=0.3).weight == 0.3
    with pytest.raises(DomainError, match="^weight must be"):
        replace(claim, weight=1.5)
    assert replace(generalized_log(2.5), p=3).p == 3.0  # normalised again
    with pytest.raises(TypeError):
        replace(claim, bogus=1)
    with pytest.raises(DomainError, match="^record must be of type"):
        replace((1.0, 3.0), a=2.0)


def test_equal_mean_kinds_share_one_scalar_kernel():
    a, b = generalized_log(1.2345678), generalized_log(1.2345678)
    assert a is not b and a == b and hash(a) == hash(b)
    before = means._scalar.cache_info()
    assert means.mean_shape(a, 0.3) == means.mean_shape(b, 0.3)
    after = means._scalar.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


def test_record_hash_is_computed_once():
    hashed = []

    class Field:
        def __hash__(self):
            hashed.append(self)
            return 1

    record = type("One", (Record,), {"__annotations__": {"x": None}})(Field())
    assert hash(record) == hash(record) == hash(replace(record)) and len(hashed) == 2
