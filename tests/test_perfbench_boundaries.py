"""The benchmark's traced run rebinds package names listed in
perfbench/tracer.py, and its probes call package entry points directly.
These tests load the tracer read-only and check that every name it and the
probes rely on still resolves and accepts the arguments they pass, so a
refactor cannot silently break ``perfbench/run.py --trace 1``."""

import ast
import importlib
import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from means_lab import certify, cli, means, ratios, series

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "means_lab"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module_name,name,layer", tracer.BOUNDARIES,
                         ids=[f"{m}.{n}" for m, n, _ in tracer.BOUNDARIES])
def test_boundary_resolves(module_name, name, layer):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, name))
    assert layer in tracer.LAYERS


def test_traced_cli_run_records_spans_and_restores_bindings():
    before = {(m, n): getattr(importlib.import_module(m), n) for m, n, _ in tracer.BOUNDARIES}
    t = tracer.Tracer()
    t.install()
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "1.1", "--grid", "200", "--format", "json"]) == 0
            assert cli.main(["sharpness", "1.2", "--side", "lower", "--epsilon", "1e-3",
                             "--format", "json"]) == 0
    finally:
        t.uninstall()
    after = {(m, n): getattr(importlib.import_module(m), n) for m, n, _ in tracer.BOUNDARIES}
    assert after == before
    metrics = t.layer_metrics()
    assert metrics["certify.calls"] >= 3
    assert metrics["means.calls"] >= 1


def test_probe_entry_points_accept_their_arguments():
    assert isinstance(means.SMALL_GAP, float)
    assert isinstance(ratios.SERIES_SWITCH, float)
    A, B = series.CoefficientKind.A, series.CoefficientKind.B
    assert series.truncated_quotient(A, B, 0.01, 10) > 0.0
    assert series.ratio_sequence_verdict(A, B, 50).checked_up_to == 50
    kind = means.generalized_log(ratios.sharp_constants().p0)
    pair = means.PositivePair(1.25, 0.75)
    assert means.mean_shape(kind, 0.25) == pytest.approx(means.evaluate_mean(kind, pair))
    for fn in (ratios.phi_hq, ratios.phi_hc, ratios.ratio_gq):
        assert fn(0.01) > 0.0 and fn(0.5) > 0.0
    assert len(certify.gap_grid(1000)) == 1000
    claims = certify.theorem_claims("1.3")
    for _, claim in claims:
        assert certify.verify_bound(claim, 200).holds
        assert certify.sharpness_probe(claim, 1e-3).violated
    assert certify.verify_chain(20, 42).holds
    assert len(certify.verify_corpus(5, 42)) == 10
    fn, objective = next(iter(ratios.RatioFunctionKind)), next(iter(certify.Objective))
    assert certify.recover_constant(fn, objective, 1e-9) > 0.0


def _unread_imports(source: str) -> set[str]:
    """The names source imports, __future__ features aside, that it never reads."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_every_unread_import_is_a_tracer_boundary():
    # a module may import a name it never calls only so that the tracer can rebind it
    rebound = {(module, name) for module, name, _ in tracer.BOUNDARIES}
    unread = {(f"means_lab.{path.stem}", name) for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py" for name in _unread_imports(path.read_text())}
    assert unread <= rebound, sorted(unread - rebound)
    source = (PACKAGE / "ratios.py").read_text()
    assert _unread_imports(source + "from .series import _horner\n") == \
        _unread_imports(source) | {"_horner"}

