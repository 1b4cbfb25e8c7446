import types

import means_lab
from means_lab import certify, means, ratios, series


def test_exports_exactly_the_module_apis():
    exported = {name for name, value in vars(means_lab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    api = set(means.__all__) | set(ratios.__all__) | set(series.__all__) | set(certify.__all__)
    assert exported == api | {"DomainError", "EvaluationError"}
