"""The benchmark tracer patches randset functions by name; every name it
patches must exist, or a traced run stops with a KeyError."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    if not TRACING.is_file():
        pytest.skip("perfbench/tracing.py is not in this tree")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_every_traced_name_exists():
    targets = _targets()
    assert targets
    for module, cls, attr, *_ in targets:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        assert attr in vars(owner), (module, cls, attr)
