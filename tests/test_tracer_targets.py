"""The benchmark drives randset by name: its tracer patches functions, and
its workloads build command-line configs.  Every name it patches must
exist, or a traced run stops with a KeyError, and every workload's options
must make a valid config, or the benchmark fails where this suite passed."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from randset import expcli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    path = PERFBENCH / f"{name}.py"
    if not path.is_file():
        pytest.skip(f"perfbench/{name}.py is not in this tree")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    targets = _load("tracing").TARGETS
    assert targets
    for module, cls, attr, *_ in targets:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        assert attr in vars(owner), (module, cls, attr)


def test_every_workload_config_builds(tmp_path):
    # the options the benchmark's run passes to build_config for each run
    workloads = _load("workloads").WORKLOADS
    assert workloads
    for workload in workloads.values():
        for experiment, options in workload.runs:
            cfg = expcli.build_config(experiment, {}, dict(
                options, seed=1, output_path=str(tmp_path / "run.csv"), format="csv"))
            assert cfg.experiment == experiment
