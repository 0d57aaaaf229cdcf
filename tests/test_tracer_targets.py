"""The benchmark drives randset by name: its tracer patches functions, and
its workloads build command-line configs.  Every name it patches must
exist, or a traced run stops with a KeyError, and every workload's options
must make a valid config, or the benchmark fails where this suite passed."""
import dataclasses
import importlib
import importlib.util
import math
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


# tiny versions of the benchmark's workloads
TRACED_RUNS = (
    ("crofton", {"d": 2, "lambda_grid": (2.0,), "replicates": 20}),
    ("coupling", {"lambda_grid": (3000.0,), "replicates": 2}),
    ("volume-sweep", {"lambda_grid": (200.0,), "samples": 300}),
    ("radius-convergence", {"lambda_grid": (10.0,), "samples": 2000}),
)


def _records():
    out = []
    for experiment, options in TRACED_RUNS:
        cfg = expcli.build_config(experiment, {}, dict(options, seed=1))
        out += [dataclasses.replace(r, runtime_ms=0.0) for r in expcli.run_experiment(cfg)]
    return out


def test_traced_runs_keep_the_tracer_contract(monkeypatch):
    # the tracer reads attributes of what it wraps (.count, .enlargements):
    # a traced run must raise nowhere, give finite layer metrics and the
    # records of an untraced run
    monkeypatch.setenv("RANDSET_THREADS", "1")
    tracing = _load("tracing")
    plain = _records()
    tracer = tracing.Tracer()
    with tracer:
        traced = _records()
    assert traced == plain
    assert [s for s in tracer.spans if s[tracing.ERROR] is not None] == []
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics and all(math.isfinite(v) for v in metrics.values())
    # the coupling at lambda = 3000 draws no bulk: its corrected centers
    # certify that no bulk center can bind
    assert metrics["models.coupling_transform.ms_per_call"] > 0
    assert metrics["models.coupling_transform.bulk_points_per_call"] == 0
