"""Self-tests of the benchmark: its checks catch bad records, its tracer
leaves randset as it found it, and tracing does not change the records.

Run with: python -m pytest perfbench
"""
import dataclasses
import importlib
import math

import pytest

import checks
import run as bench
import tracing
from workloads import Workload

from randset import expcli

SMALL = Workload((
    ("volume-sweep", {"lambda_grid": (500.0, 1000.0), "samples": 200}),
    ("radius-convergence", {"lambda_grid": (10.0,), "samples": 2000}),
    ("crofton", {"d": 2, "lambda_grid": (2.0,), "replicates": 100}),
    ("coupling", {"lambda_grid": (3000.0,), "replicates": 2}),
))


def run(experiment, **options):
    cfg = expcli.build_config(experiment, {}, dict(options, seed=5))
    return cfg, expcli.run_experiment(cfg)


def perturb(records, metric, value):
    return [dataclasses.replace(r, value=value) if r.metric == metric else r
            for r in records]


def failed(cfg, records):
    return [name for name, ok in checks.check_records(cfg, records) if not ok]


@pytest.fixture(scope="module")
def radius_run():
    return run("radius-convergence", lambda_grid=(10.0,), samples=2000)


@pytest.fixture(scope="module")
def cells_runs():
    return [run("crofton", d=2, lambda_grid=(2.0,), replicates=200),
            run("coupling", lambda_grid=(3000.0,), replicates=2)]


def test_clean_records_pass(radius_run, cells_runs):
    for cfg, records in [radius_run] + cells_runs:
        assert failed(cfg, records) == []


@pytest.mark.parametrize("metric, value", [
    ("volume_sigma_gap", 4.5),
    ("ks_ball_exact", 0.5),
    ("two_sample_ks_p", 1e-6),
    ("volume_mc", math.nan),
])
def test_perturbed_radius_record_fails(radius_run, metric, value):
    cfg, records = radius_run
    assert failed(cfg, perturb(records, metric, value))


def test_perturbed_cell_records_fail(cells_runs):
    (crofton_cfg, crofton), (coupling_cfg, coupling) = cells_runs
    mean = next(r.value for r in crofton if r.metric == "zero_cell_volume_mean")
    assert failed(crofton_cfg, perturb(crofton, "zero_cell_volume_mean", 2.0 * mean))
    assert failed(coupling_cfg, perturb(coupling, "flagged_fraction_mean", 0.02))


def hit_or_miss_block(hits):
    """volume-sweep records of a lambda = 200 block whose 300 * 2000
    hit-or-miss probes hit the set `hits` times."""
    cfg = expcli.build_config("volume-sweep", {}, dict(lambda_grid=(200.0,), samples=3000))
    quadrature = 3.927015361523608e-05  # 7.5 hits expected
    values = {"volume_quadrature": quadrature,
              "volume_hit_or_miss": math.pi * hits / 600_000}
    return cfg, [expcli.ExperimentRecord("volume-sweep", 2, 200.0, i, 0, metric, value,
                                         None, 1.0)
                 for i, (metric, value) in enumerate(values.items())]


@pytest.mark.parametrize("hits, passes", [(0, True), (8, True), (20, True), (21, False),
                                          (40, False)])
def test_hit_or_miss_count_check(hits, passes):
    assert (failed(*hit_or_miss_block(hits)) == []) == passes


def _originals():
    out = {}
    for module, cls, attr, _, _ in tracing.TARGETS + (("randset.ppp", "RngStream", "gen",
                                                          None, None),):
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        out[(module, cls, attr)] = vars(owner)[attr]
    return out


def test_tracer_restores_originals():
    before = _originals()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert _originals() != before
            raise RuntimeError("leave the block early")
    after = _originals()
    assert all(after[key] is before[key] for key in before)


def test_traced_records_equal_untraced(tmp_path):
    plain = bench.run_iteration(SMALL, 3, 1, tmp_path)
    tracer = tracing.Tracer()
    metrics = []
    for _ in range(2):
        tracer.reset()
        with tracer:
            traced = bench.run_iteration(SMALL, 3, 1, tmp_path)
        assert traced["text"] == plain["text"]
        assert all(ok for _, ok in traced["checks"])
        metrics.append(tracing.layer_metrics(tracer.spans))
    for key in tracing.COUNT_METRICS:
        assert metrics[0][key] == metrics[1][key], key
    layers = metrics[0]
    # the lambda = 1000 block's pins only, not those of the lambda = 500 one
    assert layers["models.sample_axis_radii.pins_per_replicate.ball"] == pytest.approx(
        1000 * math.pi, rel=0.02)
    assert layers["models.crofton_cell.ms_per_cell.d2"] > 0
    assert layers["analytics.invert_increasing.miss_evals_per_call"] > 2
    assert layers["geomcore.lune_fraction.elements"] > 0


def test_self_seconds_subtracts_children():
    spans = [["models.a", 0, 100, -1, None, None],
             ["ppp.b", 10, 40, 0, None, None],
             ["ppp.c", 50, 60, 0, None, None],
             ["geomcore.d", 20, 30, 1, None, None]]
    selfs = tracing.self_seconds(spans)
    assert selfs["models"] == pytest.approx(60e-9)
    assert selfs["ppp"] == pytest.approx(30e-9)
    assert selfs["geomcore"] == pytest.approx(10e-9)
