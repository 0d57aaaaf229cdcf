"""Experiment driver: config handling, record format, determinism, exits."""
import csv
import importlib
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import randset
from randset import analytics, expcli, models
from randset.expcli import (
    CSV_HEADER,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    _parse_lambda_grid,
    _worker_count,
    build_config,
    main,
    parse_config_file,
    run_experiment,
)
from randset.geomcore import unit_ball_volume
from randset.ppp import RngStream


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def main_without_blocks(argv, capsys, monkeypatch):
    """main(argv) with a block run as a failure: its exit code and stderr."""
    def no_block(*args):
        raise AssertionError("a block ran")

    monkeypatch.setenv("RANDSET_THREADS", "1")
    monkeypatch.setattr(expcli, "_run_block", no_block)
    code = main(argv)
    return code, capsys.readouterr().err


class TestConfigFile:
    def test_formats_and_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# full-line comment\n"
            "samples = 500\n"
            "seed: 7\n"
            "grid-size = 64   # trailing comment\n"
            "\n"
            "lambda = 10, 20; 40\n"
            "format: json\n")
        opts = parse_config_file(str(p))
        assert opts == {"samples": 500, "seed": 7, "grid_size": 64,
                        "lambda_grid": (10.0, 20.0, 40.0), "format": "json"}

    def test_error_reports_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("samples = 10\njust words\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
            parse_config_file(str(p))

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("volume = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(str(p))

    def test_experiment_key_unknown(self, tmp_path):
        # the experiment is the positional argument; a file cannot set it
        p = tmp_path / "run.cfg"
        p.write_text("samples = 10\nexperiment = cone\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2: unknown key 'experiment'"):
            parse_config_file(str(p))

    def test_type_errors(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("samples = many\n")
        with pytest.raises(ConfigError, match="samples must be an integer"):
            parse_config_file(str(p))
        p.write_text("eps = tiny\n")
        with pytest.raises(ConfigError, match="eps must be a number"):
            parse_config_file(str(p))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read config file"):
            parse_config_file("/nonexistent/run.cfg")

    def test_lambda_grid_parsing(self):
        assert _parse_lambda_grid("1,2.5;10") == (1.0, 2.5, 10.0)
        with pytest.raises(ConfigError):
            _parse_lambda_grid("1,abc")


# each experiment's rule on d and on the count it needs at least two of
EXPERIMENT_RULES = [
    ("coupling", {"d": 3}, "the coupling experiment requires d = 2"),
    ("cone", {"d": 1}, "the cone experiment requires d = 2"),
    ("crofton", {"d": 1}, "the crofton experiment requires 2 <= d <= 4"),
    ("warmup-1d", {"d": 2}, "the warmup-1d experiment requires d = 1"),
    ("radius-convergence", {"samples": 1}, "radius-convergence needs samples >= 2"),
    ("volume-sweep", {"samples": 1}, "volume-sweep needs samples >= 2"),
    ("coupling", {"replicates": 1}, "coupling needs replicates >= 2"),
    ("crofton", {"replicates": 1}, "crofton needs replicates >= 2"),
    ("warmup-1d", {"replicates": 1}, "warmup-1d needs replicates >= 2"),
    ("meeting-counts", {"replicates": 1}, "meeting-counts needs replicates >= 2"),
    ("cone", {"samples": 1}, "cone needs samples >= 2"),
    ("crofton", {"d": 5}, "the crofton experiment requires 2 <= d <= 4"),
]


class TestBuildConfig:
    def test_precedence(self):
        cfg = build_config("radius-convergence",
                           {"samples": 500, "seed": 7},
                           {"samples": 200, "d": None})
        assert cfg.samples == 200  # cli wins
        assert cfg.seed == 7       # file beats defaults
        assert cfg.d == 2          # default survives None cli value
        assert cfg.lambda_grid == (10.0, 50.0, 200.0)

    def test_validation(self, rng):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig(experiment="soup", lambda_grid=(1.0,))
        with pytest.raises(ConfigError, match="grid must not be empty"):
            ExperimentConfig(experiment="cone", lambda_grid=())
        with pytest.raises(ConfigError, match="positive and finite"):
            ExperimentConfig(experiment="cone", lambda_grid=(0.0,))
        with pytest.raises(ConfigError, match="distinct"):
            ExperimentConfig(experiment="cone", lambda_grid=(2.0, 2.0))
        with pytest.raises(ConfigError, match="replicates"):
            ExperimentConfig(experiment="cone", lambda_grid=(2.0,), replicates=0)
        with pytest.raises(ConfigError, match="samples"):
            ExperimentConfig(experiment="cone", lambda_grid=(2.0,), samples=0)
        with pytest.raises(ConfigError, match="grid_size"):
            ExperimentConfig(experiment="cone", lambda_grid=(2.0,), grid_size=4)
        with pytest.raises(ConfigError, match="eps"):
            ExperimentConfig(experiment="cone", lambda_grid=(2.0,), eps=0.3)
        with pytest.raises(ConfigError, match="format"):
            ExperimentConfig(experiment="cone", lambda_grid=(2.0,), format="xml")

    @pytest.mark.parametrize("experiment, options, message", EXPERIMENT_RULES)
    def test_experiment_rules_before_any_block(self, experiment, options, message,
                                               monkeypatch, capsys):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_config(experiment, {}, options)

        def no_block(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(expcli, "_run_block", no_block)
        monkeypatch.setenv("RANDSET_THREADS", "1")
        flags = [a for k, v in options.items() for a in (f"--{k}", str(v))]
        assert main([experiment, *flags]) == 2
        assert capsys.readouterr().err == f"randset: config error: {message}\n"

    def test_lambda_grid_as_floats(self):
        cfg = ExperimentConfig(experiment="cone", lambda_grid=[2, 5])
        assert cfg.lambda_grid == (2.0, 5.0)
        assert all(type(v) is float for v in cfg.lambda_grid)

    def test_default_output_name(self):
        cfg = ExperimentConfig(experiment="cone", lambda_grid=(2.0,),
                               format="json")
        assert cfg.output_path == "randset-cone.json"


class TestWorkerCount:
    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("RANDSET_THREADS", "2")
        assert _worker_count(8) == 2
        assert _worker_count(1) == 1

    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv("RANDSET_THREADS", "zero")
        with pytest.raises(ConfigError):
            _worker_count(4)
        monkeypatch.setenv("RANDSET_THREADS", "0")
        with pytest.raises(ConfigError):
            _worker_count(4)


TINY_ARGS = {
    "radius-convergence": ["--lambda", "5,10", "--samples", "2000"],
    "volume-sweep": ["--lambda", "50,150", "--samples", "1000"],
    "coupling": ["--lambda", "400,900", "--replicates", "3",
                 "--grid-size", "128"],
    "crofton": ["--lambda", "2", "--replicates", "300"],
    "warmup-1d": ["--lambda", "100", "--replicates", "5000", "--d", "1"],
    "meeting-counts": ["--lambda", "5000", "--replicates", "400"],
    "cone": ["--lambda", "5", "--samples", "3000"],
}

# the smallest runs with two blocks each
POOL_ARGS = {
    "radius-convergence": ["--lambda", "5,10", "--samples", "200"],
    "volume-sweep": ["--lambda", "50,150", "--samples", "100"],
    "coupling": ["--lambda", "400,900", "--replicates", "2", "--grid-size", "64"],
    "crofton": ["--lambda", "1,2", "--replicates", "20"],
    "warmup-1d": ["--lambda", "50,100", "--replicates", "200", "--d", "1"],
    "meeting-counts": ["--lambda", "2000,5000", "--replicates", "50"],
    "cone": ["--lambda", "5,10", "--samples", "300"],
}


class TestEndToEnd:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_each_experiment_runs(self, experiment, tmp_path, monkeypatch):
        monkeypatch.setenv("RANDSET_THREADS", "1")
        out = tmp_path / f"{experiment}.csv"
        code = main([experiment, *TINY_ARGS[experiment], "--seed", "99",
                     "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == CSV_HEADER
        body = rows[1:]
        assert len(body) > 0
        keys = {(r[0], r[2], r[3]) for r in body}
        assert len(keys) == len(body)  # (experiment, lambda, replicate) unique
        for r in body:
            assert r[0] == experiment
            assert np.isfinite(float(r[6]))
            if r[7]:
                assert np.isfinite(float(r[7]))
            assert float(r[8]) >= 0.0
            assert int(r[4]) != 0  # derived block seed is recorded

    def test_rerun_byte_identical_modulo_runtime(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RANDSET_THREADS", "1")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["radius-convergence", "--lambda", "5,10", "--samples", "2000",
                "--seed", "11"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        ra = [r[:8] for r in read_rows(a)]
        rb = [r[:8] for r in read_rows(b)]
        assert ra == rb

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_worker_pool_matches_serial(self, experiment, tmp_path, monkeypatch):
        # two lambda values, so two workers really share the blocks
        args = [experiment, *POOL_ARGS[experiment], "--seed", "3"]
        a, b = tmp_path / "serial.csv", tmp_path / "pool.csv"
        monkeypatch.setenv("RANDSET_THREADS", "1")
        assert main([*args, "--out", str(a)]) == 0
        monkeypatch.setenv("RANDSET_THREADS", "2")
        assert main([*args, "--out", str(b)]) == 0
        assert [r[:8] for r in read_rows(a)] == [r[:8] for r in read_rows(b)]

    def test_json_mirrors_csv(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RANDSET_THREADS", "1")
        c, j = tmp_path / "w.csv", tmp_path / "w.json"
        args = ["warmup-1d", "--d", "1", "--lambda", "100",
                "--replicates", "4000", "--seed", "21"]
        assert main([*args, "--out", str(c), "--format", "csv"]) == 0
        assert main([*args, "--out", str(j), "--format", "json"]) == 0
        rows = read_rows(c)[1:]
        payload = json.loads(j.read_text())
        assert len(payload) == len(rows)
        for rec, row in zip(payload, rows):
            assert list(rec) == CSV_HEADER
            assert rec["metric"] == row[5]
            assert rec["value"] == float(row[6])
            assert rec["seed"] == int(row[4])

    def test_flags_override_config_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RANDSET_THREADS", "1")
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("lambda = 100\nreplicates = 4000\nseed = 5\n")
        out = tmp_path / "o.csv"
        code = main(["warmup-1d", "--config", str(cfgfile), "--d", "1",
                     "--replicates", "3000", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)[1:]
        assert {r[2] for r in rows} == {"100.0"}

    def test_config_error_exit(self, tmp_path, capsys):
        assert main(["radius-convergence", "--lambda", "5,abc"]) == 2
        assert "config error" in capsys.readouterr().err
        assert main(["coupling", "--d", "3", "--lambda", "400",
                     "--replicates", "2"]) == 2
        assert "d = 2" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["coupling", "--lambda", "0.5", "--replicates", "2"],
        ["coupling", "--lambda", "1", "--replicates", "2"],
        ["volume-sweep", "--d", "38", "--lambda", "50", "--samples", "20"],
        ["radius-convergence", "--d", "400", "--lambda", "10", "--samples", "20"],
        ["crofton", "--d", "129", "--replicates", "2"],
    ], ids=["coupling-lam", "coupling-eps", "sweep-d", "radius-d", "crofton-d"])
    def test_library_input_errors_exit_2(self, args, tmp_path, capsys, monkeypatch):
        # a ValueError from the library (or, for crofton --d 129, the CLI
        # rule on d) is a config error
        monkeypatch.setenv("RANDSET_THREADS", "1")
        monkeypatch.chdir(tmp_path)  # the default output path is probed
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err

    def test_unwritable_output_exit_2(self, tmp_path, capsys, monkeypatch):
        # the path is checked before any block runs
        monkeypatch.setenv("RANDSET_THREADS", "1")

        def never(cfg):
            raise AssertionError("run_experiment called for an unwritable --out")

        monkeypatch.setattr(expcli, "run_experiment", never)
        out = tmp_path / "missing" / "x.csv"
        assert main(["warmup-1d", "--d", "1", "--lambda", "50", "--replicates", "20",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot write {out}" in err
        assert "Traceback" not in err

    def test_output_check_leaves_files(self, tmp_path, monkeypatch):
        # the write check keeps an existing file's bytes and leaves no new file
        # behind when the run then fails
        monkeypatch.setenv("RANDSET_THREADS", "lots")
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_bytes(b"keep")
        for out in (old, new):
            assert main(["warmup-1d", "--d", "1", "--lambda", "50", "--replicates", "20",
                         "--out", str(out)]) == 2
        assert old.read_bytes() == b"keep"
        assert not new.exists()

    def test_output_check_dangling_symlink(self, tmp_path):
        # the file the probe creates through a dangling link is removed again
        link, target = tmp_path / "link.csv", tmp_path / "target.csv"
        link.symlink_to(target)
        expcli._check_writable(str(link))
        assert link.is_symlink() and not target.exists()

    def test_output_check_skips_fifo(self, tmp_path, monkeypatch):
        # opening a FIFO blocks without a reader and ends a waiting reader's
        # input, so the probe leaves it alone
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)

        def no_open(*args, **kwargs):
            raise AssertionError("the probe opened a FIFO")

        monkeypatch.setattr(expcli, "open", no_open, raising=False)
        expcli._check_writable(str(fifo))

    def test_numerical_failure_exit(self, tmp_path, capsys, monkeypatch):
        # the patch does not reach pool workers, so run serially
        monkeypatch.setenv("RANDSET_THREADS", "1")
        monkeypatch.setattr(models, "_zero_cells", lambda d, normals, offsets, counts, window:
                            ([None] * counts.size,) * 2)
        code = main(["crofton", "--replicates", "3", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["crofton", "--d", "3", "--lambda", "1e-150", "--replicates", "20"],
        ["volume-sweep", "--lambda", "1e-6", "--samples", "200"],
        ["meeting-counts", "--lambda", "1e-3", "--replicates", "50"],
        ["cone", "--lambda", "1e-6"],
        ["radius-convergence", "--lambda", "1e-6", "--samples", "2000"],
    ], ids=["crofton-scale", "sweep-gap", "meeting-gap", "cone-gap", "radius-ks"])
    def test_degenerate_statistics_exit_3(self, args, tmp_path, capsys, monkeypatch):
        # a volume scale beyond float64, a sigma gap over a zero standard
        # error and a KS over no sample are numerical failures; numpy
        # warnings are errors under pytest, so none may be raised either
        monkeypatch.setenv("RANDSET_THREADS", "1")
        assert main([*args, "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "Traceback" not in err

    def test_huge_intensity_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        # the windowed samplers run a bounded number of rounds, and scaled
        # rows are float64: lam = 1e300 ends in a config error or a
        # numerical failure, not a traceback or a hang
        monkeypatch.setenv("RANDSET_THREADS", "1")
        for experiment in ("radius-convergence", "cone", "volume-sweep", "coupling",
                           "crofton"):
            code = main([experiment, "--lambda", "1e300", "--samples", "200",
                         "--replicates", "2", "--out", str(tmp_path / "x.csv")])
            err = capsys.readouterr().err
            assert code in (2, 3), (experiment, code, err)
            assert "Traceback" not in err

    @pytest.mark.parametrize("experiment", ["meeting-counts", "warmup-1d"])
    def test_poisson_mean_past_numpy_limit_exit_2(self, experiment, tmp_path, capsys,
                                                  monkeypatch):
        # the config error names the Poisson mean and numpy's limit, not
        # numpy's bare "lam value too large"
        monkeypatch.setenv("RANDSET_THREADS", "1")
        code = main([experiment, "--lambda", "1e300", "--samples", "200",
                     "--replicates", "50", "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "config error: Poisson mean must be finite and in [0, 9.223e+18]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("experiment, lam", [("warmup-1d", "1e12"),
                                                 ("meeting-counts", "1e13")])
    def test_band_past_the_point_cap_exit_2(self, experiment, lam, tmp_path, capsys,
                                            monkeypatch):
        # one replicate's band would take terabytes; the config error names
        # the cap, where numpy raised a memory error with a traceback
        monkeypatch.setenv("RANDSET_THREADS", "1")
        code = main([experiment, "--lambda", lam, "--replicates", "2",
                     "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "config error: a Poisson band of mean" in err
        assert "exceeds the cap of 1e+08 points per replicate" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("args", [
        ["crofton", "--replicates", "10000000000000"],
        ["coupling", "--replicates", "10000000000000"],
        ["coupling", "--grid-size", "10000000000000"],
    ], ids=["crofton-replicates", "coupling-replicates", "coupling-grid-size"])
    def test_unallocatable_size_exit_2(self, args, threads, tmp_path, capsys, monkeypatch):
        # numpy refuses an array of 1e13 float64 (72.8 TiB) before allocating
        # anything; that memory error, serial or from a pool worker, is a
        # config error with numpy's message
        monkeypatch.setenv("RANDSET_THREADS", threads)
        code = main([*args, "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "config error: Unable to allocate 72.8 TiB" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("lam, top", [("1e15", "1e+15"), ("1e17", "1e+17"),
                                          ("10,1e13", "1e+13")])
    def test_radius_lambda_bound_exit_2(self, lam, top, tmp_path, capsys, monkeypatch):
        # past 1e12 the ball process route loses its digits near the unit
        # sphere, so the experiment refuses the grid before any block runs
        code, err = main_without_blocks(
            ["radius-convergence", "--lambda", lam, "--samples", "200",
             "--out", str(tmp_path / "x.csv")], capsys, monkeypatch)
        assert code == 2, err
        assert err == ("randset: config error: the radius-convergence experiment needs "
                       f"every --lambda in (0, 1e+12], got {top}\n")

    @pytest.mark.parametrize("lam, bad", [("1e15", "1e+15"), ("1e17", "1e+17"),
                                          ("1000,1e7", "1e+07"), ("1", "1"),
                                          ("0.5", "0.5"), ("1000,1", "1")])
    def test_coupling_lambda_bound_exit_2(self, lam, bad, tmp_path, capsys, monkeypatch):
        # the shell width log(lambda)^2 / (2 lambda) needs lambda > 1, and
        # the ball exits near the unit sphere keep their digits up to 1e6,
        # so the coupling refuses the grid before any block runs
        code, err = main_without_blocks(
            ["coupling", "--lambda", lam, "--replicates", "2",
             "--out", str(tmp_path / "x.csv")], capsys, monkeypatch)
        assert code == 2, err
        assert err == ("randset: config error: the coupling experiment needs "
                       f"every --lambda in (1, 1e+06], got {bad}\n")

    def test_exact_sampler_at_large_intensity(self, tmp_path, monkeypatch):
        # the radii are of order 1e-12, the root finder's absolute tolerance
        monkeypatch.setenv("RANDSET_THREADS", "1")
        out = tmp_path / "r.csv"
        assert main(["radius-convergence", "--lambda", "1e12", "--samples", "4000",
                     "--out", str(out)]) == 0
        values = {r[5]: float(r[6]) for r in read_rows(out)[1:]}
        assert values["two_sample_ks_p"] > 1e-4
        assert values["ks_ball_exact"] < 0.05

    def test_crofton_low_rate(self, tmp_path, monkeypatch):
        # cells are drawn at rate 2 and scaled by 2/rate, so a low rate
        # certifies every cell as the unit one does
        monkeypatch.setenv("RANDSET_THREADS", "1")
        out = tmp_path / "c.csv"
        assert main(["crofton", "--lambda", "0.05", "--replicates", "200",
                     "--out", str(out)]) == 0
        metrics = {r[5] for r in read_rows(out)[1:]}
        assert "zero_cell_volume_mean" in metrics
        assert "unbounded_count" not in metrics

    def test_sweep_hit_or_miss_only_where_a_window_is_certified(self, tmp_path, monkeypatch):
        # past the zero-cell dimensions the probes would fill the unit ball,
        # which at d = 5, lam = 50 holds the set only in 1.3e-10 of its volume:
        # no probe hits, and the sigma gap would be over a zero standard error
        monkeypatch.setenv("RANDSET_THREADS", "1")
        out = tmp_path / "v.csv"
        assert main(["volume-sweep", "--d", "5", "--lambda", "50", "--samples", "500",
                     "--out", str(out)]) == 0
        metrics = {r[5] for r in read_rows(out)[1:]}
        assert "volume_mc" in metrics
        assert not any("hit_or_miss" in m for m in metrics)

    def test_thread_env_error_exit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RANDSET_THREADS", "lots")
        monkeypatch.chdir(tmp_path)  # the default output path is probed
        assert main(["warmup-1d", "--d", "1", "--lambda", "50",
                     "--replicates", "2000"]) == 2
        capsys.readouterr()


class TestRecordSemantics:
    def test_replicates_index_metrics(self, monkeypatch):
        monkeypatch.setenv("RANDSET_THREADS", "1")
        cfg = ExperimentConfig(experiment="warmup-1d", d=1, lambda_grid=(80.0,),
                               replicates=3000, seed=2)
        records = run_experiment(cfg)
        assert [r.replicate for r in records] == list(range(len(records)))
        assert all(r.lam == 80.0 for r in records)
        assert len({r.metric for r in records}) == len(records)

    def test_seed_scheme_stable_under_grid_growth(self, monkeypatch):
        # adding a lambda value must not perturb existing blocks
        monkeypatch.setenv("RANDSET_THREADS", "1")
        small = ExperimentConfig(experiment="volume-sweep", lambda_grid=(50.0,),
                                 samples=500, seed=9)
        big = ExperimentConfig(experiment="volume-sweep",
                               lambda_grid=(50.0, 150.0), samples=500, seed=9)
        recs_small = {(r.metric): (r.seed, r.value) for r in run_experiment(small)}
        recs_big = {(r.metric): (r.seed, r.value)
                    for r in run_experiment(big) if r.lam == 50.0}
        assert recs_small == recs_big

    def test_hit_or_miss_probes_in_certified_window(self, monkeypatch):
        # the probes fill the tangent polygon certified to contain the
        # intersection, so even 2 replicates at lam = 200 hit it, and the
        # sigma gap is over a positive standard error
        monkeypatch.setenv("RANDSET_THREADS", "1")
        cfg = build_config("volume-sweep", {},
                           {"lambda_grid": (200.0,), "samples": 20, "seed": 12345})
        recs = {r.metric: r for r in run_experiment(cfg)}
        hm = recs["volume_hit_or_miss"]
        assert hm.value > 0.0 and hm.std_error > 0.0
        assert np.isfinite(recs["hit_or_miss_sigma_gap"].value)

    @pytest.mark.parametrize("d, lam", [(2, 50.0), (2, 200.0), (3, 50.0), (2, 1e15)])
    def test_hit_or_miss_volume_matches_quadrature(self, d, lam):
        # the probes are tested in depth form, so the volume stays unbiased
        # where the centers lie a few float spacings inside the sphere
        vol, se = expcli._hit_or_miss_ball_volume(d, lam, 3000, RngStream(5))
        quad = analytics.expected_volume_quadrature(d, lam)
        assert abs(vol - quad) <= 3.0 * se, (vol, quad, se)

    @pytest.mark.parametrize("d, lam", [(2, 20.0), (3, 20.0), (2, 1.0)])
    def test_hit_or_miss_volume_matches_reference(self, d, lam):
        # a plain per-probe loop on the same streams: the samples // 10
        # replicates' centers pooled from the pins stream, their probes
        # from the probe stream in replicate order.  A certified planar P
        # takes 128 probes, each in the triangle of the fan from vertex 0
        # found by a linear scan of the cumulative areas, then reflected;
        # any other replicate takes 2000 probes in B(0, r_P), or in
        # B(0, rho) where no P is certified (most replicates at lam = 1)
        samples, rng = 400, RngStream(9)
        vols, routes = [], set()
        g = rng.spawn("probe").gen
        pins = models.windowed_ball_pins(d, lam, samples // 10, rng.spawn("pins"))
        for depths, normals, rho, verts in pins:
            if d == 2 and verts is not None:
                routes.add("polygon")
                u = g.random((3, 128))
                v0, e = verts[0], verts[1:] - verts[0]
                cum, total = [], 0.0
                for a, b in zip(e[:-1], e[1:]):
                    total += a[0] * b[1] - a[1] * b[0]
                    cum.append(total)
                probes = []
                for pick, s, t in u.T:
                    j = 0
                    while j < len(cum) - 1 and pick * total >= cum[j]:
                        j += 1
                    if s + t > 1.0:
                        s, t = 1.0 - s, 1.0 - t
                    probes.append(e[j] * s + e[j + 1] * t + v0)
                region = 0.5 * total
            else:
                routes.add("ball" if verts is None else "vertex ball")
                r = rho if verts is None else max(np.sqrt(np.sum(v * v)) for v in verts)
                x = g.standard_normal((2000, d))
                x /= np.linalg.norm(x, axis=1, keepdims=True)
                x *= r * g.random(2000)[:, None] ** (1.0 / d)
                probes, region = list(x), unit_ball_volume(d) * r**d
            hits = sum(bool(np.all(x @ x + 2.0 * ((1.0 - depths)[:, None] * normals) @ x
                                   <= depths * (2.0 - depths))) for x in probes)
            vols.append(region * (hits / len(probes)))
        vol, se = expcli._hit_or_miss_ball_volume(d, lam, samples, rng)
        assert routes == {(2, 20.0): {"polygon"}, (3, 20.0): {"vertex ball"},
                          (2, 1.0): {"polygon", "ball"}}[d, lam]
        assert 0.0 < vol and vol == float(np.mean(vols))
        assert se == float(np.std(vols, ddof=1) / np.sqrt(len(vols)))


class TestPolygonProbes:
    """expcli._polygon_probes: points uniform in a convex polygon, by a fan
    of triangles from vertex 0."""

    POLYGONS = {
        "hexagon": [(1.0, 0.0), (2.0, 0.5), (2.2, 2.0), (1.0, 3.0), (-0.5, 2.0), (-0.3, 0.4)],
        "thin": [(0.0, 0.0), (10.0, 0.0), (10.0, 0.02), (0.0, 0.01)],
    }

    @pytest.mark.parametrize("name", POLYGONS)
    def test_uniform_in_the_polygon(self, name):
        verts = np.array(self.POLYGONS[name])
        n = 200_000
        x, area = expcli._polygon_probes(verts, RngStream(3).spawn(name).gen.random((3, n)))
        assert x.shape == (2, n)
        # inside: left of (or, to rounding, on) every counter-clockwise edge
        edges = np.roll(verts, -1, axis=0) - verts
        rel = x[None, :, :] - verts[:, :, None]
        left = edges[:, 0, None] * rel[:, 1] - edges[:, 1, None] * rel[:, 0]
        assert np.all(left >= -1e-12 * np.abs(edges).max() ** 2)
        # the fan's triangle of each probe, by its side of the fan's spokes
        spokes = verts[1:] - verts[0]
        y = x - verts[0][:, None]
        tri = np.count_nonzero(spokes[1:-1, 0, None] * y[1] - spokes[1:-1, 1, None] * y[0] > 0.0,
                               axis=0)
        tri_areas = 0.5 * (spokes[:-1, 0] * spokes[1:, 1] - spokes[:-1, 1] * spokes[1:, 0])
        shoelace = 0.5 * np.sum(verts[:, 0] * np.roll(verts[:, 1], -1)
                                - np.roll(verts[:, 0], -1) * verts[:, 1])
        assert area == pytest.approx(shoelace, rel=1e-12)
        counts = np.bincount(tri, minlength=tri_areas.size)
        assert stats.chisquare(counts, n * tri_areas / tri_areas.sum()).pvalue > 1e-3
        # the probe mean is the polygon's centroid
        cross = verts[:, 0] * np.roll(verts[:, 1], -1) - np.roll(verts[:, 0], -1) * verts[:, 1]
        centroid = np.sum((verts + np.roll(verts, -1, axis=0)) * cross[:, None], axis=0)
        centroid /= 6.0 * shoelace
        se = x.std(axis=1, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(x.mean(axis=1) - centroid) <= 4.0 * se), (x.mean(axis=1), centroid)


CLI_ARGS = ["warmup-1d", "--d", "1", "--lambda", "60", "--replicates", "2000",
            "--seed", "4"]
# directory holding the imported package: ``src`` in a checkout
PACKAGE_PARENT = pathlib.Path(randset.__file__).resolve().parents[1]


def console_script_target():
    """(module, attribute) of the `randset` entry in the repo's pyproject.toml.

    The repo root is found from the imported package (``src/randset``), so the
    declaration checked is the one that ships with the code under test.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(PACKAGE_PARENT.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, attr = scripts["randset"].partition(":")
    return module, attr


def package_env():
    """The caller's environment, one worker, the package on PYTHONPATH."""
    env = dict(os.environ, RANDSET_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_PARENT), env.get("PYTHONPATH")) if p)
    return env


def run_cli(command, tmp_path, env):
    out = tmp_path / "cli.csv"
    proc = subprocess.run([*command, *CLI_ARGS, "--out", str(out)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
    assert read_rows(out)[0] == CSV_HEADER


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        # Run the declared entry point the way pip's generated wrapper does,
        # so no install is needed.
        module, attr = console_script_target()
        assert getattr(importlib.import_module(module), attr, None) is main
        wrapper = (f"import sys; from {module} import {attr}; "
                   f"sys.exit({attr}())")
        run_cli([sys.executable, "-c", wrapper], tmp_path, package_env())

    def test_module_entry_point(self, tmp_path):
        run_cli([sys.executable, "-m", "randset"], tmp_path, package_env())

    @pytest.mark.skipif(
        shutil.which("randset") is None,
        reason="randset console script not on PATH (pip install -e .)")
    def test_console_script_on_path(self, tmp_path):
        run_cli([shutil.which("randset")], tmp_path,
                dict(os.environ, RANDSET_THREADS="1"))
