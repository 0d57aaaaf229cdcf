"""Command-line experiment driver.

Runs the named experiment over a grid of intensities, one process-pool
block per grid value, and writes a flat record table.  Records are byte
identical across reruns with the same configuration except for the
runtime_ms column; every block derives its randomness from the
(experiment, dimension, intensity, seed) tuple, so worker scheduling
cannot change the output.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import astuple, dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import analytics, models, ppp
from .geomcore import direction_grid, unit_ball_volume, validate_dimension
from .ppp import RngStream

CSV_HEADER = ["experiment", "d", "lambda", "replicate", "seed", "metric",
              "value", "std_error", "runtime_ms"]

_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Bad experiment configuration; reported with exit code 2."""


class NumericalFailure(RuntimeError):
    """Non-finite metric or degenerate cell; reported with exit code 3, as is
    a zero cell still uncertified after the window-doubling cap."""


@dataclass
class ExperimentConfig:
    experiment: str
    d: int = 2
    lambda_grid: tuple[float, ...] = ()
    replicates: int = 200
    samples: int = 20_000
    seed: int = 12345
    grid_size: int = 1024
    eps: float = 1e-3
    output_path: str = ""
    format: str = "csv"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; choose from {', '.join(EXPERIMENTS)}")
        try:
            self.d = validate_dimension(self.d)
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e)) from None
        if not self.lambda_grid:
            raise ConfigError("lambda grid must not be empty")
        if any(not np.isfinite(v) or v <= 0 for v in self.lambda_grid):
            raise ConfigError("lambda grid values must be positive and finite")
        if len(set(self.lambda_grid)) != len(self.lambda_grid):
            raise ConfigError("lambda grid values must be distinct")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.grid_size < 8:
            raise ConfigError("grid_size must be >= 8")
        if not 0.0 < self.eps < 0.25:
            raise ConfigError("eps must lie in (0, 0.25)")
        if self.format not in _FORMATS:
            raise ConfigError("format must be csv or json")
        spec = _EXPERIMENT_TABLE[self.experiment]
        if spec.d_range:
            lo, hi = spec.d_range
            if not lo <= self.d <= hi:
                rule = f"d = {lo}" if lo == hi else f"{lo} <= d <= {hi}"
                raise ConfigError(f"the {self.experiment} experiment requires {rule}")
        if getattr(self, spec.count) < 2:
            raise ConfigError(f"{self.experiment} needs {spec.count} >= 2")
        self.lambda_grid = tuple(map(float, self.lambda_grid))
        lo, hi = spec.lam_range
        for lam in self.lambda_grid:
            if not lo < lam <= hi:
                raise ConfigError(f"the {self.experiment} experiment needs every --lambda "
                                  f"in ({lo:g}, {hi:g}], got {lam:g}")
        if not self.output_path:
            self.output_path = f"randset-{self.experiment}.{self.format}"


@dataclass(frozen=True)
class ExperimentRecord:
    experiment: str
    d: int
    lam: float
    replicate: int
    seed: int
    metric: str
    value: float
    std_error: float | None
    runtime_ms: float


# ---------------------------------------------------------------------------
# configuration parsing


def _parse_lambda_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in str(text).replace(";", ",").split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"could not parse lambda grid from {text!r}") from None


class _Option(NamedTuple):
    flag: str
    parse: Callable[[str], object] = str
    # "KEY must be NOUN" when parse fails; argparse parses the options that
    # have one, the rest are parsed after it and report their own errors
    noun: str = ""
    flag_kwargs: dict = {}  # more add_argument keywords


# config key -> its command-line flag and its parser; a config file takes the
# key itself (dashes for underscores allowed), and `lambda` for lambda_grid
_OPTIONS = {
    "d": _Option("--d", int, "an integer"),
    "lambda_grid": _Option("--lambda", _parse_lambda_grid, flag_kwargs=dict(
        metavar="GRID", help="comma-separated intensity grid, e.g. 10,50,200")),
    "replicates": _Option("--replicates", int, "an integer"),
    "samples": _Option("--samples", int, "an integer"),
    "seed": _Option("--seed", int, "an integer"),
    "grid_size": _Option("--grid-size", int, "an integer"),
    "eps": _Option("--eps", float, "a number"),
    "output_path": _Option("--out"),
    "format": _Option("--format", flag_kwargs=dict(choices=_FORMATS)),
}


def parse_config_file(path: str) -> dict:
    """Read key=value (or key: value) lines; # starts a comment."""
    out: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        elif ":" in line:
            key, _, val = line.partition(":")
        else:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key = key.strip().replace("-", "_")
        key = "lambda_grid" if key == "lambda" else key
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _OPTIONS[key].parse(val.strip())
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: {key} must be {_OPTIONS[key].noun}") from None
    return out


def build_config(experiment: str, file_options: dict, cli_options: dict) -> ExperimentConfig:
    """Defaults, then config file, then command-line flags."""
    spec = _EXPERIMENT_TABLE.get(experiment)
    merged = dict(spec.defaults if spec else {})
    merged.update({k: v for k, v in file_options.items() if v is not None})
    merged.update({k: v for k, v in cli_options.items() if v is not None})
    try:
        return ExperimentConfig(experiment=experiment, **merged)
    except TypeError as e:
        raise ConfigError(str(e)) from None


# ---------------------------------------------------------------------------
# metric blocks (one per lambda grid value; must stay picklable)


def _rec(out: list, metric: str, value: float, se: float | None = None):
    out.append((metric, float(value), None if se is None else float(se)))


def _sigma_gap(est: float, ref: float, se: float) -> float:
    """(est - ref) / se, or NaN when se is not positive, so a run whose
    estimate has no spread reports a numerical failure."""
    return (est - ref) / se if se > 0 else np.nan


def _transformed_ks(out: list, tag: str, sample: np.ndarray, law) -> None:
    """KS of lam*omega_d*w(R) against Exp(1) truncated at the atom image,
    plus the gap between the empirical and exact atom mass."""
    zmax = law.transform(1.0)
    inner = sample[sample < 1.0]
    z = law.transform(inner)

    def trunc_cdf(t):
        return (1.0 - np.exp(-np.minimum(t, zmax))) / -np.expm1(-zmax)

    # no radius below 1 leaves no sample: a NaN KS reports the failure
    _rec(out, f"ks_{tag}", analytics.ks_statistic(z, trunc_cdf) if z.size else np.nan)
    atom = float(np.mean(sample == 1.0))
    n = sample.size
    _rec(out, f"atom_gap_{tag}", atom - law.atom_mass(),
         np.sqrt(max(atom * (1 - atom), law.atom_mass()) / n))


def _block_radius_convergence(cfg: ExperimentConfig, lam: float, rng: RngStream) -> list[tuple]:
    d = cfg.d
    mu = ppp.uniform_radial_law(d)
    n = cfg.samples

    ball_law = analytics.RadiusLaw(d, lam)
    radii = models.sample_axis_radii(d, lam, mu, models.BALL, n, rng.spawn("process"))
    exact = analytics.sample_radius_exact(d, lam, n, rng.spawn("exact"))
    out: list[tuple] = []
    _transformed_ks(out, "ball_process", radii, ball_law)
    _transformed_ks(out, "ball_exact", exact, ball_law)
    from scipy.stats import ks_2samp

    _rec(out, "two_sample_ks_p", ks_2samp(radii, exact).pvalue)
    if d >= 2:
        hs_law = analytics.RadiusLaw(
            d, lam, miss_fn=lambda r: analytics.halfspace_uniform_weight(d, r))
        q = models.sample_axis_radii(d, lam, mu, models.HALF_SPACE, n,
                                     rng.spawn("hs-process"))
        _transformed_ks(out, "halfspace_process", q, hs_law)
    vq = analytics.expected_volume_quadrature(d, lam)
    vmc, se = analytics.radius_moment_volume(d, radii)
    _rec(out, "volume_mc", vmc, se)
    _rec(out, "volume_quadrature", vq)
    _rec(out, "volume_sigma_gap", _sigma_gap(vmc, vq, se))
    return out


def _hit_or_miss_ball_volume(d: int, lam: float, samples: int,
                             rng: RngStream) -> tuple[float, float]:
    """Brute-force volume of the ball-model intersection I: uniform points
    x in a ball B(0, rho) known to contain I, tested against every center
    c = (1 - delta) * (-n) that can shape I (models.windowed_ball_pins) by
    |x|^2 + 2 (1 - delta) <x, n> <= delta (2 - delta), which is |x - c| <= 1
    written in the depth delta, so the test keeps its precision however
    close the centers lie to the unit sphere.  Each replicate records
    omega_d * rho^d times its hit fraction, which is unbiased given its
    centers.  Independent of the star-radius route, so it closes the
    consistency triangle with the quadrature and radius-moment estimates.
    The replicates' centers come pooled from one stream ("pins") and their
    probes from another ("probe"), 2000 per replicate in replicate order.
    The probes are held coordinate-major and tested one center per row and
    one probe per column, so the test over the few centers runs along the
    long probe axis; the probes are drawn as in the probe-major layout and
    tested by the same inequality."""
    reps = max(2, samples // 10)
    pts_per = 2000
    wd = unit_ball_volume(d)
    vols = np.empty(reps)
    g = rng.spawn("probe").gen
    pins = models.windowed_ball_pins(d, lam, reps, rng.spawn("pins"))
    for i, (depths, normals, rho) in enumerate(pins):
        x = np.ascontiguousarray(g.standard_normal((pts_per, d)).T)
        x /= np.linalg.norm(x, axis=0)
        x *= rho * g.random(pts_per) ** (1.0 / d)
        lhs = ((1.0 - depths)[:, None] * normals) @ (2.0 * x)
        lhs += np.sum(x * x, axis=0)
        hits = np.all(lhs <= (depths * (2.0 - depths))[:, None], axis=0)
        vols[i] = wd * rho**d * np.mean(hits)
    return float(vols.mean()), float(vols.std(ddof=1) / np.sqrt(reps))


def _block_volume_sweep(cfg: ExperimentConfig, lam: float, rng: RngStream) -> list[tuple]:
    d = cfg.d
    out: list[tuple] = []
    vq = analytics.expected_volume_quadrature(d, lam)
    const = analytics.asymptotic_volume_constant(d)
    _rec(out, "volume_quadrature", vq)
    # a lam whose d-th power leaves float64 gives an inf or NaN row
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.float64(lam) ** d * vq
    _rec(out, "scaled_volume", scaled)
    _rec(out, "asymptotic_constant", const)
    _rec(out, "rel_gap_to_limit", scaled / const - 1.0)
    if lam <= 1000.0:
        mu = ppp.uniform_radial_law(d)
        radii = models.sample_axis_radii(d, lam, mu, models.BALL, cfg.samples,
                                         rng.spawn("ball-mc"))
        vmc, se = analytics.radius_moment_volume(d, radii)
        _rec(out, "volume_mc", vmc, se)
        _rec(out, "volume_sigma_gap", _sigma_gap(vmc, vq, se))
    # past _MAX_CELL_DIM no window is certified, so the probes fill the unit
    # ball, and at d = 5, lam = 50 the set holds 1.3e-10 of it: none would hit
    if lam <= 200.0 and d <= models._MAX_CELL_DIM:
        vhm, hm_se = _hit_or_miss_ball_volume(d, lam, cfg.samples,
                                              rng.spawn("hit-or-miss"))
        _rec(out, "volume_hit_or_miss", vhm, hm_se)
        _rec(out, "hit_or_miss_sigma_gap", _sigma_gap(vhm, vq, hm_se))
    if d == 2:
        # uniform pinned half-space model: E|I| = (4/(lam pi))(1 - e^{-lam pi^2/4})
        hq = 4.0 / (lam * np.pi) * -np.expm1(-lam * np.pi**2 / 4.0)
        _rec(out, "hs_scaled_volume_closed", lam * hq)
        if lam <= 1000.0:
            mu = ppp.uniform_radial_law(2)
            q = models.sample_axis_radii(2, lam, mu, models.HALF_SPACE, cfg.samples,
                                         rng.spawn("halfspace-mc"))
            hmc, hse = analytics.radius_moment_volume(2, q)
            _rec(out, "hs_scaled_volume_mc", lam * hmc, lam * hse)
            _rec(out, "hs_sigma_gap", _sigma_gap(hmc, hq, hse))
    return out


def _block_coupling(cfg: ExperimentConfig, lam: float, rng: RngStream) -> list[tuple]:
    grid = direction_grid(2, cfg.grid_size)
    eps = np.log(lam) ** 2 / (2.0 * lam)
    n = cfg.replicates
    haus = np.empty(n)
    flags = np.empty(n)
    occupied = 0
    contained = 0
    # containment of I in B(0, margin), from the centers that can shape I
    # (windowed_ball_pins): I lies in B(0, rho), and the drawn centers alone
    # give its radii; the same law as shell_containment_indicator's
    margin = 2.0 * np.log(lam) ** 2 / lam
    pins = models.windowed_ball_pins(2, lam, n, rng.spawn("contain"))
    for i in range(n):
        r = rng.spawn(i)
        tess = ppp.sample_shell(2, lam / 2.0, eps, "both", r.spawn("tess"))
        outp = models.coupling_transform(tess.points, lam, eps, r.spawn("bulk"), grid)
        haus[i] = outp.hausdorff_scaled
        flags[i] = outp.tess_cell.flagged_fraction
        pts = tess.points
        if pts.shape[0]:
            ang = np.arctan2(pts[:, 1], pts[:, 0])
            arcs = np.unique(np.minimum((ang + np.pi) * 3.0 / np.pi, 5.0).astype(int))
            occupied += arcs.size == 6
        if margin < 1.0:
            depths, normals, rho = next(pins)
            contained += rho <= margin or bool(np.max(models.intersection_radius(
                models.BALL, 1.0 - depths, -normals, grid.points)) <= margin)
        else:
            contained += 1
    out: list[tuple] = []
    _rec(out, "coupling_eps", eps)
    _rec(out, "hausdorff_scaled_mean", haus.mean(), haus.std(ddof=1) / np.sqrt(n))
    _rec(out, "hausdorff_scaled_median", float(np.median(haus)))
    _rec(out, "hausdorff_scaled_p90", float(np.quantile(haus, 0.9)))
    _rec(out, "hausdorff_scaled_max", haus.max())
    _rec(out, "flagged_fraction_mean", flags.mean())
    frac = contained / n
    _rec(out, "containment_fraction", frac,
         np.sqrt(max(frac * (1 - frac), 1.0 / n) / n))
    # all six arcs of the shell occupied at least 1 - coupon_bound of the time
    occ = occupied / n
    _rec(out, "arc_occupancy_freq", occ, np.sqrt(max(occ * (1 - occ), 1.0 / n) / n))
    _rec(out, "arc_occupancy_floor", max(0.0, 1.0 - ppp.coupon_bound(6, 1.0 / 6.0, lam)))
    prob, ok = ppp.poisson_log_tail_check(lam, 2)
    _rec(out, "poisson_log_tail_prob", prob)
    _rec(out, "poisson_log_tail_ok", float(ok))
    return out


def _block_crofton(cfg: ExperimentConfig, lam: float, rng: RngStream) -> list[tuple]:
    """Zero-cell and chord statistics at hyperplane rate 2, then scaled to
    rate lam: lengths by s = 2/lam, volumes by s^d.  A lam that scales a
    statistic out of float64's range gives an inf row, which run_experiment
    reports as a numerical failure."""
    d = cfg.d
    n = cfg.replicates
    mom = analytics.crofton_moments(d)
    vols = np.empty(n)
    enlargements = 0
    for i, cell in enumerate(models.crofton_cells(d, n, rng.spawn("cells"))):
        vols[i] = cell.volume
        enlargements += cell.enlargements > 0
    if np.any(vols <= 0):
        raise NumericalFailure("degenerate zero cell with nonpositive volume")
    inv = 1.0 / vols
    mean, mean_se = vols.mean(), vols.std(ddof=1) / np.sqrt(n)
    imean, imean_se = inv.mean(), inv.std(ddof=1) / np.sqrt(n)
    length = 3.0
    reps = max(2, min(8 * n, 64_000))
    cnt = models.segment_crossing_count(d, length, reps, rng.spawn("chord"))
    chat = cnt.mean() / length
    chat_se = cnt.std(ddof=1) / (length * np.sqrt(reps))
    typical = (2.0 / chat) ** d / unit_ball_volume(d)
    ratio = mean / typical
    ratio_se = ratio * np.sqrt((mean_se / mean) ** 2 + (d * chat_se / chat) ** 2)
    out: list[tuple] = []
    with np.errstate(over="ignore"):
        vol_scale, inv_scale = np.float64(2.0 / lam) ** d, np.float64(lam / 2.0) ** d
        _rec(out, "zero_cell_volume_mean", mean * vol_scale, mean_se * vol_scale)
        _rec(out, "zero_cell_volume_exact", mom.zero_cell_mean * vol_scale)
        # heavy upper tail: 1/volume of the zero cell has infinite variance, so
        # this estimator creeps up toward 1/E[V_typ] from below; diagnostic only
        _rec(out, "inverse_volume_mean", imean * inv_scale, imean_se * inv_scale)
        _rec(out, "chord_rate_mc", chat * lam / 2.0, chat_se * lam / 2.0)
        _rec(out, "chord_rate_exact", mom.chord_rate * lam / 2.0)
        _rec(out, "typical_mean_exact", mom.typical_mean * vol_scale)
    _rec(out, "moment_ratio_est", ratio, ratio_se)
    _rec(out, "moment_ratio_exact", mom.moment_ratio)
    _rec(out, "enlargement_fraction", enlargements / n)
    if d == 2:
        # the classical rate 2*pi on the segment is rate 2 on pi times it
        cl = models.segment_crossing_count(2, np.pi * length, min(reps, 4000),
                                           rng.spawn("seg"))
        _rec(out, "crossing_rate_classical", cl.mean() / length,
             cl.std(ddof=1) / (length * np.sqrt(cl.size)))
    return out


def _block_warmup(cfg: ExperimentConfig, lam: float, rng: RngStream) -> list[tuple]:
    st = models.interval_intersection_stats(lam, cfg.replicates, rng)
    out: list[tuple] = []
    n = cfg.replicates
    _rec(out, "scaled_length_mean", st["scaled_length_mean"],
         np.sqrt(st["scaled_length_var"] / n))
    _rec(out, "scaled_length_mean_exact", 2.0 * -np.expm1(-lam))
    _rec(out, "scaled_length_var", st["scaled_length_var"])
    _rec(out, "endpoint_corr", st["endpoint_corr"], 1.0 / np.sqrt(n))
    from scipy.special import gammainc

    z = lam * (st["hi"] - st["lo"])
    _rec(out, "ks_gamma2", analytics.ks_statistic(z, lambda x: gammainc(2.0, x)))
    return out


def _block_meeting(cfg: ExperimentConfig, lam: float, rng: RngStream) -> list[tuple]:
    out: list[tuple] = []
    for model in models.MEETING_MODELS:
        mean, se, asym = models.meeting_count_mc(model, cfg.d, lam, cfg.eps,
                                                 cfg.replicates, rng.spawn(model))
        _rec(out, f"{model}_mean", mean, se)
        _rec(out, f"{model}_asymptotic", asym)
        _rec(out, f"{model}_sigma_gap", _sigma_gap(mean, asym, se))
    return out


_CONE_BETAS = (np.pi / 3.0, np.pi / 2.0, 2.0 * np.pi / 3.0)
_CONE_PROBE = 0.4
_CONE_SMALL_R = (0.16, 0.08, 0.04, 0.02)


def _block_cone(cfg: ExperimentConfig, lam: float, rng: RngStream) -> list[tuple]:
    mu = ppp.uniform_radial_law(2)
    r = _CONE_PROBE
    out: list[tuple] = []
    for beta in _CONE_BETAS:
        tag = f"beta_{beta:.4f}"
        shape = models.cone(beta)
        w, wse = analytics.miss_weight_mc(shape, mu, 2, r, 400_000,
                                          rng.spawn("weight", float(beta)))
        radii = models.sample_axis_radii(2, lam, mu, shape, cfg.samples,
                                         rng.spawn("radii", float(beta)))
        emp = float(np.mean(radii > r))
        emp_se = np.sqrt(max(emp * (1 - emp), 1.0 / cfg.samples) / cfg.samples)
        pred = np.exp(-lam * np.pi * w)
        pred_se = pred * lam * np.pi * wse
        _rec(out, f"{tag}_miss_weight", w, wse)
        _rec(out, f"{tag}_weight_closed_gap",
             w - analytics.cone_uniform_weight(beta, r), wse)
        _rec(out, f"{tag}_survival_emp", emp, emp_se)
        _rec(out, f"{tag}_survival_pred", pred, pred_se)
        _rec(out, f"{tag}_gap_sigma",
             (emp - pred) / np.sqrt(emp_se**2 + pred_se**2))
        # linear-coefficient probe: weight/r across shrinking r; in the
        # quadratic regime (which includes beta = pi/2, where the weight is
        # exactly pi r^2/4) the ratio keeps falling instead of stabilizing
        for rs in _CONE_SMALL_R:
            ws, wss = analytics.miss_weight_mc(shape, mu, 2, rs, 400_000,
                                               rng.spawn("small", float(beta), rs))
            _rec(out, f"{tag}_weight_over_r_{rs:.2f}", ws / rs, wss / rs)
        # volume scalings: lam^2 is the scale the linear-coefficient reading
        # would stabilize; lam^1 is the scale the quadratic weight implies
        vmc, vse = analytics.radius_moment_volume(2, radii)
        rr = 0.5 * np.sin(beta)
        coef = analytics.cone_uniform_weight(beta, rr) / rr**2
        vcl = -np.expm1(-lam * np.pi * coef) / (lam * coef)
        with np.errstate(over="ignore", invalid="ignore"):
            lam2 = np.float64(lam) ** 2
            _rec(out, f"{tag}_scaled_volume_l2", lam2 * vmc, lam2 * vse)
        _rec(out, f"{tag}_scaled_volume_l1", lam * vmc, lam * vse)
        _rec(out, f"{tag}_volume_closed_l1", lam * vcl)
        _rec(out, f"{tag}_volume_sigma_gap", _sigma_gap(vmc, vcl, vse))
    return out


class _Experiment(NamedTuple):
    block: Callable[[ExperimentConfig, float, RngStream], list[tuple]]
    count: str      # "samples" or "replicates", whichever must be >= 2
    d_range: tuple[int, int] | None  # inclusive bounds on d, or None for any d
    defaults: dict  # overrides of the ExperimentConfig defaults
    # accepted lambdas, open below and closed above: where the records keep
    # their digits and the block's laws are defined
    lam_range: tuple[float, float] = (0.0, np.inf)


_EXPERIMENT_TABLE = {
    # the ball process route solves each exit from a pin radius p, so once
    # 1 - p nears the float spacing at 1 its radii lose their digits:
    # ks_ball_process reads 0.003-0.006 at lambda 1e12 and 1e13, 0.015-0.021
    # at 1e14 and 0.128 at 1e15 (d = 2, 20 000 to 40 000 samples)
    "radius-convergence": _Experiment(_block_radius_convergence, "samples", None, dict(
        d=2, lambda_grid=(10.0, 50.0, 200.0), samples=100_000), lam_range=(0.0, 1e12)),
    "volume-sweep": _Experiment(_block_volume_sweep, "samples", None, dict(
        d=2, lambda_grid=(50.0, 200.0, 1000.0, 10000.0), samples=20_000)),
    # the coupling's shell width eps = log(lambda)^2 / (2 lambda) is positive
    # only for lambda > 1; a replicate draws its bulk only when the bulk can
    # bind, so its work does not grow with lambda, and the bound 1e6 is one
    # of precision: the ball exits lose their digits near the unit sphere
    "coupling": _Experiment(_block_coupling, "replicates", (2, 2), dict(
        d=2, lambda_grid=(1000.0, 3000.0, 10000.0), replicates=200, grid_size=1024),
        lam_range=(1.0, 1e6)),
    "crofton": _Experiment(_block_crofton, "replicates", (2, models._MAX_CELL_DIM), dict(
        d=2, lambda_grid=(2.0,), replicates=8000)),
    "warmup-1d": _Experiment(_block_warmup, "replicates", (1, 1), dict(
        d=1, lambda_grid=(100.0,), replicates=100_000)),
    "meeting-counts": _Experiment(_block_meeting, "replicates", None, dict(
        d=2, lambda_grid=(10000.0,), replicates=2000, eps=1e-3)),
    "cone": _Experiment(_block_cone, "samples", (2, 2), dict(
        d=2, lambda_grid=(5.0,), samples=20_000)),
}

EXPERIMENTS = tuple(_EXPERIMENT_TABLE)


def _run_block(cfg: ExperimentConfig, lam: float) -> tuple[int, list[tuple], float]:
    """Run one block on the stream keyed by (experiment, d, lambda); return
    that stream's id, the metrics and the block's wall time in ms."""
    rng = RngStream(cfg.seed).spawn(cfg.experiment, cfg.d, float(lam))
    t0 = time.perf_counter()
    metrics = _EXPERIMENT_TABLE[cfg.experiment].block(cfg, lam, rng)
    ms = (time.perf_counter() - t0) * 1000.0
    return rng.stream_id, metrics, ms


def _worker_count(n_blocks: int) -> int:
    env = os.environ.get("RANDSET_THREADS", "")
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ConfigError("RANDSET_THREADS must be an integer") from None
        if cap < 1:
            raise ConfigError("RANDSET_THREADS must be >= 1")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_blocks))


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Run all lambda blocks and flatten the metrics into records.

    The seed column holds each block's derived stream id, so any record can
    be regenerated in isolation; the replicate column indexes records
    within their block, making (experiment, lambda, replicate) unique.
    """
    workers = _worker_count(len(cfg.lambda_grid))
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        blocks = list((map if pool is None else pool.map)(
            partial(_run_block, cfg), cfg.lambda_grid))
    records = [ExperimentRecord(cfg.experiment, cfg.d, lam, idx, block_seed,
                                metric, value, se, ms)
               for lam, (block_seed, metrics, ms) in zip(cfg.lambda_grid, blocks)
               for idx, (metric, value, se) in enumerate(metrics)]
    bad = [r for r in records if not np.isfinite(r.value)
           or (r.std_error is not None and not np.isfinite(r.std_error))]
    if bad:
        raise NumericalFailure(
            f"non-finite metric value in {bad[0].metric} at lambda={bad[0].lam:g}")
    return records


def write_records(records: list[ExperimentRecord], path: str, fmt: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if fmt == "csv":
            w = csv.writer(fh)
            w.writerow(CSV_HEADER)
            w.writerows(astuple(r) for r in records)
        else:
            json.dump([dict(zip(CSV_HEADER, astuple(r))) for r in records], fh, indent=2)
            fh.write("\n")


def _check_writable(path: str) -> None:
    """Raise ConfigError unless path can be opened for writing.  The probe
    appends nothing, so an existing file keeps its bytes, and a file it
    created (through a dangling symlink too) is removed again.  FIFOs and
    devices are not probed, since opening them has effects of its own."""
    existed = os.path.exists(path)
    if existed and not (os.path.isfile(path) or os.path.isdir(path)):
        return
    try:
        open(path, "a").close()
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from None
    if not existed:
        os.remove(os.path.realpath(path))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="randset",
        description="Monte Carlo experiments for random intersection sets and "
                    "Poisson tessellation cells.")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="key=value config file")
    for key, opt in _OPTIONS.items():
        parser.add_argument(opt.flag, dest=key, type=opt.parse if opt.noun else None,
                            **opt.flag_kwargs)
    args = parser.parse_args(argv)

    try:
        file_options = parse_config_file(args.config) if args.config else {}
        cli_options = {key: _OPTIONS[key].parse(getattr(args, key))
                       for key in _OPTIONS if getattr(args, key) is not None}
        cfg = build_config(args.experiment, file_options, cli_options)
        _check_writable(cfg.output_path)
        records = run_experiment(cfg)
        try:
            write_records(records, cfg.output_path, cfg.format)
        except OSError as e:
            raise ConfigError(f"cannot write {cfg.output_path}: {e}") from None
    # ConfigError, input checks of the library, and sizes numpy refuses to
    # allocate (an array of 1e13 replicates or directions)
    except (ValueError, MemoryError) as e:
        print(f"randset: config error: {e}", file=sys.stderr)
        return 2
    except (NumericalFailure, models.UnboundedCellError) as e:
        print(f"randset: numerical failure: {e}", file=sys.stderr)
        return 3

    print(f"wrote {len(records)} records to {cfg.output_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
