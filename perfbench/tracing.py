"""Span tracing of randset's modules, installed from the benchmark's side.

The tracer replaces public functions with wrappers in the namespace the
caller looks them up in: `models.axis_cosines` is the name that
`models.sample_axis_radii` calls, `analytics.lune_fraction` the one the
exact sampler's root finder calls, `randset.models.crofton_cell` the one
`expcli` calls as `models.crofton_cell`.  Each call records a span
[name, start_ns, end_ns, parent, attr, error] in memory; the span name
starts with the module that defines the function, which is the layer the
time is charged to.  `attr` holds the work count the metrics need (pins
drawn, elements evaluated, cell dimension).  Leaving the `with` block puts
every original back.  Trace serial runs only: the spans of a pool worker
stay in the worker.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np


def _arg(i, key):
    def get(args, kwargs, result):
        return args[i] if len(args) > i else kwargs[key]
    return get


def _count(args, kwargs, result):
    return result.count


def _axis_radii(args, kwargs, result):
    shape = args[3] if len(args) > 3 else kwargs["shape"]
    n, lam = _arg(4, "n")(args, kwargs, result), _arg(1, "lam")(args, kwargs, result)
    return shape.kind, n, lam


def _crofton(args, kwargs, result):
    return _arg(0, "d")(args, kwargs, result), result.enlargements


def _lune(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["r"]))


# (module, class or None, attribute, span name, attr function)
TARGETS = (
    # the command-line path the benchmark drives
    ("randset.expcli", None, "build_config", "expcli.build_config", None),
    ("randset.expcli", None, "run_experiment", "expcli.run_experiment", None),
    ("randset.expcli", None, "write_records", "expcli.write_records", None),
    ("randset.expcli", None, "direction_grid", "geomcore.direction_grid", None),
    # models, as expcli calls them
    ("randset.models", None, "sample_axis_radii", "models.sample_axis_radii", _axis_radii),
    ("randset.models", None, "sample_intersection_model",
     "models.sample_intersection_model", _count),
    ("randset.models", None, "crofton_cell", "models.crofton_cell", _crofton),
    ("randset.models", None, "segment_crossing_count", "models.segment_crossing_count", None),
    ("randset.models", None, "coupling_transform", "models.coupling_transform", None),
    ("randset.models", None, "shell_containment_indicator",
     "models.shell_containment_indicator", None),
    # ppp, as models calls it
    ("randset.models", None, "axis_cosines", "ppp.axis_cosines", _arg(1, "n")),
    ("randset.models", None, "sample_poisson_count", "ppp.sample_poisson_count", None),
    ("randset.models", None, "uniform_directions", "ppp.uniform_directions", None),
    ("randset.models", None, "sample_ball_uniform", "ppp.sample_ball_uniform", _count),
    ("randset.models", None, "segmented_min", "ppp.segmented_min", None),
    ("randset.models", None, "shell_depth_cdfs", "ppp.shell_depth_cdfs", None),
    # ppp, as analytics, expcli and ppp itself call it
    ("randset.analytics", None, "axis_cosines", "ppp.axis_cosines", _arg(1, "n")),
    ("randset.ppp", None, "sample_shell", "ppp.sample_shell", None),
    ("randset.ppp", None, "sample_poisson_count", "ppp.sample_poisson_count", None),
    ("randset.ppp", "RngStream", "spawn", "ppp.RngStream.spawn", None),
    # analytics, as expcli calls it and as it calls itself
    ("randset.analytics", None, "sample_radius_exact", "analytics.sample_radius_exact",
     _arg(2, "n")),
    ("randset.analytics", None, "invert_increasing", "analytics.invert_increasing", None),
    ("randset.analytics", None, "expected_volume_quadrature",
     "analytics.expected_volume_quadrature", None),
    ("randset.analytics", None, "radius_moment_volume", "analytics.radius_moment_volume", None),
    ("randset.analytics", None, "ks_statistic", "analytics.ks_statistic", None),
    ("randset.analytics", None, "halfspace_uniform_weight",
     "analytics.halfspace_uniform_weight", None),
    ("randset.analytics", None, "crofton_moments", "analytics.crofton_moments", None),
    ("randset.analytics", "RadiusLaw", "transform", "analytics.RadiusLaw.transform", None),
    # geomcore, as analytics calls it
    ("randset.analytics", None, "lune_fraction", "geomcore.lune_fraction", _lune),
)

NAME, START, END, PARENT, ATTR, ERROR = range(6)


class Tracer:
    """Installs the wrappers for the duration of a `with` block.

    `spans` keeps the spans of every traced call since the last `reset()`.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def _wrap(self, fn, name, attr):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if attr is not None:
                span[ATTR] = attr(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        for module, cls, attr, name, get in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, get))
        # the first .gen of a stream builds its Philox generator
        rng_cls = importlib.import_module("randset.ppp").RngStream
        build = self._wrap(rng_cls.gen.fget, "ppp.RngStream.gen", None)
        self._patch(rng_cls, "gen", property(
            lambda s: s._gen if s._gen is not None else build(s), doc=rng_cls.gen.__doc__))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def self_seconds(spans) -> dict[str, float]:
    """Per layer: span time minus the time its child spans cover, in s."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s[NAME].split(".", 1)[0]] += (s[END] - s[START] - child[i]) * 1e-9
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics that one traced iteration's spans give.

    A metric whose layer did no work in the iteration reads 0."""
    by_name = defaultdict(list)  # calls that returned
    children = defaultdict(list)
    errors = defaultdict(int)
    for i, s in enumerate(spans):
        if s[ERROR] is None:
            by_name[s[NAME]].append(i)
            children[s[PARENT]].append(i)
        else:
            errors[s[NAME], s[ERROR]] += 1

    def total_ns(idx):
        return sum(spans[i][END] - spans[i][START] for i in idx)

    def attrs(idx):
        return [spans[i][ATTR] for i in idx]

    selfs = self_seconds(spans)
    out = {f"{layer}.self_s": selfs.get(layer, 0.0)
           for layer in ("expcli", "ppp", "models", "analytics", "geomcore")}

    cosines = by_name["ppp.axis_cosines"]
    out["ppp.axis_cosines.draws"] = sum(attrs(cosines))
    out["ppp.axis_cosines.ns_per_draw"] = _ratio(total_ns(cosines), sum(attrs(cosines)))
    spawns = by_name["ppp.RngStream.spawn"]
    out["ppp.RngStream.spawns"] = len(spawns)
    out["ppp.RngStream.spawn_us"] = _ratio(
        total_ns(spawns) + total_ns(by_name["ppp.RngStream.gen"]), len(spawns)) * 1e-3
    out["ppp.sample_poisson_count.calls"] = len(by_name["ppp.sample_poisson_count"])

    # pins per replicate and per-pin time of the largest-lambda block only,
    # where windowing the pins would act
    radii = by_name["models.sample_axis_radii"]
    top = max((spans[i][ATTR][2] for i in radii), default=None)
    pins = {i: sum(spans[c][ATTR] for c in children[i]
                   if spans[c][NAME] == "ppp.axis_cosines")
            for i in radii if spans[i][ATTR][2] == top}
    for kind, key in (("ball", "ball"), ("half-space", "half_space")):
        mine = [i for i in pins if spans[i][ATTR][0] == kind]
        out[f"models.sample_axis_radii.pins_per_replicate.{key}"] = _ratio(
            sum(pins[i] for i in mine), sum(spans[i][ATTR][1] for i in mine))
    out["models.sample_axis_radii.ns_per_pin"] = _ratio(total_ns(pins), sum(pins.values()))
    out["models.sample_intersection_model.pins"] = sum(
        attrs(by_name["models.sample_intersection_model"]))

    cells = by_name["models.crofton_cell"]
    for d in (2, 3):
        mine = [i for i in cells if spans[i][ATTR][0] == d]
        out[f"models.crofton_cell.ms_per_cell.d{d}"] = _ratio(total_ns(mine), len(mine)) * 1e-6
    out["models.crofton_cell.retries"] = errors["models.crofton_cell", "UnboundedCellError"]
    out["models.crofton_cell.enlargement_frac"] = _ratio(
        sum(1 for i in cells if spans[i][ATTR][1] > 0), len(cells))

    crossings = by_name["models.segment_crossing_count"]
    out["models.segment_crossing_count.calls"] = len(crossings)
    out["models.segment_crossing_count.us_per_call"] = _ratio(
        total_ns(crossings), len(crossings)) * 1e-3
    coupling = by_name["models.coupling_transform"]
    out["models.coupling_transform.ms_per_call"] = _ratio(
        total_ns(coupling), len(coupling)) * 1e-6
    out["models.coupling_transform.bulk_points_per_call"] = _ratio(sum(
        spans[c][ATTR] for i in coupling for c in children[i]
        if spans[c][NAME] == "ppp.sample_ball_uniform"), len(coupling))
    containment = by_name["models.shell_containment_indicator"]
    out["models.shell_containment_indicator.ms_per_call"] = _ratio(
        total_ns(containment), len(containment)) * 1e-6

    exact = by_name["analytics.sample_radius_exact"]
    out["analytics.sample_radius_exact.us_per_draw"] = _ratio(
        total_ns(exact), sum(attrs(exact))) * 1e-3
    roots = by_name["analytics.invert_increasing"]
    out["analytics.invert_increasing.miss_evals_per_call"] = _ratio(
        sum(len(children[i]) for i in roots), len(roots))

    lune = by_name["geomcore.lune_fraction"]
    out["geomcore.lune_fraction.elements"] = sum(attrs(lune))
    out["geomcore.lune_fraction.ns_per_element"] = _ratio(total_ns(lune), sum(attrs(lune)))
    return out


# work counts: for a fixed seed they repeat exactly from run to run
COUNT_METRICS = (
    "ppp.axis_cosines.draws",
    "ppp.RngStream.spawns",
    "ppp.sample_poisson_count.calls",
    "models.sample_axis_radii.pins_per_replicate.ball",
    "models.sample_axis_radii.pins_per_replicate.half_space",
    "models.sample_intersection_model.pins",
    "models.crofton_cell.retries",
    "models.crofton_cell.enlargement_frac",
    "models.segment_crossing_count.calls",
    "models.coupling_transform.bulk_points_per_call",
    "analytics.invert_increasing.miss_evals_per_call",
    "geomcore.lune_fraction.elements",
)
