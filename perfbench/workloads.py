"""The benchmark's workloads: which experiments each one runs and at what
size.

Each workload runs `randset EXPERIMENT ...` through the same functions the
command line uses.  The intensities select the regime a workload exists to
stress and stay inside the cost gates of `volume-sweep` (hit-or-miss only at
lambda <= 200, process Monte Carlo only at lambda <= 1000), so removing those
gates later leaves the work of every workload unchanged.  `radius` and
`cells` run at one fifth of the sizes first proposed for them, so that an
iteration takes one to two seconds on two cores and a run times several.
`sweep` keeps its proposed 3000 samples: with fewer, so few of the
hit-or-miss replicates (samples // 10) hit the tiny lambda = 200 set that
all of them miss on some seeds (1 in 5 at 600 samples), and the block then
divides by a zero standard error.  This module holds data only; it imports
nothing from randset or numpy.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """runs: (experiment, options) pairs, run in order in one iteration with
    RANDSET_THREADS = 1.  pool_check: after the timed iterations, run them
    once more, untimed, with RANDSET_THREADS = nproc, and require the same
    records."""

    runs: tuple[tuple[str, dict], ...]
    pool_check: bool = False


WORKLOADS = {
    # pin-count bound: lambda = 1000 is mostly axis cosines and axis radii,
    # lambda = 200 is mostly the hit-or-miss probes; two blocks, so the pool
    # pass runs one block per worker
    "sweep": Workload((("volume-sweep",
                        {"lambda_grid": (200.0, 1000.0), "samples": 3000}),),
                      pool_check=True),
    # many small replicates; the exact sampler's root finder over the lune
    "radius": Workload((("radius-convergence",
                         {"lambda_grid": (10.0,), "samples": 40_000}),)),
    # per-call overhead: stream spawns, polygon clips, qhull cells in d = 3,
    # crossing counts and the coupling's grid kernels
    "cells": Workload((
        ("crofton", {"d": 2, "lambda_grid": (2.0,), "replicates": 800}),
        ("crofton", {"d": 3, "lambda_grid": (2.0,), "replicates": 200}),
        ("coupling", {"lambda_grid": (3000.0,), "replicates": 20}),
    )),
}
