"""Correctness checks on the records of one experiment run.

The tolerances are those of the acceptance suite (tests/test_acceptance.py),
scaled to the benchmark's smaller sample sizes where the suite fixes a
sample size:

- every value and standard error is finite;
- |*_sigma_gap| <= 4, except hit_or_miss_sigma_gap.  At lambda = 200 the
  hit-or-miss probes of a whole volume-sweep block at 3000 samples land in
  the set about 7.5 times in all, in a few replicates, so the replicates'
  standard error is no guide to the estimate's error: 1 of 20 seeds gave
  -6.5.  The suite has no hit-or-miss criterion;
- volume_hit_or_miss against volume_quadrature, pooled over the block's
  probes instead: the estimate is the unit ball's volume times hits over
  probes, with samples // 10 replicates of 2000 probes each (expcli's
  `_hit_or_miss_ball_volume`), so the hit count follows from it.  If the
  quadrature is right the count is Poisson with mean probes times
  quadrature over ball volume; the set's volume varies so little between
  replicates that this holds within 3% in variance (4000 realizations at
  lambda = 200).  The check fails when either Poisson tail of the count
  is below HIT_TAIL_MIN.  With a mean of 7.5 it flags 21 hits or more,
  2.8 times the expected count; a volume too small cannot show at that
  count;
- ks_* < 0.01 * sqrt(1e5 / N): criterion 03 allows KS < 0.01 at N = 1e5,
  and a KS distance shrinks like 1/sqrt(N);
- two_sample_ks_p > 1e-4.  Criterion 03 asks p > 0.01 for its one fixed
  seed; the benchmark draws a new seed per run, and at 0.01 a correct
  program would fail one seed in a hundred.  1e-4 gives about the
  false-alarm rate of the 4-sigma gap above;
- the planar Crofton zero-cell mean within 5% * sqrt(1e4 / N) of
  zero_cell_volume_exact: criterion 07 allows 5% at N = 1e4 cells.  The
  suite checks no d = 3 zero cell, and the heavy tail of its volume gives no
  tolerance that a correct run at benchmark size passes reliably;
- flagged_fraction_mean < 0.01 (criterion 08).
"""
from __future__ import annotations

import math

from scipy import stats

SIGMA_GAP_MAX = 4.0
KS_AT_1E5 = 0.01
TWO_SAMPLE_P_MIN = 1e-4
ZERO_CELL_REL_AT_1E4 = 0.05
FLAGGED_MAX = 0.01
HIT_TAIL_MIN = 5e-5  # each tail; two-sided 1e-4 as for two_sample_ks_p
PROBES_PER_REPLICATE = 2000


def check_records(cfg, records) -> list[tuple[str, bool]]:
    """(check name, passed) for each check that applies to these records.

    cfg is the randset ExperimentConfig that produced the records."""
    out = [(f"{cfg.experiment} finite", all(
        math.isfinite(r.value) and (r.std_error is None or math.isfinite(r.std_error))
        for r in records))]
    by_block: dict[tuple[int, float], dict[str, float]] = {}
    for r in records:
        by_block.setdefault((r.d, r.lam), {})[r.metric] = r.value
        name = f"{cfg.experiment} d={r.d} lambda={r.lam:g} {r.metric}"
        if r.metric.endswith("_sigma_gap") and r.metric != "hit_or_miss_sigma_gap":
            out.append((name, abs(r.value) <= SIGMA_GAP_MAX))
        elif r.metric.startswith("ks_"):
            out.append((name, r.value < KS_AT_1E5 * math.sqrt(1e5 / cfg.samples)))
        elif r.metric == "two_sample_ks_p":
            out.append((name, r.value > TWO_SAMPLE_P_MIN))
        elif r.metric == "flagged_fraction_mean":
            out.append((name, r.value < FLAGGED_MAX))
    for (d, lam), block in by_block.items():
        if "volume_hit_or_miss" in block:
            out.append((f"{cfg.experiment} d={d} lambda={lam:g} volume_hit_or_miss",
                        hit_count_plausible(d, cfg.samples, block)))
        if d == 2 and "zero_cell_volume_mean" in block:
            rel = block["zero_cell_volume_mean"] / block["zero_cell_volume_exact"] - 1.0
            tol = ZERO_CELL_REL_AT_1E4 * math.sqrt(1e4 / cfg.replicates)
            out.append((f"{cfg.experiment} d={d} lambda={lam:g} zero_cell_volume_mean",
                        abs(rel) <= tol))
    return out


def hit_count_plausible(d: int, samples: int, block: dict[str, float]) -> bool:
    """Whether the block's hit-or-miss hit count fits its quadrature volume."""
    probes = max(2, samples // 10) * PROBES_PER_REPLICATE
    ball = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    hits = round(block["volume_hit_or_miss"] / ball * probes)
    mean = block["volume_quadrature"] / ball * probes
    return min(stats.poisson.cdf(hits, mean), stats.poisson.sf(hits - 1, mean)) >= HIT_TAIL_MIN
