"""Exact geometry of balls, caps and lunes, and direction grids.

Closed-form constants, the argument checks every layer shares, and the
direction grids on which a set is held as its radii (the radius functions
live in :mod:`randset.models`). Everything here is deterministic and pure;
random sampling lives in :mod:`randset.ppp`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

UNIT_NORM_TOL = 1e-12


def validate_dimension(d) -> int:
    """Check that d is an integer >= 1 and return it as a plain int."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise ValueError(f"dimension must be an integer >= 1, got {d!r}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return int(d)


def validate_intensity(lam) -> float:
    """Check that a Poisson intensity is finite and >= 0 and return it as a
    float; lam = 0 (the empty process) is valid."""
    if not np.isfinite(lam) or lam < 0:
        raise ValueError(f"intensity must be finite and >= 0, got {lam}")
    return float(lam)


def validate_count(n, name: str, minimum: int = 0) -> int:
    """Check that a count is an integer >= minimum and return it as a plain
    int; bools are not counts."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {n!r}")
    return int(n)


_MAX_BALL_DIM = 341


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in d dimensions.

    Accepts d = 0 and returns 1.0, the convention that makes the
    d = 1 forms of the wedge volume and the asymptotic volume constant
    come out right.  Past d = _MAX_BALL_DIM the gamma function overflows
    and the volume would read 0, so larger d raise.
    """
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 0:
        raise ValueError(f"dimension must be an integer >= 0, got {d!r}")
    if d > _MAX_BALL_DIM:
        raise ValueError(f"the unit ball volume is a positive float64 only for "
                         f"0 <= d <= {_MAX_BALL_DIM}, got d = {d}")
    return float(np.pi ** (d / 2.0) / special.gamma(d / 2.0 + 1.0))


def unit_sphere_area(d: int) -> float:
    """Surface area of the boundary sphere of the unit d-ball (d * omega_d)."""
    d = validate_dimension(d)
    return d * unit_ball_volume(d)


# r^2/4 leaves the normal floats below r = 1.5e-154; lune_fraction takes its
# leading term below this separation, with a relative error of O(r^2)
_LUNE_LEADING_R = 1e-150


def lune_fraction(d: int, r) -> float | np.ndarray:
    """Normalized volume of the lune cut from the unit ball by a shifted copy.

    The lune is the part of the unit ball not covered by the unit ball
    centered at distance r along an axis.  Splitting the two-ball
    intersection into spherical caps and applying the reflection identity
    for the regularized incomplete beta function gives

        lune_fraction(d, r) = I_{r^2/4}(1/2, (d+1)/2),

    which is exact and keeps full relative precision at small r, where
    the naive cap difference cancels catastrophically.  Below r = 1e-150,
    just above where r^2/4 leaves the normal floats, the leading term
    r / B(1/2, (d+1)/2) stands in, so the precision holds down to r = 0;
    its relative error is O(r^2).

    Parameters
    ----------
    d : int
        Dimension, >= 1.
    r : float or array
        Center separation, 0 <= r <= 2.
    """
    d = validate_dimension(d)
    arr = np.asarray(r, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 2.0)):
        raise ValueError("separation r must lie in [0, 2]")
    out = special.betainc(0.5, (d + 1) / 2.0, arr * arr / 4.0)
    # one reduction, cheaper than a mask, on the common path of no tiny r
    if arr.min(initial=np.inf) < _LUNE_LEADING_R:
        out = np.where(arr < _LUNE_LEADING_R, arr / special.beta(0.5, (d + 1) / 2.0), out)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(out)
    return out


def wedge_volume(d: int, r: float) -> float:
    """Volume omega_{d-1} * r of the slab {x in unit ball : 0 < x_1 < r}, linearized.

    This is the first-order stand-in for the absolute lune volume; the
    difference is cubic in r (see tests for the explicit bound).
    """
    d = validate_dimension(d)
    if not 0.0 <= r < np.inf:
        raise ValueError(f"r must be finite and >= 0, got {r}")
    return unit_ball_volume(d - 1) * float(r)


def cap_hyp_distance(delta: float) -> float:
    """Hausdorff gap 1 - cos(delta) between a spherical cap of angular radius
    delta and the flat disk spanning its rim.  Domain (0, pi/2)."""
    if not 0.0 < delta < np.pi / 2.0:
        raise ValueError("delta must lie in (0, pi/2)")
    return 1.0 - float(np.cos(delta))


@dataclass(frozen=True)
class DirectionGrid:
    """A fixed set of unit vectors used for quadrature and sup-norm scans."""

    dim: int
    points: np.ndarray  # shape (n, dim), unit rows

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (n, dim) array")
        norms = np.linalg.norm(pts, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise ValueError("grid rows must be unit vectors")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]


def direction_grid(d: int, n: int) -> DirectionGrid:
    """Deterministic direction grid.

    d = 1 alternates the two endpoints, d = 2 uses equally spaced angles,
    d = 3 uses the golden-angle (Fibonacci) spiral, and d >= 4 falls back
    to normalized Gaussians drawn with seed 0.  Same (d, n) always yields
    the same array.
    """
    d = validate_dimension(d)
    n = validate_count(n, "grid size", 1)
    if d == 1:
        pts = np.where(np.arange(n)[:, None] % 2 == 0, 1.0, -1.0)
        return DirectionGrid(1, pts)
    if d == 2:
        ang = 2.0 * np.pi * np.arange(n) / n
        return DirectionGrid(2, np.column_stack([np.cos(ang), np.sin(ang)]))
    if d == 3:
        i = np.arange(n)
        z = 1.0 - (2.0 * i + 1.0) / n
        rad = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        golden = np.pi * (3.0 - np.sqrt(5.0))
        phi = golden * i
        pts = np.column_stack([rad * np.cos(phi), rad * np.sin(phi), z])
        return DirectionGrid(3, pts)
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((n, d))
    norms = np.linalg.norm(pts, axis=1)
    # resample any degenerate rows; astronomically unlikely but cheap to guard
    while np.any(norms < UNIT_NORM_TOL):
        bad = norms < UNIT_NORM_TOL
        pts[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(pts, axis=1)
    return DirectionGrid(d, pts / norms[:, None])
