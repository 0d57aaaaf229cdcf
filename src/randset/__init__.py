"""randset: Monte Carlo toolkit for random intersection sets and Poisson
tessellation cells."""

from .geomcore import (
    DirectionGrid,
    cap_hyp_distance,
    direction_grid,
    lune_fraction,
    unit_ball_volume,
    unit_sphere_area,
    wedge_volume,
)
from .ppp import (
    ProcessSample,
    RadialMeasure,
    RngStream,
    ShellDepthCdfs,
    coupon_bound,
    coupon_empirical,
    depth_radial_law,
    poisson_log_tail_check,
    poisson_tail_crossover,
    poisson_total_variation,
    radial_law_from_cdf,
    sample_ball_uniform,
    sample_shell,
    shell_depth_cdfs,
    uniform_radial_law,
)
from .models import (
    BALL,
    HALF_SPACE,
    CouplingOutput,
    CroftonCell,
    ModelRealization,
    ShapeKind,
    TessellationCell,
    UnboundedCellError,
    cone,
    count_scale,
    coupling_transform,
    crofton_cell,
    crofton_cells,
    interval_intersection_1d,
    interval_intersection_stats,
    meeting_count_mc,
    sample_axis_radii,
    sample_intersection_model,
    segment_crossing_count,
    shell_containment_indicator,
    sphere_tessellation_cell_2d,
)
from .analytics import (
    CroftonMoments,
    RadiusLaw,
    asymptotic_volume_constant,
    cone_uniform_weight,
    crofton_moments,
    expected_volume_quadrature,
    halfspace_miss_quadrature,
    halfspace_miss_series,
    halfspace_uniform_weight,
    invert_increasing,
    ks_statistic,
    lune_fraction_closed_2d,
    miss_weight_mc,
    radius_moment_volume,
    sample_radius_exact,
)

__version__ = "0.1.0"

# every name imported above, bar the submodules the imports bind
__all__ = sorted(name for name in dict(globals()) if not name.startswith("_")
                 and name not in ("analytics", "geomcore", "models", "ppp"))
