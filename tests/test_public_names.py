"""No dead public names: every public top-level function and class of the
library is used somewhere in the library, or is a reference route that the
tests hold the library's own routes against."""
import ast
from pathlib import Path

import randset

SOURCE = Path(randset.__file__).resolve().parent

# public names with no caller in the library, each with why it stays
REFERENCE_ROUTES = {
    "halfspace_miss_series": "series route of the half-space miss weight",
    "halfspace_miss_quadrature": "quadrature route the series is checked against",
    "lune_fraction_closed_2d": "planar closed form checked against lune_fraction",
    "cap_hyp_distance": "acceptance lemma: the gap between a cap and its flat disk",
    "wedge_volume": "acceptance lemma: the linearized lune volume and its cubic gap",
    "interval_intersection_1d": "one-replicate route of interval_intersection_stats",
    "coupon_empirical": "Monte Carlo route checked against coupon_bound",
    "poisson_total_variation": "Poisson shift distance summed from the pmfs",
    "poisson_tail_crossover": "route to the same distance through its sign change",
    "radial_law_from_cdf": "a bisection-inverted law to test custom laws with",
    "sample_intersection_model": "the full-pin model the windowed samplers are tested against",
    "shell_containment_indicator": "the shell route the coupling block's windowed "
                                   "containment is checked against; patched by the "
                                   "benchmark tracer",
    "crofton_cell": "one-cell form of `crofton_cells`; exported, read by the geometry tests "
                    "and acceptance 07, patched by the benchmark tracer",
}


def _modules():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"}


def test_every_public_name_is_used_or_a_reference_route():
    trees = _modules()
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {node.name for tree in trees.values() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used}
    dead = unused - set(REFERENCE_ROUTES)
    assert not dead, f"public names with no caller in the library: {sorted(dead)}"
    # a listed name that gains a caller, or is deleted, leaves the list
    stale = set(REFERENCE_ROUTES) - unused
    assert not stale, f"listed reference routes that are called or gone: {sorted(stale)}"
