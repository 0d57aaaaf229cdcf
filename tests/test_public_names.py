"""No dead public names and no dead knobs.

Every public top-level function and class of the library is used somewhere
in the library, or is a reference route that the tests hold the library's
own routes against.  Every parameter with a default on a public function or
method is passed by some call in the library, or is a listed knob with its
reason: a default that no caller overrides is a constant, and the branch
that serves the other values is dead code.
"""
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
    "sample_intersection_model": "the full-pin model the windowed samplers are tested against",
    "shell_containment_indicator": "the shell route the coupling block's windowed "
                                   "containment is checked against; patched by the "
                                   "benchmark tracer",
    "crofton_cell": "one-cell form of `crofton_cells`; exported, read by the geometry tests "
                    "and acceptance 07, patched by the benchmark tracer",
}

# defaulted parameters no call in the library passes, each with why it stays
KNOB_EXEMPTIONS = {
    "intersection_radius(rmax)": "the zero-cell radii at rmax = window that the "
                                 "certificate tests check the vertices against",
    "main(argv)": "the in-process command-line tests",
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


def _public_defs(tree):
    """(name it is called by, its def, whether it is a method) of every
    public function, and of every public method of a public class, whose
    constructor is called by the class name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and sub.name == "__init__":
                    yield node.name, sub, True
                elif isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield sub.name, sub, True


def _callee(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _passed(trees):
    """{callee: (the most positional arguments any call gives before a
    *args, every keyword any call passes)}, over every call in the library
    and every functools.partial, whose bound arguments count as passed."""
    passed = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if _callee(func) == "partial" and args:
                func, args = args[0], args[1:]
            positional = next((i for i, a in enumerate(args) if isinstance(a, ast.Starred)),
                              len(args))
            entry = passed.setdefault(_callee(func), [0, set()])
            entry[0] = max(entry[0], positional)
            entry[1].update(k.arg for k in node.keywords if k.arg is not None)
    return passed


def test_every_knob_is_passed_or_exempt():
    trees = _modules()
    passed = _passed(trees)
    unpassed = set()
    for tree in trees.values():
        for name, node, method in _public_defs(tree):
            a = node.args
            positional = (a.posonlyargs + a.args)[1 if method else 0:]
            most, keywords = passed.get(name, (0, set()))
            defaulted = [(i, p) for i, p in enumerate(positional)
                         if i >= len(positional) - len(a.defaults)]
            defaulted += [(None, p) for p, v in zip(a.kwonlyargs, a.kw_defaults)
                          if v is not None]
            unpassed.update(f"{name}({p.arg})" for i, p in defaulted
                            if p.arg not in keywords and (i is None or i >= most))
    dead = unpassed - set(KNOB_EXEMPTIONS)
    assert not dead, f"defaulted parameters no call in the library passes: {sorted(dead)}"
    # a listed knob that gains a caller, or is deleted, leaves the list
    stale = set(KNOB_EXEMPTIONS) - unpassed
    assert not stale, f"listed knobs that are passed or gone: {sorted(stale)}"
