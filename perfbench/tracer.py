"""Per-layer tracing of ``toricgit`` from outside the package.

``Tracer.install()`` wraps the public functions and methods of every package
module and rebinds each module attribute that holds one of them, so that
``dd.rank`` (imported from ``linalg``) or ``cli.build_bundle`` (imported from
``degeneration``) are traced too.  Each wrapper records calls, inclusive wall
time of outermost calls, and self time: its duration minus the time spent in
wrapped callees, taken from a stack of child-time accumulators.  Time in an
unwrapped helper counts as self time of the wrapped function that called it.

Per-element helpers are left unwrapped, because a wrapper costs about as much
as one of their calls.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
from math import factorial
from time import perf_counter

LAYERS = ("linalg", "dd", "cones", "polyhedra", "git", "degeneration",
          "stabilizers", "stab_backends", "groups", "jsonio", "cli")

# Per-element helpers: cheap calls made once per vector entry, permutation or
# coordinate.
SKIP = {
    "linalg": {"frac", "vec", "vadd", "vsub", "vscale", "is_zero_vec", "primitive",
               "clear_denominators", "scaled_primitive", "Matrix.row", "Matrix.column"},
    "groups": {"compose", "inverse", "identity", "cycles"},
    "stab_backends": {"unit_matches", "ratio_is_one", "trivial_angle", "is_member"},
    "stabilizers": {"unit", "root_of_unity", "UnitValue.is_zero", "UnitValue.padded",
                    "PointRecord.sort_key"},
    "jsonio": {"rational_str", "parse_rational"},
}

# Dunder methods that carry work worth attributing to their layer.
DUNDERS = {"__init__", "__matmul__"}


class Stat:
    __slots__ = ("calls", "self_s", "wall_s", "depth", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.wall_s = 0.0
        self.depth = 0
        self.counts: dict[str, float] = {}

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def _count_cone_from_inequalities(st, args, kwargs, result, dt):
    st.add("constraints_in", len(args[0]))
    st.add("rays_out", len(result[1]))


def _count_extreme_generators(st, args, kwargs, result, dt):
    st.add("candidates_in", len(args[0]))
    st.add("extreme_out", len(result))


def _count_canonicalize(st, args, kwargs, result, dt):
    st.add("points_in", len(args[0].vertex_candidates))
    st.add("vertices_out", len(result.vertex_candidates))


def _count_verify(st, args, kwargs, result, dt):
    st.add(f"{result.check}.wall_s", dt)


def _count_sym_stabilizers(st, args, kwargs, result, dt):
    st.add("stab_elems", len(result.stab))
    st.add("stab0_elems", len(result.stab0))
    st.add("cosets", len(result.stab) // len(result.stab0))


def _count_search_stabilizer(st, args, kwargs, result, dt):
    st.add("space", factorial(args[0].n))
    st.add("found", len(result))


def _count_invariant_factors(st, args, kwargs, result, dt):
    st.add("elements_in", len(args[0]))


def _count_dumps(st, args, kwargs, result, dt):
    st.add("bytes_out", len(result.encode()))


# Work counters recorded after the clock stops, keyed by wrapped name.
COUNTERS = {
    "dd.cone_from_inequalities": _count_cone_from_inequalities,
    "dd.extreme_generators": _count_extreme_generators,
    "polyhedra.LatticePolyhedron.canonicalize": _count_canonicalize,
    "degeneration.verify": _count_verify,
    "stabilizers.sym_stabilizers": _count_sym_stabilizers,
    "stab_backends.search_stabilizer": _count_search_stabilizer,
    "groups.abelian_invariant_factors_of_group": _count_invariant_factors,
    "jsonio.dumps": _count_dumps,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []   # child time of each open wrapped call

    def wrap(self, name: str, fn):
        st = self.stats.setdefault(name, Stat())
        stack = self._stack
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            st.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st.depth -= 1
                child = stack.pop()
                st.calls += 1
                st.self_s += dt - child
                if st.depth == 0:
                    st.wall_s += dt
                if stack:
                    stack[-1] += dt
            if counter is not None:
                counter(st, args, kwargs, result, dt)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function and method of the package modules."""
        modules = {layer: importlib.import_module(f"toricgit.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            skip = SKIP.get(layer, set())
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_") and attr not in skip:
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj, skip)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, layer: str, cls, skip) -> None:
        generated_init = dataclasses.is_dataclass(cls)
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if attr == "__init__" and generated_init:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if f"{cls.__name__}.{attr}" in skip:
                continue
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))

    def snapshot(self) -> dict:
        """Plain-data stats: name -> {calls, self_s, wall_s, <counters>}."""
        return {name: {"calls": st.calls, "self_s": st.self_s, "wall_s": st.wall_s,
                       **st.counts}
                for name, st in self.stats.items() if st.calls}


# Reported per-layer metrics: metric name -> (wrapped name, stat), or
# (layer, None) for the layer's total self time.  ``degeneration.verify``
# stats per check are ``<check>.wall_s`` counters.
VERIFY_CHECKS = ("conical_part", "pb_vertices", "quotient_theorem", "normal_fan",
                 "unstable_locus", "base_recovery", "fan_smooth_small")


def _fn(metric_prefix, wrapped, stats):
    return {f"{metric_prefix}.{s}": (wrapped, s) for s in stats}


METRICS: dict[str, tuple[str, str | None]] = {
    **_fn("linalg.rank", "linalg.rank", ("calls", "self_s")),
    **_fn("linalg.matmul", "linalg.Matrix.__matmul__", ("calls", "self_s")),
    **_fn("linalg.dot", "linalg.dot", ("calls", "self_s")),
    **_fn("dd.cone_from_inequalities", "dd.cone_from_inequalities",
          ("calls", "self_s", "constraints_in", "rays_out")),
    **_fn("dd.extreme_generators", "dd.extreme_generators",
          ("calls", "self_s", "candidates_in", "extreme_out")),
    **_fn("cones.Cone.canonical_form", "cones.Cone.canonical_form", ("calls", "self_s")),
    **_fn("cones.Cone.dual", "cones.Cone.dual", ("calls", "self_s")),
    **_fn("cones.image_cone", "cones.image_cone", ("self_s",)),
    **_fn("polyhedra.LatticePolyhedron.canonicalize",
          "polyhedra.LatticePolyhedron.canonicalize",
          ("calls", "self_s", "points_in", "vertices_out")),
    **_fn("polyhedra.affine_slice", "polyhedra.affine_slice", ("calls", "self_s")),
    **_fn("polyhedra.normal_fan", "polyhedra.normal_fan", ("self_s",)),
    **_fn("polyhedra.Fan.init", "polyhedra.Fan.__init__", ("self_s",)),
    **_fn("git.support_constants", "git.support_constants", ("calls", "self_s")),
    **_fn("git.unstable_rays", "git.unstable_rays", ("self_s",)),
    **_fn("git.quotient_slice", "git.quotient_slice", ("calls", "self_s")),
    **_fn("git.quotient_polyhedron", "git.quotient_polyhedron", ("self_s",)),
    **_fn("degeneration.build_bundle", "degeneration.build_bundle", ("calls", "wall_s")),
    **_fn("degeneration.build_symmetric", "degeneration.build_symmetric",
          ("calls", "wall_s")),
    **_fn("degeneration.permutation_matrices", "degeneration.permutation_matrices",
          ("wall_s",)),
    **{f"degeneration.verify.{c}.wall_s": ("degeneration.verify", f"{c}.wall_s")
       for c in VERIFY_CHECKS},
    **_fn("stabilizers.torus_stabilizer", "stabilizers.torus_stabilizer", ("self_s",)),
    **_fn("stabilizers.project_to_quotient", "stabilizers.project_to_quotient",
          ("self_s",)),
    **_fn("stabilizers.sym_stabilizers", "stabilizers.sym_stabilizers",
          ("calls", "self_s", "stab_elems", "stab0_elems", "cosets")),
    **_fn("stab_backends.search_stabilizer", "stab_backends.search_stabilizer",
          ("calls", "self_s", "space", "found")),
    **_fn("groups.abelian_invariant_factors_of_group",
          "groups.abelian_invariant_factors_of_group", ("calls", "self_s", "elements_in")),
    **_fn("groups.young_subgroup_of", "groups.young_subgroup_of", ("self_s",)),
    **_fn("groups.cycle_notation", "groups.cycle_notation", ("calls", "self_s")),
    **_fn("jsonio.dumps", "jsonio.dumps", ("calls", "self_s", "bytes_out")),
    **_fn("jsonio.polyhedron_to_json", "jsonio.polyhedron_to_json", ("self_s",)),
    **_fn("jsonio.cone_to_json", "jsonio.cone_to_json", ("self_s",)),
    **{f"{layer}.self_s": (layer, None) for layer in LAYERS
       if layer not in ("stab_backends",)},
}

# Ratios of two counters of one wrapped function: metric -> (wrapped, num, den).
RATIOS = {
    "dd.extreme_generators.yield": ("dd.extreme_generators", "extreme_out", "candidates_in"),
    "stab_backends.search_stabilizer.hit_ratio": ("stab_backends.search_stabilizer",
                                                  "found", "space"),
}


def layer_metrics(snapshot: dict) -> dict[str, float]:
    """The reported per-layer metrics of one traced pass."""
    out = {}
    for metric, (key, stat) in METRICS.items():
        if stat is None:
            out[metric] = sum(s["self_s"] for name, s in snapshot.items()
                              if name.split(".", 1)[0] == key)
        else:
            out[metric] = snapshot.get(key, {}).get(stat, 0)
    for metric, (key, num, den) in RATIOS.items():
        s = snapshot.get(key, {})
        out[metric] = s[num] / s[den] if s.get(den) else 0.0
    return out
