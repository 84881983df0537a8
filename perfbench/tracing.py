"""Per-layer tracing from outside the program.

The tracer wraps public functions of valperm's layers.  Package modules
import these functions by name (``fans`` calls its own binding of
``cone_solve``), so every binding of each function object in every loaded
``valperm`` module is replaced, not only the one in the defining module.

* Spanned functions (``rref`` granularity and above) record one span per
  call: name, start, end, parent span and item id (the flag index, or the
  stage on fan4).  Spans stay in memory until the run ends.
* Counted functions (``dot``, ``combine_ray``, ``vec_gcd_reduce``,
  ``scale_to_int``, ``permutohedron_vertices``) run millions of times and
  only get a call count: their time stays in the calling span's self time.

A span's self time is its duration minus the time its child spans cover.
"""

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

COUNTED = (
    "kernels.dot",
    "kernels.combine_ray",
    "kernels.vec_gcd_reduce",
    "linalg.scale_to_int",
    "permutahedra.permutohedron_vertices",
)

SPANNED = (
    "kernels.rref",
    "kernels.rank",
    "kernels.nullspace",
    "linalg.orthogonalize",
    "linalg.project_off",
    "polyhedra.cone_solve",
    "polyhedra.double_description",
    "polyhedra.lower_cells",
    "polyhedra.hull_edges",
    "permutahedra.bruhat_leq",
    "permutahedra.enumerate_two_faces",
    "valuated.tropicalize_matrix",
    "valuated.check_incidence",
    "valuated.check_plucker",
    "subdivisions.subdivide",
    "subdivisions.is_generalized_permutahedron",
    "subdivisions.is_bruhat_interval_polytope",
    "subdivisions.check_two_skeleton",
    "subdivisions.check_positive_flag",
    "subdivisions.decompose_height",
    "subdivisions.compress_on_vertices",
    "subdivisions.lift_to_grassmannian",
    "fans.enumerate_fan",
    "fans.refinement_census",
    "fans.symmetry_orbits",
    "fans.link_homology",
    "fans.pattern_signature",
    "jsonio.dumps",
)

# Every per-layer metric, in report order: (name, unit, better).
METRICS = (
    ("kernels.rref.calls", "count", "lower"),
    ("kernels.rref.s", "s", "lower"),
    ("kernels.rank.calls", "count", "lower"),
    ("kernels.rank.s", "s", "lower"),
    ("kernels.nullspace.calls", "count", "lower"),
    ("kernels.nullspace.s", "s", "lower"),
    ("kernels.dot.calls", "count", "lower"),
    ("kernels.combine_ray.calls", "count", "lower"),
    ("kernels.vec_gcd_reduce.calls", "count", "lower"),
    ("linalg.scale_to_int.calls", "count", "lower"),
    ("linalg.orthogonalize.s", "s", "lower"),
    ("linalg.project_off.calls", "count", "lower"),
    ("linalg.project_off.s", "s", "lower"),
    ("polyhedra.cone_solve.calls", "count", "lower"),
    ("polyhedra.cone_solve.s", "s", "lower"),
    ("polyhedra.cone_solve.self_s", "s", "lower"),
    ("polyhedra.cone_solve.empty", "count", "lower"),
    ("polyhedra.double_description.calls", "count", "lower"),
    ("polyhedra.double_description.s", "s", "lower"),
    ("polyhedra.double_description.self_s", "s", "lower"),
    ("polyhedra.double_description.rows_in", "count", "lower"),
    ("polyhedra.double_description.rays_out", "count", "lower"),
    ("polyhedra.lower_cells.calls", "count", "lower"),
    ("polyhedra.lower_cells.s", "s", "lower"),
    ("polyhedra.hull_edges.calls", "count", "lower"),
    ("polyhedra.hull_edges.s", "s", "lower"),
    ("permutahedra.bruhat_leq.calls", "count", "lower"),
    ("permutahedra.bruhat_leq.s", "s", "lower"),
    ("permutahedra.enumerate_two_faces.calls", "count", "lower"),
    ("permutahedra.enumerate_two_faces.s", "s", "lower"),
    ("permutahedra.permutohedron_vertices.calls", "count", "lower"),
    ("valuated.tropicalize_matrix.s", "s", "lower"),
    ("valuated.check_incidence.calls", "count", "lower"),
    ("valuated.check_incidence.s", "s", "lower"),
    ("valuated.check_plucker.calls", "count", "lower"),
    ("valuated.check_plucker.s", "s", "lower"),
    ("subdivisions.subdivide.calls", "count", "lower"),
    ("subdivisions.subdivide.s", "s", "lower"),
    ("subdivisions.subdivide.self_s", "s", "lower"),
    ("subdivisions.is_generalized_permutahedron.s", "s", "lower"),
    ("subdivisions.is_bruhat_interval_polytope.s", "s", "lower"),
    ("subdivisions.check_two_skeleton.calls", "count", "lower"),
    ("subdivisions.check_two_skeleton.s", "s", "lower"),
    ("subdivisions.check_positive_flag.s", "s", "lower"),
    ("subdivisions.decompose_height.s", "s", "lower"),
    ("subdivisions.compress_on_vertices.s", "s", "lower"),
    ("subdivisions.lift_to_grassmannian.s", "s", "lower"),
    ("fans.enumerate_fan.s", "s", "lower"),
    ("fans.enumerate_fan.self_s", "s", "lower"),
    ("fans.sweep.systems", "count", "lower"),
    ("fans.sweep.nonempty_ratio", "ratio", "higher"),
    ("fans.sweep.distinct", "count", "lower"),
    ("fans.refinement_census.s", "s", "lower"),
    ("fans.refinement_census.subdivide_calls", "count", "lower"),
    ("fans.symmetry_orbits.s", "s", "lower"),
    ("fans.link_homology.s", "s", "lower"),
    ("fans.pattern_signature.s", "s", "lower"),
    ("jsonio.dumps.s", "s", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
)

# Metric prefixes each workload never reaches; every other metric must read
# nonzero on it, except those in MAY_BE_ZERO, whose value depends on the data.
BYPASSED = {
    "fan4": (
        "valuated.",
        "subdivisions.check_positive_flag.",
        "subdivisions.decompose_height.",
        "subdivisions.compress_on_vertices.",
        "subdivisions.lift_to_grassmannian.",
    ),
    "flags4": ("fans.", "jsonio."),
}
MAY_BE_ZERO = ("polyhedra.cone_solve.empty",)


def _observe_cone_solve(args, cone):
    return (bool(cone.rays), hash(cone.key))


def _observe_double_description(args, rays):
    return (len(args[0]), len(rays))


OBSERVERS = {
    "polyhedra.cone_solve": _observe_cone_solve,
    "polyhedra.double_description": _observe_double_description,
}


class Tracer:
    """Wraps the traced functions while installed; holds spans and counts.

    A span is ``[name, start, end, parent index or -1, item, observed]``.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.item = None
        self._stack = []
        self._patched = []

    def install(self):
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "valperm"]
        for name in SPANNED + COUNTED:
            layer, attr = name.split(".")
            original = getattr(importlib.import_module(f"valperm.{layer}"), attr)
            if name in COUNTED:
                wrapper = self._counting(name, original)
            else:
                wrapper = self._spanning(name, original, OBSERVERS.get(name))
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
                        self._patched.append((module, binding, original))

    def uninstall(self):
        for module, binding, original in reversed(self._patched):
            setattr(module, binding, original)
        self._patched.clear()

    def _counting(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                span[5] = observe(args, result)
            return result

        return wrapper


def layer_metrics(tracer):
    """Per-layer metric values (without ``trace_overhead_ratio``)."""
    spans = tracer.spans
    calls = Counter(tracer.counts)
    total = Counter()
    self_time = Counter()
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for k, (name, start, end, _, _, _) in enumerate(spans):
        calls[name] += 1
        self_time[name] += end - start - child_time[k]
        total[name] += end - start  # no traced function calls itself

    def parent_name(span):
        return spans[span[3]][0] if span[3] >= 0 else None

    def under(span, ancestor):
        p = span[3]
        while p >= 0:
            if spans[p][0] == ancestor:
                return True
            p = spans[p][3]
        return False

    solves = [s for s in spans if s[0] == "polyhedra.cone_solve"]
    sweep = [s for s in solves if parent_name(s) == "fans.enumerate_fan"]
    nonempty = [s for s in sweep if s[5][0]]
    described = [s[5] for s in spans if s[0] == "polyhedra.double_description"]
    special = {
        "polyhedra.cone_solve.empty": sum(1 for s in solves if not s[5][0]),
        "polyhedra.double_description.rows_in": sum(rows for rows, _ in described),
        "polyhedra.double_description.rays_out": sum(rays for _, rays in described),
        "fans.sweep.systems": len(sweep),
        "fans.sweep.nonempty_ratio": len(nonempty) / len(sweep) if sweep else 0.0,
        "fans.sweep.distinct": len({s[5][1] for s in nonempty}),
        "fans.refinement_census.subdivide_calls": sum(
            1 for s in spans if s[0] == "subdivisions.subdivide" and under(s, "fans.refinement_census")
        ),
    }
    out = {}
    for metric, _, _ in METRICS:
        if metric in special:
            out[metric] = special[metric]
        elif metric.endswith(".calls"):
            out[metric] = calls[metric[: -len(".calls")]]
        elif metric.endswith(".self_s"):
            out[metric] = self_time[metric[: -len(".self_s")]]
        elif metric.endswith(".s"):
            out[metric] = total[metric[: -len(".s")]]
    return out


def unexpected_zeros(workload, metrics):
    """Metrics that must be nonzero on this workload but read zero."""
    return [
        name
        for name, value in metrics.items()
        if value == 0
        and name not in MAY_BE_ZERO
        and not name.startswith(BYPASSED[workload])
    ]


def write_spans(tracer, path):
    """Write the spans as compact JSON: a name table and one row per span."""
    names = sorted({s[0] for s in tracer.spans})
    index = {n: k for k, n in enumerate(names)}
    rows = [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]] for s in tracer.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "item"], "names": names,
                   "spans": rows, "counts": dict(tracer.counts)}, fh, separators=(",", ":"))
