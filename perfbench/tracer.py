"""Span tracer for the library's public functions, installed from outside.

``Tracer.install`` replaces each traced function in every gpolyvlp module
namespace that binds it (``vlp``, ``cone`` and ``crosscheck`` import
``solve_lp``, ``h_to_v`` and others by name, so patching ``lp.solve_lp``
alone would miss their calls), wraps the traced methods and the lazily
built ``VLPProblem`` properties, and ``uninstall`` puts the originals back.

Each call records a span (name, start, end, parent span, query id) in memory;
``write_spans`` writes them out at the end.  A span's self time is its
duration minus the durations of its child spans, which nest inside it
because the library runs on one thread.  Counts are taken at the same
boundaries.  The time spent inspecting an output is charged to neither the
call nor its caller.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (layer, owner inside the module or None, attribute) of every traced callable.
TRACED = [
    ("exact", None, "rank"),
    ("exact", None, "kernel_basis"),
    ("exact", None, "complement_projector"),
    ("exact", None, "solve_linear"),
    ("exact", None, "rref"),
    ("polyhedron", None, "dd_cone"),
    ("polyhedron", None, "h_to_v"),
    ("polyhedron", None, "v_to_h"),
    ("polyhedron", None, "faces"),
    ("polyhedron", None, "map_polyhedron"),
    ("polyhedron", None, "active_set"),
    ("lp", None, "solve_lp"),
    ("lp", None, "parametric_breakpoints"),
    ("lp", None, "argmin_face"),
    ("cone", None, "decompose"),
    ("cone", "ConeH", "has_nonempty_interior"),
    ("cone", "ConeDecomposition", "ri_dual_contains"),
    ("vlp", None, "is_efficient"),
    ("vlp", None, "is_weakly_efficient"),
    ("vlp", None, "scalarize_witness"),
    ("vlp", None, "weak_witness"),
    ("vlp", None, "connect"),
    ("vlp", None, "efficient_set"),
    ("vlp", None, "weakly_efficient_set"),
    ("vlp", None, "face_scalarizable"),
    ("vlp", "VLPProblem", "feasible_vrep"),
    ("vlp", "VLPProblem", "image_set"),
    ("vlp", "VLPProblem", "decomposition"),
]

# Counts beyond calls and self time: span name -> {metric: (unit, better)}.
EXTRA = {
    "lp.solve_lp": {
        "optimal": ("count", "lower"),
        "unbounded": ("count", "lower"),
        "infeasible": ("count", "lower"),
        "rows_total": ("count", "lower"),
    },
    "lp.parametric_breakpoints": {"breakpoints_total": ("count", "lower")},
    "polyhedron.dd_cone": {
        "rays_out_total": ("count", "lower"),
        "rays_out_max": ("count", "lower"),
    },
    "polyhedron.h_to_v": {"empty": ("count", "lower")},
    "polyhedron.faces": {
        "faces_out": ("count", "lower"),
        "h_to_v_per_face": ("ratio", "lower"),
    },
    "vlp.face_scalarizable": {"pass_ratio": ("ratio", "higher")},
}
# Functions reported by call count only.
CALLS_ONLY = {"cone.ConeDecomposition.ri_dual_contains"}


def span_name(layer: str, owner, attr: str) -> str:
    return ".".join(p for p in (layer, owner, attr) if p)


def per_layer_spec() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer, owner, attr in TRACED:
        name = span_name(layer, owner, attr)
        out.append((name + ".calls", "count", "lower"))
        if name not in CALLS_ONLY:
            out.append((name + ".self_s", "s", "lower"))
        for metric, (unit, better) in EXTRA.get(name, {}).items():
            out.append((f"{name}.{metric}", unit, better))
    out.append(("exact.max_bits", "bits", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "higher"))
    return out


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans = []  # (name, start, end, parent index or -1, query id)
        self.query = None
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.max_bits = 0
        self._stack = []  # [span index, time spent in children]
        self._patched = []  # (object, attribute, original value)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = list(vars(self.lib).values())  # the package and its submodules
        for layer, owner, attr in TRACED:
            name = span_name(layer, owner, attr)
            module = getattr(self.lib, layer)
            if owner is None:
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
                continue
            cls = getattr(module, owner)
            original = cls.__dict__[attr]
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(self._wrap(name, original.func))
                replacement.__set_name__(cls, attr)
            else:
                replacement = self._wrap(name, original)
            self._patch(cls, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, obj, attr, value) -> None:
        self._patched.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.query)
                self.calls[name] += 1
                self.self_s[name] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if observe is not None:
                observe(self, args, out)
            self.max_bits = max(self.max_bits, _max_bits(out))
            if stack:
                # the caller is not charged for inspecting this output either
                stack[-1][1] += perf_counter() - end
            return out

        return traced

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics except the overhead ratio, by name."""
        counts = defaultdict(int, self.counts)
        faces_out = counts["polyhedron.faces.faces_out"]
        if faces_out:
            counts["polyhedron.faces.h_to_v_per_face"] = self._h_to_v_under_faces() / faces_out
        tested = self.calls["vlp.face_scalarizable"]
        if tested:
            counts["vlp.face_scalarizable.pass_ratio"] = (
                counts["vlp.face_scalarizable.passed"] / tested
            )
        counts["exact.max_bits"] = self.max_bits
        out = {}
        for name, _unit, _better in per_layer_spec():
            base, _, metric = name.rpartition(".")
            if metric == "calls":
                out[name] = self.calls[base]
            elif metric == "self_s":
                out[name] = self.self_s[base]
            elif name != "trace.overhead_ratio":
                out[name] = counts[name]
        return out

    def _h_to_v_under_faces(self) -> int:
        inside = 0
        spans = self.spans
        for name, _s, _e, parent, _q in spans:
            if name != "polyhedron.h_to_v":
                continue
            while parent >= 0 and spans[parent][0] != "polyhedron.faces":
                parent = spans[parent][3]
            inside += parent >= 0
        return inside

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, query) in enumerate(self.spans):
                fh.write(json.dumps([index, name, start, end, parent, query]) + "\n")


def _observe_solve_lp(tracer, args, out):
    P = args[0]
    c = tracer.counts
    c["lp.solve_lp." + out.status.value] += 1
    c["lp.solve_lp.rows_total"] += P.eq_lhs.rows + P.ineq_lhs.rows


def _observe_breakpoints(tracer, args, out):
    tracer.counts["lp.parametric_breakpoints.breakpoints_total"] += len(out)


def _observe_dd_cone(tracer, args, out):
    rays = len(out[1])
    c = tracer.counts
    c["polyhedron.dd_cone.rays_out_total"] += rays
    c["polyhedron.dd_cone.rays_out_max"] = max(c["polyhedron.dd_cone.rays_out_max"], rays)


def _observe_h_to_v(tracer, args, out):
    tracer.counts["polyhedron.h_to_v.empty"] += out.is_empty


def _observe_faces(tracer, args, out):
    tracer.counts["polyhedron.faces.faces_out"] += len(out)


def _observe_face_scalarizable(tracer, args, out):
    tracer.counts["vlp.face_scalarizable.passed"] += bool(out)


_OBSERVERS = {
    "lp.solve_lp": _observe_solve_lp,
    "lp.parametric_breakpoints": _observe_breakpoints,
    "polyhedron.dd_cone": _observe_dd_cone,
    "polyhedron.h_to_v": _observe_h_to_v,
    "polyhedron.faces": _observe_faces,
    "vlp.face_scalarizable": _observe_face_scalarizable,
}


def _max_bits(obj) -> int:
    """Largest numerator or denominator bit length anywhere in obj."""
    best = 0
    todo = [obj]
    while todo:
        x = todo.pop()
        if x is None or isinstance(x, (bool, str, float)):
            continue
        if isinstance(x, int):
            best = max(best, x.bit_length())
        elif isinstance(x, (tuple, list)):
            todo.extend(x)
        elif hasattr(x, "denominator"):
            best = max(best, int(x.numerator).bit_length(), int(x.denominator).bit_length())
        elif hasattr(x, "__dataclass_fields__"):
            todo.extend(
                getattr(x, f) for f in x.__dataclass_fields__ if f not in ("problem", "cone")
            )
    return best
