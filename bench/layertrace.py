"""Layer tracing from outside the package.

`Tracer.install` replaces every public module-level function of the package,
and `MetricField.eval`, with a timing wrapper at every place the name is
bound: `surgery` and `causality` hold their own copies of `smooth_unit_step`
from `from .profiles import ...`, so patching `profiles` alone would miss
their calls.  `uninstall` puts the originals back.

Each call becomes a span (name, parent span, start, end) kept in arrays in
memory and written out by `write_spans` at the end.  Aggregates are kept as
the calls happen:

- per group of names (see `GROUPS`): calls, points and seconds, counting only
  calls not nested in another call of the same group, so recursion and
  wrappers that delegate to a sibling are not counted twice;
- per layer (the defining module): self seconds, a span's duration minus
  the part its child spans cover, and entries, calls whose caller is not in
  the same layer.

Self seconds of all layers never sum to more than the traced wall time.
"""
from __future__ import annotations

import functools
import os
import sys
import types
from array import array
from time import perf_counter

import numpy as np

# function -> metric group; every other function is its own group
GROUPS = {
    "fields.MetricField.eval": "fields.eval",
    "eigen.gen_max_eig_batch": "eigen.gen_max_eig",
    "surgery.smooth_majorant": "surgery.majorant",
    "surgery.cone_inequality_report": "surgery.cone_inequality",
    "surgery.splice": "surgery.splice",
    "causality.verify_global_hyperbolicity": "causality.gh_slabs",
    "causality.verify_cone_containment": "causality.cone_containment",
    "causality.causal_diamond_extent": "causality.diamond",
    "causality.check_isometry_report": "causality.window_checks",
    "causality.check_isometry_window": "causality.window_checks",
    "causality.check_ultrastatic_report": "causality.window_checks",
    "causality.check_ultrastatic": "causality.window_checks",
    "causality.verify_convex_bound": "causality.window_checks",
    "runner.export_fields": "runner.export",
    "runner.read_metric_dump": "runner.read_dump",
}


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


# function -> work done by one call, from (args, kwargs, result)
POINTS = {
    "fields.MetricField.eval": lambda a, k, r: np.size(r[0]),
    "eigen.gen_max_eig_batch": lambda a, k, r: np.size(r),
    "profiles.smooth_unit_step": lambda a, k, r: np.size(r),
    "causality.verify_cone_containment": lambda a, k, r: r.n_curves,
    "runner.export_fields": lambda a, k, r: _file_bytes(r),
    "runner.read_metric_dump": lambda a, k, r: _file_bytes([a[0] if a else k["path"]]),
}

# methods wrapped on their class, as (module, class, method)
METHODS = (("fields", "MetricField", "eval"),)


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.origin = perf_counter()
        self.names: list[str] = []
        self._name_group: list[int] = []
        self._name_layer: list[int] = []
        self.groups: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.points: list[int] = []
        self.seconds: list[float] = []
        self._active: list[int] = []
        self.self_seconds: list[float] = []
        self.entries: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, layer id, child seconds]
        self._patches: list[tuple] = []
        self._wrappers: dict = {}

    @staticmethod
    def _index(table: list, name: str, *zeros: list) -> int:
        if name in table:
            return table.index(name)
        table.append(name)
        for column in zeros:
            column.append(0)
        return len(table) - 1

    def wrap(self, fn, name: str):
        """`fn` with every call recorded as a span called `name`."""
        nid = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        self._name_group.append(self._index(
            self.groups, GROUPS.get(name, name), self.calls, self.points, self.seconds,
            self._active))
        self._name_layer.append(self._index(self.layers, layer, self.self_seconds, self.entries))
        measure = POINTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(nid, fn, measure, args, kwargs)

        return traced

    def _call(self, nid, fn, measure, args, kwargs):
        gid = self._name_group[nid]
        lid = self._name_layer[nid]
        stack = self._stack
        parent = stack[-1] if stack else None
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(parent[0] if parent else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, lid, 0.0]
        stack.append(frame)
        outer = self._active[gid] == 0
        self._active[gid] += 1
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self._active[gid] -= 1
            dur = t1 - t0
            self.span_start[idx] = t0 - self.origin
            self.span_end[idx] = t1 - self.origin
            self.self_seconds[lid] += dur - frame[2]
            if parent is None:
                self.entries[lid] += 1
            else:
                parent[2] += dur
                if parent[1] != lid:
                    self.entries[lid] += 1
            if outer:
                self.calls[gid] += 1
                self.seconds[gid] += dur
        if outer and measure is not None:
            self.points[gid] += int(measure(args, kwargs, result))
        return result

    def install(self):
        pkg = self.package
        modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
                   if name == pkg or name.startswith(pkg + ".")}
        wrapped = self._wrappers
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith(pkg + ".")):
                    continue
                if obj not in wrapped:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrapped[obj] = self.wrap(obj, f"{layer}.{obj.__qualname__}")
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])
        for modname, clsname, meth in METHODS:
            cls = getattr(modules[modname], clsname)
            orig = vars(cls)[meth]
            if orig not in wrapped:
                wrapped[orig] = self.wrap(orig, f"{modname}.{clsname}.{meth}")
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, wrapped[orig])

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def summary(self) -> dict:
        return {
            "groups": {g: {"calls": self.calls[i], "points": self.points[i], "s": self.seconds[i]}
                       for i, g in enumerate(self.groups)},
            "layers": {lay: {"self_s": self.self_seconds[i], "entries": self.entries[i]}
                       for i, lay in enumerate(self.layers)},
            "spans": len(self.span_start),
        }

    def write_spans(self, path: str):
        """One CSV row per span: index, parent index (-1 for none), name,
        start and end in seconds since the tracer was made."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.span_parent[i]},{names[self.span_name[i]]},"
                         f"{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n")
