"""Per-layer tracing for the benchmark, installed from outside the package.

`Tracer.install()` wraps the public functions and public methods of every
ineqlab module and patches each wrapper into every ``ineqlab.*`` namespace
that bound the original by name (and into module-level dicts such as
``cli.COMMANDS``), so calls between modules are seen too.  The layers are
the modules; ``svgplot`` is counted with ``cli`` and ``fixtures`` holds
data only.  ``uninstall()`` restores every original object.

Spans nest by caller and stay in memory (flat arrays) until `save`.  A
layer's self time is the sum over its spans of the span's duration minus
the durations of its direct child spans.  Counters are computed from call
arguments and results after the span's clock has stopped; the time spent
computing them is charged to no layer, so it shows only as tracing
overhead in the round time.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "grid", "families", "norms", "transport", "levelgeom",
    "inequalities", "traces", "scaling", "cli",
)
MODULE_LAYER = {name: name for name in LAYERS}
MODULE_LAYER["svgplot"] = "cli"

# counters, with their units, reported even where a workload never
# touches them; plan_entries is turned into the plan_fill ratio by run.py
COUNTERS = {
    "transport.exact_solves": "count", "transport.lp_columns": "count",
    "transport.plan_entries": "count", "transport.exact_s": "s", "transport.sinkhorn_s": "s",
    "transport.circle_s": "s", "transport.circle_kinks": "count", "transport.max_rel_gap": "ratio",
    "levelgeom.coarea_s": "s", "levelgeom.coarea_levels": "count",
    "levelgeom.packing_s": "s", "levelgeom.packing_cells": "count",
    "levelgeom.packing_centers": "count", "levelgeom.potential_s": "s",
    "levelgeom.kernel_builds": "count",
    "norms.tv_calls": "count", "norms.spectral_calls": "count", "norms.cells": "count",
    "families.cells": "count", "inequalities.checks": "count", "traces.levels_traced": "count",
    "cli.csv_bytes": "B", "grid.functions_built": "count", "grid.cells_copied": "count",
}


def _positive_support(x):
    """Number of cells carrying mass, for a GridFunction or DiscreteMeasure."""
    arr = x.masses if hasattr(x, "masses") else x.values
    return int(np.count_nonzero(arr > 0))


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_w2(c, fn, args, kwargs, out, dur):
    a = _bind(fn, args, kwargs)
    m, n = _positive_support(a["u"]), _positive_support(a["v"])
    if m == 0 or n == 0:
        return
    if a["method"] == "exact":
        c["transport.exact_solves"] += 1
        c["transport.lp_columns"] += m * n
        c["transport.plan_entries"] += len(out.plan.entries)
        c["transport.exact_s"] += dur
    else:
        c["transport.sinkhorn_s"] += dur
    if out.value > 0:
        c["transport.max_rel_gap"] = max(c["transport.max_rel_gap"], out.gap / out.value)


def _count_circle(c, fn, args, kwargs, out, dur):
    a = _bind(fn, args, kwargs)
    c["transport.circle_s"] += dur
    c["transport.circle_kinks"] += 3 * _positive_support(a["u"]) * _positive_support(a["v"])


def _count_coarea(c, fn, args, kwargs, out, dur):
    levels = np.unique(np.abs(args[0].values))
    c["levelgeom.coarea_s"] += dur
    c["levelgeom.coarea_levels"] += int(np.count_nonzero(levels > 0))


def _count_packing(c, fn, args, kwargs, out, dur):
    mask = args[0].values if hasattr(args[0], "values") else np.asarray(args[0])
    c["levelgeom.packing_s"] += dur
    c["levelgeom.packing_cells"] += int(np.count_nonzero(mask))
    c["levelgeom.packing_centers"] += out.count


def _count_potential(c, fn, args, kwargs, out, dur):
    c["levelgeom.potential_s"] += dur


def _count_kernel(c, fn, args, kwargs, out, dur):
    c["levelgeom.kernel_builds"] += 1


def _count_norm_cells(c, fn, args, kwargs, out, dur):
    if args and hasattr(args[0], "spec"):
        c["norms.cells"] += args[0].spec.size


def _count_tv(c, fn, args, kwargs, out, dur):
    c["norms.tv_calls"] += 1
    _count_norm_cells(c, fn, args, kwargs, out, dur)


def _count_spectral(c, fn, args, kwargs, out, dur):
    c["norms.spectral_calls"] += 1
    _count_norm_cells(c, fn, args, kwargs, out, dur)


def _count_generate(c, fn, args, kwargs, out, dur):
    c["families.cells"] += out.spec.size


def _count_check(c, fn, args, kwargs, out, dur):
    c["inequalities.checks"] += 1


def _count_trace_levels(c, fn, args, kwargs, out, dur):
    levels = {s.step.split("@", 1)[1].split(",")[0] for s in out.steps if "@" in s.step}
    c["traces.levels_traced"] += len(levels)


def _count_csv(c, fn, args, kwargs, out, dur):
    path = args[0] if args else kwargs["path"]
    c["cli.csv_bytes"] += os.path.getsize(path)


def _count_gridfunction(c, fn, args, kwargs, out, dur):
    c["grid.functions_built"] += 1
    c["grid.cells_copied"] += args[0].spec.size


SPECIAL_COUNTERS = {
    "transport.w2_squared": _count_w2,
    "transport.w2_circle_1d": _count_circle,
    "levelgeom.coarea_check": _count_coarea,
    "levelgeom.maximal_packing": _count_packing,
    "levelgeom.capacity_potential": _count_potential,
    "levelgeom.indicator_potential": _count_potential,
    "levelgeom.make_kernel": _count_kernel,
    "norms.tv_norm": _count_tv,
    "norms.spectral_norm": _count_spectral,
    "families.generate": _count_generate,
    "inequalities.check": _count_check,
    "traces.layer_cake_trace": _count_trace_levels,
    "traces.prop2_trace": _count_trace_levels,
    "traces.prop3_trace": _count_trace_levels,
    "traces.prop5_trace": _count_trace_levels,
    "cli.write_csv": _count_csv,
    "grid.GridFunction.__post_init__": _count_gridfunction,
}


def rebind(replacements):
    """Point every ineqlab namespace that bound a function in `replacements`
    (module attributes and module-level dict values) at its replacement.
    Returns the patch list that `restore` undoes."""
    patches = []
    for modname, mod in list(sys.modules.items()):
        if modname != "ineqlab" and not modname.startswith("ineqlab."):
            continue
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in replacements:
                setattr(mod, attr, replacements[obj])
                patches.append((mod, attr, obj, False))
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if isinstance(val, types.FunctionType) and val in replacements:
                        obj[key] = replacements[val]
                        patches.append((obj, key, val, True))
    return patches


def restore(patches):
    for target, key, original, mapping in reversed(patches):
        if mapping:
            target[key] = original
        else:
            setattr(target, key, original)


def _counter_for(layer, qualname):
    if qualname in SPECIAL_COUNTERS:
        return SPECIAL_COUNTERS[qualname]
    if layer == "norms" and qualname != "norms.norm_report":
        return _count_norm_cells
    return None


class Tracer:
    """Span recorder and namespace patcher for the ineqlab modules."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        self._layer_of_name = []
        self.parent = array("q")
        self.name = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.child = array("d")
        self.counts = defaultdict(float)
        self._stack = []  # [span id, accumulated child time]
        self._patches = []  # (target, key, original, is_mapping), undone by restore

    # ------------------------------------------------------------ spans

    def _name_id(self, name, layer):
        idx = self._name_index.get(name)
        if idx is None:
            idx = len(self.names)
            self._name_index[name] = idx
            self.names.append(name)
            self._layer_of_name.append(layer)
        return idx

    def _wrap(self, layer, qualname, fn):
        name_id = self._name_id(qualname, layer)
        counter = _counter_for(layer, qualname)
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            frame = [len(tracer.t0), 0.0]
            parent = stack[-1][0] if stack else -1
            tracer.parent.append(parent)
            tracer.name.append(name_id)
            tracer.t0.append(0.0)
            tracer.t1.append(0.0)
            tracer.child.append(0.0)
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                sid = frame[0]
                tracer.t0[sid] = t0
                tracer.t1[sid] = t1
                tracer.child[sid] = frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if counter is not None:
                counter(tracer.counts, fn, args, kwargs, out, t1 - t0)
                if stack:
                    stack[-1][1] += perf_counter() - t1
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__doc__ = fn.__doc__
        return traced

    # --------------------------------------------------------- patching

    def install(self):
        """Wrap every public function and method of the ineqlab modules."""
        wrappers = {}
        for modname, layer in MODULE_LAYER.items():
            mod = importlib.import_module(f"ineqlab.{modname}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrappers[obj] = self._wrap(layer, f"{modname}.{attr}", obj)
                elif isinstance(obj, type):
                    for mname, meth in list(vars(obj).items()):
                        public = not mname.startswith("_")
                        if isinstance(meth, types.FunctionType) and (
                            public or (modname, attr, mname) == ("grid", "GridFunction", "__post_init__")
                        ):
                            setattr(obj, mname, self._wrap(layer, f"{modname}.{attr}.{mname}", meth))
                            self._patches.append((obj, mname, meth, False))
        self._patches += rebind(wrappers)

    def uninstall(self):
        restore(self._patches)
        self._patches.clear()

    # ---------------------------------------------------------- results

    def span_count(self):
        return len(self.t0)

    def layer_totals(self, start=0):
        """{layer: (self seconds, calls)} over the spans from `start` on."""
        names = np.asarray(self.name[start:], dtype=np.int64)
        t0 = np.asarray(self.t0[start:])
        t1 = np.asarray(self.t1[start:])
        child = np.asarray(self.child[start:])
        layer_ids = np.array([LAYERS.index(l) for l in self._layer_of_name] or [0], dtype=np.int64)
        span_layer = layer_ids[names]
        self_s = np.bincount(span_layer, weights=t1 - t0 - child, minlength=len(LAYERS))
        calls = np.bincount(span_layer, minlength=len(LAYERS))
        return {l: (float(self_s[i]), int(calls[i])) for i, l in enumerate(LAYERS)}

    def take_counts(self):
        """Return the counters gathered since the last call, and reset them."""
        out = {k: float(self.counts.get(k, 0.0)) for k in COUNTERS}
        self.counts.clear()
        return out

    def save(self, path):
        """Write every recorded span (id = row index) as a compressed npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            parent=np.asarray(self.parent, dtype=np.int64),
            name=np.asarray(self.name, dtype=np.int64),
            t0=np.asarray(self.t0),
            t1=np.asarray(self.t1),
            child=np.asarray(self.child),
        )
