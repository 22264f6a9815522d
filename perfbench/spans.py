"""Span tracing around the public functions of each hypext layer.

The tracer patches functions from outside the program: each public function
defined in a layer module is replaced, in every hypext module that holds a
reference to it, by a wrapper that records a span (name, start, end, parent)
and counts rows at the same boundary.  Nothing inside ``src/`` changes, and
``uninstall`` puts every original back.

Spans are kept in memory as parallel arrays and written out at the end.  A
span's self time is its duration minus the durations of its direct children;
the program is single-threaded, so children never overlap.
"""

import array
import importlib
import inspect
import json
import sys
import time
import types
from collections import Counter

import numpy as np

LAYERS = ("model", "coarse", "extension", "maps", "visual", "nets", "sampling",
          "verify", "cli")

# Rejection-sampling checks of the registry and the sampler drawn once per
# loop iteration.  samples / sampler_calls is the acceptance ratio; for
# lemma_2_4_bound the base also holds the draws of its Hausdorff clause.
SAMPLER_OF_CHECK = {
    "lemma_2_1_gap": "verify._thick_base_config",
    "lemma_2_4_bound": "verify._admissible_angle_config",
    "quasicenter_uniqueness": "verify._random_triangles",
    "comparison_angles": "sampling.sample_ball_hyperbolic",
    "lemma_2_7_perpendicular": "sampling.sample_ball_hyperbolic",
}


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.name_of = array.array("l")
        self._stack = []
        self.counts = Counter()
        self.check = None
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, fn, name, on_exit=None):
        """fn wrapped in a span called name; on_exit(args, kwargs, seconds)
        runs after each call to update counters."""
        tracer = self
        name_id = self._id(name)

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.name_of.append(name_id)
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                if on_exit is not None:
                    on_exit(args, kwargs, t1 - t0)

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"hypext.{name}") for name in LAYERS}
        hyp_mods = [m for key, m in list(sys.modules.items())
                    if m is not None and (key == "hypext" or key.startswith("hypext."))]
        replace = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                replace[id(obj)] = self.wrap(obj, name, self._hook(name))
        verify = mods["verify"]
        for attr in ("_thick_base_config", "_admissible_angle_config", "_random_triangles"):
            obj = getattr(verify, attr)
            name = f"verify.{attr}"
            replace[id(obj)] = self.wrap(obj, name, self._hook(name))
        for mod in hyp_mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and getattr(replace[id(obj)], "__wrapped__", None) is obj:
                    self._set(mod, attr, replace[id(obj)])

        # the registry holds its check functions in a list of (id, fn)
        wrapped_checks = []
        for check_id, fn in verify.ALL_CHECKS:
            wrapped_checks.append((check_id, self._wrap_check(check_id, fn)))
        self._set(verify, "ALL_CHECKS", wrapped_checks)

        # boundary maps: one span per outermost apply_raw (composite maps
        # call their parts' apply_raw inside it)
        bmap = mods["maps"].BoundaryMap
        self._set(bmap, "apply_raw", self._wrap_apply_raw(bmap.apply_raw))

        # scipy.optimize.minimize as coarse.quasicenter sees it
        coarse = mods["coarse"]
        self._set(coarse, "optimize", self._optimize_proxy(coarse.optimize))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _hook(self, name):
        counts = self.counts
        if name == "coarse.thinness_batch":
            def hook(args, kwargs, _):
                coords = args[0] if args else kwargs["coords"]
                counts[name + ".rows"] += len(coords)
        elif name == "extension.extension_field":
            def hook(args, kwargs, seconds):
                pts = args[2] if len(args) > 2 else kwargs["points"]
                dim = np.shape(pts)[1]
                counts[f"{name}.rows_{dim}d"] += np.shape(pts)[0]
                counts[f"{name}.seconds_{dim}d"] += seconds
        elif name in ("sampling.sample_boundary", "sampling.sample_ball_hyperbolic"):
            def hook(args, kwargs, _):
                counts[name + ".rows"] += int(args[1] if len(args) > 1 else kwargs["count"])
                self._count_sampler(name)
        elif name.startswith("verify._"):
            def hook(args, kwargs, _):
                self._count_sampler(name)
        else:
            hook = None
        return hook

    def _count_sampler(self, name):
        if self.check is not None and SAMPLER_OF_CHECK.get(self.check) == name:
            self.counts[f"verify.{self.check}.sampler_calls"] += 1

    def _wrap_check(self, check_id, fn):
        inner = self.wrap(fn, f"verify.{check_id}")
        tracer = self

        def check(cfg):
            outer, tracer.check = tracer.check, check_id
            try:
                return inner(cfg)
            finally:
                tracer.check = outer

        return check

    def _wrap_apply_raw(self, method):
        tracer = self
        traced = self.wrap(method, "maps.apply_raw")
        depth = [0]

        def apply_raw(bmap, us):
            if depth[0]:
                return method(bmap, us)
            depth[0] += 1
            try:
                tracer.counts["maps.apply_raw.rows"] += int(np.prod(np.shape(us)[:-1]))
                return traced(bmap, us)
            finally:
                depth[0] -= 1

        return apply_raw

    def _optimize_proxy(self, optimize):
        counts = self.counts

        def minimize(*args, **kwargs):
            res = optimize.minimize(*args, **kwargs)
            counts["coarse.quasicenter.minimize_calls"] += 1
            counts["coarse.quasicenter.nfev"] += int(res.nfev)
            return res

        proxy = types.ModuleType("optimize")
        proxy.__getattr__ = lambda attr: getattr(optimize, attr)
        proxy.minimize = minimize
        return proxy

    # -- results -----------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        dur = np.asarray(self.end, dtype=float) - np.asarray(self.start, dtype=float)
        parent = np.asarray(self.parent, dtype=np.int64)
        name_of = np.asarray(self.name_of, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        selft = dur - child
        k = len(self.names)
        calls = np.bincount(name_of, minlength=k)
        incl = np.bincount(name_of, weights=dur, minlength=k)
        excl = np.bincount(name_of, weights=selft, minlength=k)
        return {name: (int(calls[i]), float(incl[i]), float(excl[i]))
                for i, name in enumerate(self.names)}

    def write(self, path):
        """Spans as arrays (name id, start, end, parent) plus the name table."""
        np.savez_compressed(path, name=np.asarray(self.name_of, dtype=np.int32),
                            start=np.asarray(self.start, dtype=float),
                            end=np.asarray(self.end, dtype=float),
                            parent=np.asarray(self.parent, dtype=np.int64),
                            names=np.asarray(json.dumps(self.names)))
