"""Spans and counters around calls into ppcat's modules, recorded from outside.

`Tracer.install` replaces every public function, method, classmethod,
staticmethod and property of the layer modules with a wrapper, and rebinds
every attribute of any `ppcat.*` module (and every value of a module-level
dict, such as the CLI's command table) that held the same function object, so
that a copy imported into another module is traced too.  `uninstall` puts the
originals back.  No file under `src/` is changed.

A call is a span when it enters a layer from another layer (or from the
benchmark).  A call inside the layer it already runs in is only counted, so
that self time stays meaningful without a span per accessor call.  Spans are
kept in memory as parallel arrays (name, parent, op id, start, end); a span's
self time is its duration minus the durations of its child spans.  Field
operations in `scalars` are counted and never timed: a span around each would
cost more than the operation.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array

LAYERS = ("cli", "dsl", "interp", "ppeval", "ppform", "tensor", "funcat", "rep",
          "quiver", "linalg")
COUNTED = ("scalars",)

# dunder methods traced besides the public names: FiniteAlgebra construction
# runs the dense associativity check that ROADMAP item 3 targets
EXTRA_METHODS = {("funcat", "FiniteAlgebra", "__init__")}

CACHES = (
    # metric prefix, traced name, cache attribute on the first argument
    ("quiver.hom_cache", "quiver.QuiverAlgebra.hom_basis", "_hom_cache"),
    ("quiver.paths_cache", "quiver.QuiverAlgebra.irreducible_paths_from", "_paths_cache"),
    ("ppeval.projective_cache", "ppeval.projective_rep", "_projective_cache"),
)


def _cache_len(obj, attr):
    return len(getattr(obj, attr, None) or ())


class Tracer:
    def __init__(self, package_modules):
        """`package_modules` maps short names ("rep", ...) to imported modules."""
        self.modules = package_modules
        self.names = []
        self.name_layer = []
        self.name_calls = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._stack_layer = []
        self.op_id = -1
        self.counters = {
            "linalg.rref_cells": 0, "linalg.rref_max_cells": 0, "linalg.rref_s": 0.0,
            "rep.hom_unknowns": 0, "funcat.algebra_init_s": 0.0,
        }
        for prefix, _, _ in CACHES:
            self.counters[prefix + "_lookups"] = 0
            self.counters[prefix + "_growth"] = 0
        self._patches = []
        self._hooks = self._make_hooks()

    # -- hooks: extra counts at chosen functions, called around the original

    def _make_hooks(self):
        c = self.counters

        def rref(m, *args, **kwargs):
            cells = m.rows * m.cols

            def done(dt):
                c["linalg.rref_cells"] += cells
                c["linalg.rref_max_cells"] = max(c["linalg.rref_max_cells"], cells)
                c["linalg.rref_s"] += dt
            return done

        def hom_space(M, N, *args, **kwargs):
            c["rep.hom_unknowns"] += sum(M.dims.get(v, 0) * N.dims.get(v, 0) for v in M.dims)

        def algebra_init(*args, **kwargs):
            def done(dt):
                c["funcat.algebra_init_s"] += dt
            return done

        def cache(prefix, attr):
            def hook(obj, *args, **kwargs):
                before = _cache_len(obj, attr)

                def done(dt):
                    c[prefix + "_lookups"] += 1
                    c[prefix + "_growth"] += _cache_len(obj, attr) - before
                return done
            return hook

        hooks = {
            "linalg.rref_with_pivots": rref,
            "rep.hom_space": hom_space,
            "funcat.FiniteAlgebra.__init__": algebra_init,
        }
        for prefix, name, attr in CACHES:
            hooks[name] = cache(prefix, attr)
        return hooks

    # -- wrapping

    def _intern(self, name, layer):
        self._ids[name] = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer)
        self.name_calls.append(0)
        return self._ids[name]

    def _wrap(self, fn, layer, name):
        if layer in COUNTED:
            return self._wrap_counted(fn, layer, name)
        nid = self._intern(name, layer)
        hook = self._hooks.get(name)
        ncalls = self.name_calls
        stack, stack_layer = self._stack, self._stack_layer
        s_name, s_parent, s_op = self.span_name, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            ncalls[nid] += 1
            done = hook(*args, **kwargs) if hook is not None else None
            if stack_layer and stack_layer[-1] == layer:
                if done is None:
                    return fn(*args, **kwargs)
                t0 = clock()
                out = fn(*args, **kwargs)
                done(clock() - t0)
                return out
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_op.append(tracer.op_id)
            s_start.append(0.0)
            s_end.append(0.0)
            stack.append(idx)
            stack_layer.append(layer)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stack_layer.pop()
                s_start[idx] = t0
                s_end[idx] = t1
            if done is not None:
                done(t1 - t0)
            return out

        return functools.update_wrapper(traced, fn)

    def _wrap_counted(self, fn, layer, name):
        nid = self._intern(name, layer)
        ncalls = self.name_calls

        def counted(*args, **kwargs):
            ncalls[nid] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    def _wrap_member(self, member, layer, name):
        if inspect.isfunction(member):
            return self._wrap(member, layer, name)
        if isinstance(member, classmethod):
            return classmethod(self._wrap(member.__func__, layer, name))
        if isinstance(member, staticmethod):
            return staticmethod(self._wrap(member.__func__, layer, name))
        if isinstance(member, property) and member.fget is not None:
            return property(self._wrap(member.fget, layer, name), member.fset,
                            member.fdel, member.__doc__)
        return None

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner[attr] if isinstance(owner, dict)
                              else owner.__dict__[attr]))
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def install(self):
        wrapped = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS + COUNTED:
            mod = self.modules[layer]
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val):
                    new = self._wrap(val, layer, "%s.%s" % (layer, attr))
                    wrapped[id(val)] = (val, new)
                    self._patch(mod, attr, new)
                elif inspect.isclass(val):
                    for mname, member in list(vars(val).items()):
                        if mname.startswith("_") and (layer, attr, mname) not in EXTRA_METHODS:
                            continue
                        new = self._wrap_member(member, layer, "%s.%s.%s" % (layer, attr, mname))
                        if new is not None:
                            self._patch(val, mname, new)
        # copies of the same function object held elsewhere in the package
        for modname, mod in list(sys.modules.items()):
            if not (modname == "ppcat" or modname.startswith("ppcat.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for key, item in list(val.items()):
                        hit = wrapped.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._patch(val, key, hit[1])

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- results

    def self_times(self):
        """Self time of every span: duration minus the durations of its children."""
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        own = list(dur)
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def metrics(self):
        layers = LAYERS + COUNTED
        calls = dict.fromkeys(layers, 0)
        for layer, n in zip(self.name_layer, self.name_calls):
            calls[layer] += n
        self_s = dict.fromkeys(LAYERS, 0.0)
        for nid, own in zip(self.span_name, self.self_times()):
            self_s[self.name_layer[nid]] += own
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = calls[layer]
            out[layer + ".self_s"] = self_s[layer]
        out["scalars.calls"] = calls["scalars"]

        def named(name):
            return self.name_calls[self._ids[name]] if name in self._ids else 0

        c = self.counters
        out["linalg.rref_calls"] = named("linalg.rref_with_pivots")
        for key in ("linalg.rref_cells", "linalg.rref_max_cells", "linalg.rref_s",
                    "rep.hom_unknowns", "funcat.algebra_init_s"):
            out[key] = c[key]
        out["rep.hom_space_calls"] = named("rep.hom_space")
        out["rep.morphism_coordinates_calls"] = named("rep.morphism_coordinates")
        out["rep.iso_trials"] = named("rep.RepMorphism.is_invertible")
        out["funcat.mul_calls"] = named("funcat.FiniteAlgebra.mul")
        for prefix, _, _ in CACHES:
            lookups = c[prefix + "_lookups"]
            out[prefix + "_lookups"] = lookups
            out[prefix + "_hit_ratio"] = (
                (lookups - c[prefix + "_growth"]) / lookups if lookups else 0.0)
        out["trace.spans"] = len(self.span_start)
        return out

    def write(self, path_stem, extra):
        """Write `<stem>.json` (names, per-name totals, metrics) and
        `<stem>.spans` (the raw span columns, native-endian, in the order
        name int32, parent int32, op int32, start float64, end float64)."""
        os.makedirs(os.path.dirname(path_stem) or ".", exist_ok=True)
        own = self.self_times()
        total = [0.0] * len(self.names)
        self_by_name = [0.0] * len(self.names)
        spans = [0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            total[nid] += self.span_end[i] - self.span_start[i]
            self_by_name[nid] += own[i]
            spans[nid] += 1
        by_name = {name: {"layer": self.name_layer[k], "calls": self.name_calls[k],
                          "spans": spans[k], "total_s": total[k], "self_s": self_by_name[k]}
                   for k, name in enumerate(self.names) if self.name_calls[k]}
        doc = dict(extra, names=self.names, by_name=by_name, metrics=self.metrics(),
                   span_count=len(self.span_start),
                   span_columns=["name:i4", "parent:i4", "op:i4", "start:f8", "end:f8"])
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        with open(path_stem + ".spans", "wb") as fh:
            for col in (self.span_name, self.span_parent, self.span_op,
                        self.span_start, self.span_end):
                col.tofile(fh)
