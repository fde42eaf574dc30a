"""Per-layer tracing of ``dircomplex``, installed from outside the library.

Every public function of the six layer modules is wrapped by name in every
``dircomplex`` namespace that binds it (``from .x import y`` copies the
reference, so ``shapes.paste`` and ``construct.paste`` are separate
bindings of one function), and a few methods are wrapped on their classes.
Each wrapper counts calls, exceptions that escape, total time and self time
(its duration minus the durations of the wrapped calls it makes).  Nothing is
kept per call: the hot kernels run tens of thousands of times per request,
so the trace is a set of in-memory counters.  A function that a later commit
removes is simply absent from the counters.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from time import perf_counter

LAYERS = ("ogposet", "molecule", "construct", "shapes", "topology", "cli")

# methods carry the layer's hot paths; (class, attribute) per layer
METHODS = {
    "ogposet": [("OgPoset", "__init__"), ("OgPoset", "from_json"),
                ("ClosedSubset", "boundary"), ("PosetMap", "check"),
                ("PosetMap", "is_valid")],
    "topology": [("ChainComplex", "check_dd_zero")],
}
# private functions that are a layer's own kernel
PRIVATE = {"topology": ("_snf_invariants",)}
# bit-twiddling helpers run millions of times and are no layer boundary
SKIP = {"ogposet": ("bits", "bit_count")}


class Stat:
    __slots__ = ("calls", "raised", "total_s", "self_s", "extra")

    def __init__(self):
        self.calls = self.raised = 0
        self.total_s = self.self_s = 0.0
        self.extra: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


def _nerve_after(tracer, stat, token, result):
    stat.add("simplices", sum(len(level) for level in result.simplices))


def _snf_before(tracer, stat, args):
    rows, cols = args[0].shape
    stat.add("cells", rows * cols)


def _maps_before(tracer, stat, args):
    valid = tracer.stats.get("ogposet.PosetMap.is_valid")
    return valid.calls if valid else 0


def _maps_after(tracer, stat, token, result):
    valid = tracer.stats.get("ogposet.PosetMap.is_valid")
    stat.add("maps", len(result))
    stat.add("is_valid_calls", (valid.calls if valid else 0) - token)


# extra counters: key -> (before(tracer, stat, args) -> token,
#                         after(tracer, stat, token, result))
HOOKS = {
    "topology.nerve": (None, _nerve_after),
    "topology._snf_invariants": (_snf_before, None),
    "shapes.enumerate_maps": (_maps_before, _maps_after),
}


class Tracer:
    """Counters for every wrapped function; records only while ``active``."""

    def __init__(self, package: str = "dircomplex"):
        self.stats: dict[str, Stat] = {}
        self.active = False
        # one frame per open wrapped call, holding its children's time; the
        # bottom frame stands for the caller outside the library
        self._stack = [[0.0]]
        self._install(package)

    def _install(self, package: str) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        seen = set()
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in seen or not _own_function(obj, mod):
                    continue
                if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                    continue
                if name in SKIP.get(layer, ()):
                    continue
                seen.add(id(obj))
                wrapper = self._wrap(f"{layer}.{name}", obj)
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is obj:
                            setattr(m, bound, wrapper)
            for cls_name, attr in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                raw = cls.__dict__.get(attr) if cls is not None else None
                if raw is None:
                    continue
                key = f"{layer}.{cls_name}.{attr}"
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(key, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(key, raw))

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        before, after = HOOKS.get(key, (None, None))
        stack = self._stack
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                stat.calls += 1
                return tracer._drive(stat, fn(*args, **kwargs))
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            token = before(tracer, stat, args) if before else None
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - frame[0]
                stack[-1][0] += dt
            if after:
                after(tracer, stat, token, result)
            return result
        return traced

    def _drive(self, stat: Stat, gen):
        """Re-yield ``gen``, timing each resumption as a span of ``stat``."""
        stack = self._stack
        try:
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException:
                    stat.raised += 1
                    raise
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    stat.total_s += dt
                    stat.self_s += dt - frame[0]
                    stack[-1][0] += dt
                stat.add("yielded", 1)
                yield item
        finally:
            gen.close()

    def snapshot(self) -> dict:
        return {key: {"calls": s.calls, "raised": s.raised,
                      "total_s": s.total_s, "self_s": s.self_s, **s.extra}
                for key, s in self.stats.items()}


def _own_function(obj, mod) -> bool:
    """A function (or lru-cached function) defined in ``mod`` itself."""
    is_fn = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_clear")
    return is_fn and getattr(obj, "__module__", None) == mod.__name__


# -- per-layer metrics ------------------------------------------------------

CONSTRUCT = ("paste", "paste_along", "substitute", "celto", "compos",
             "inflate", "gray", "gray_with_index", "join", "join_with_index",
             "suspend", "dual", "unitor_shape", "gray_boundary_check",
             "join_boundary_check", "amalgamate", "cylinder_quotient")
TOWERS = ("extr", "extrtil", "compositor_c", "folding_c", "sprec")
UNITS = {"calls": "count", "self_s": "s",
         "yielded": "count", "simplices": "count", "cells": "count"}


def _fields(metric: str, key: str, *fields: str) -> list:
    return [(f"{metric}.{f}", key, f) for f in fields]


# (metric name, counter key, field); the metric is 0 when the counter is
# absent because a later commit removed the function
PER_FUNCTION = [
    *_fields("ogposet.from_json", "ogposet.OgPoset.from_json", "calls", "self_s"),
    *_fields("ogposet.OgPoset", "ogposet.OgPoset.__init__", "calls", "self_s"),
    *_fields("ogposet.boundary", "ogposet.ClosedSubset.boundary", "calls", "self_s"),
    *_fields("ogposet.find_isomorphism", "ogposet.find_isomorphism", "calls", "self_s"),
    *_fields("ogposet.PosetMap.check", "ogposet.PosetMap.check", "calls", "self_s"),
    *_fields("molecule.is_molecule", "molecule.is_molecule", "calls", "self_s"),
    *_fields("molecule.iter_splits", "molecule.iter_splits",
             "calls", "yielded", "self_s"),
    *_fields("molecule.is_regular_complex", "molecule.is_regular_complex", "self_s"),
    *_fields("molecule.enumerate_molecules", "molecule.enumerate_molecules", "self_s"),
    *_fields("molecule.composable", "molecule.composable", "calls"),
    *_fields("molecule.find_submolecule", "molecule.find_submolecule", "self_s"),
    *_fields("topology.nerve", "topology.nerve", "self_s", "simplices"),
    *_fields("topology.homology", "topology.homology", "self_s"),
    *_fields("topology.dd_check", "topology.ChainComplex.check_dd_zero", "self_s"),
    *_fields("topology.snf", "topology._snf_invariants", "calls", "self_s", "cells"),
    *_fields("topology.face_poset_roundtrip", "topology.face_poset_roundtrip",
             "self_s"),
    *[m for fn in CONSTRUCT
      for m in _fields(f"construct.{fn}", f"construct.{fn}", "calls", "self_s")],
    *_fields("shapes.enumerate_maps", "shapes.enumerate_maps", "self_s"),
    *[m for t in TOWERS for m in _fields(f"shapes.{t}", f"shapes.{t}", "self_s")],
    *_fields("cli.run", "cli.run", "self_s"),
]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = [(name, UNITS[field]) for name, _, field in PER_FUNCTION]
    names.append(("shapes.enumerate_maps.leaf_yield", "ratio"))
    for layer in LAYERS:
        names += [(f"{layer}.self_s", "s"), (f"{layer}.self_share", "ratio"),
                  (f"{layer}.raised", "count")]
    names += [("traced.request_s", "s"), ("trace_overhead", "ratio")]
    return names


def per_layer_values(snapshot: dict, request_s: float, plain_ops: float,
                     traced_ops: float) -> dict[str, float]:
    """Per-layer metric values from a traced run's counters.

    ``request_s`` is the traced run's summed request latency;
    ``plain_ops`` and ``traced_ops`` are the untraced and traced request
    rates, whose ratio gives the tracing overhead.
    """
    values = {name: float(snapshot.get(key, {}).get(field, 0))
              for name, key, field in PER_FUNCTION}
    em = snapshot.get("shapes.enumerate_maps", {})
    values["shapes.enumerate_maps.leaf_yield"] = \
        em.get("maps", 0) / em["is_valid_calls"] if em.get("is_valid_calls") else 0.0
    for layer in LAYERS:
        own = [s for key, s in snapshot.items() if key.split(".")[0] == layer]
        self_s = sum(s["self_s"] for s in own)
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.self_share"] = self_s / request_s
        values[f"{layer}.raised"] = float(sum(s["raised"] for s in own))
    values["traced.request_s"] = request_s
    values["trace_overhead"] = 1 - traced_ops / plain_ops
    return values
