"""Outside-in tracing of the rgp layers.

The tracer wraps, from outside the package, every public module-level
function of ``rgp.cli``, ``rgp.hyperbolic``, ``rgp.qpoly``, ``rgp.ops`` and
``rgp.maps``, and the arithmetic, substitution and serialisation methods of
``rgp.poly.MultiPoly``.  ``from ... import`` binds a function in each module
that imports it, so every such binding is replaced, in every ``rgp`` module;
each binding counts its own calls, which is how calls made *from* one module
(``qpoly``'s ``canonical_form`` and ``partial_dual``) are told apart.

Every wrapped call is a span with a name, a start, an end and a parent.  A
run makes millions of ``MultiPoly`` calls, so a span is folded, when it ends,
into per-(parent, name) totals of calls, time and self time (its time minus
the time of its child spans) instead of being stored.

Names are looked up when the tracer is installed, so a function that a later
version of the package removes or renames is simply not traced; metrics built
on it are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from types import FunctionType

LAYERS = ("cli", "hyperbolic", "qpoly", "ops", "maps", "poly")

# MultiPoly methods traced, by the span name they report under.
POLY_METHODS = {
    "__add__": "poly.add", "__sub__": "poly.sub", "__neg__": "poly.neg",
    "__mul__": "poly.mul", "__rmul__": "poly.mul", "__pow__": "poly.pow",
    "scale": "poly.scale", "substitute": "poly.substitute",
    "coefficient_of_kind_degree": "poly.coefficient_of_kind_degree",
    "to_string": "poly.to_string",
    "to_json": "poly.to_json", "to_json_obj": "poly.to_json",
}

# Spans whose receiver's term count is summed into a counter.
TERM_COUNTERS = {"poly.substitute": "poly.substitute.terms_in",
                 "poly.add": "poly.add.terms_copied"}


class Tracer:
    def __init__(self):
        self.stack: list = []     # open spans: [child time, name]
        self.spans: dict = {}     # (parent name, name) -> [calls, time, self time]
        self.sites: dict = {}     # (binding module, name) -> [calls]
        self.counts: dict = {}    # counter -> value
        self.traced: set = set()  # span names that were found and wrapped
        self._undo: list = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        targets = {}              # id(function) -> (function, span name)
        for layer in LAYERS[:-1]:     # poly is traced through MultiPoly below
            mod = importlib.import_module(f"rgp.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and isinstance(obj, FunctionType)
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, f"{layer}.{name}")
        for modname, mod in list(sys.modules.items()):
            if modname != "rgp" and not modname.startswith("rgp."):
                continue
            site = modname.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, obj, hit[1], site)
        cls = getattr(importlib.import_module("rgp.poly"), "MultiPoly", None)
        for attr, name in POLY_METHODS.items():
            fn = vars(cls).get(attr) if cls is not None else None
            if isinstance(fn, FunctionType):
                self._patch(cls, attr, fn, name, "poly")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _patch(self, owner, attr, fn, name, site) -> None:
        setattr(owner, attr, self._wrap(fn, name, site))
        self._undo.append((owner, attr, fn))
        self.traced.add(name)

    def _wrap(self, fn, name, site):
        stack, spans, counts = self.stack, self.spans, self.counts
        site_calls = self.sites.setdefault((site, name), [0])
        counter = TERM_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                terms = getattr(args[0], "terms", None)
                if terms is not None:
                    counts[counter] = counts.get(counter, 0) + len(terms)
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    key = (parent[1], name)
                else:
                    key = (None, name)
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                site_calls[0] += 1

        return traced

    # -- results --------------------------------------------------------------

    def by_name(self) -> dict:
        """name -> [calls, time, self time], summed over parents."""
        out: dict = {}
        for (_parent, name), (calls, total, own) in self.spans.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        for name in self.traced:
            out.setdefault(name, [0, 0.0, 0.0])
        return out

    def layer_self(self) -> dict:
        """layer -> summed self time of its spans."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_calls, _total, own) in self.by_name().items():
            out[name.partition(".")[0]] += own
        return out

    def site_calls(self, site: str, name: str):
        """Calls of ``name`` made through module ``site``'s binding, or None
        when that binding was not found."""
        rec = self.sites.get((site, name))
        return None if rec is None else rec[0]
