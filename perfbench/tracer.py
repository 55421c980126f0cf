"""Outside-in tracing of the traintrack layers.

The program has no tracing of its own, so this module wraps the public
functions of each layer module from the outside.  Modules import names with
``from .x import y``, so a function is replaced in every module of the
package that holds it, not only where it is defined; the two hot methods
``MarkedGraph.tighten`` and ``GraphMap.apply`` are replaced on their class.

Each call records a span (name, start, end, parent) in memory.  A span's
self time is its duration minus the durations of its direct child spans; a
function's cumulative time counts only its outermost spans, so recursion is
not counted twice.  A few wrappers also record counters at the same
boundary (edges in and out of the path kernel, catalogs computed rather than
served from the map's cache, catalog work repeated within one operation,
orders yielded by the order search).
"""

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "paths", "maps", "nielsen", "ct", "disintegrate",
          "intlin", "coords", "freegroup", "maxrank")

METHODS = (("paths", "MarkedGraph", "tighten"), ("maps", "GraphMap", "apply"))

# Oriented-edge token helpers run once per edge token, millions of times per
# pass; a span around each would cost more than the work it measures.
UNTRACED = frozenset({"paths.inverse", "paths.base_name", "paths.is_positive"})

_END = 2  # index of the end time in a span [name id, start, end, parent, outer]


def map_key(m):
    """Content of a map: the same key for equal maps on distinct objects."""
    g = m.graph
    return (
        tuple(g.vertices),
        tuple((e, g.init(e), g.term(e), m.edge_images[e].edges) for e in g.edge_names),
    )


class Tracer:
    """Spans and counters for one traced phase; ``install`` patches the
    package, ``uninstall`` puts every original binding back."""

    def __init__(self):
        self.names = []
        self.layer_of = []
        self.calls = []
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []
        self._active = []
        self._ids = {}
        self._patches = []
        self._op_seen = set()
        self._op_keys = {}
        self._clock = time.perf_counter

    # -- patching ---------------------------------------------------------------

    def _id(self, name, layer):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.calls.append(0)
            self._active.append(0)
        return self._ids[name]

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {layer: importlib.import_module("traintrack." + layer) for layer in LAYERS}
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == "traintrack" or n.startswith("traintrack.")]
        for layer, mod in modules.items():
            for attr, fn in sorted(vars(mod).items()):
                name = "%s.%s" % (layer, attr)
                if (attr.startswith("_") or name in UNTRACED
                        or not inspect.isfunction(fn) or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(name, layer, fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, key, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, meth, self._wrap("%s.%s" % (layer, meth), layer, getattr(cls, meth)))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- recording --------------------------------------------------------------

    def _wrap(self, name, layer, fn):
        nid = self._id(name, layer)
        before = _BEFORE.get(name)
        probe = _PROBES.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(nid, name, fn)
        spans, stack, active, clock = self.spans, self._stack, self._active, self._clock

        def traced(*args, **kwargs):
            self.calls[nid] += 1
            state = before(args) if before is not None else None
            span = [nid, clock(), 0.0, stack[-1] if stack else -1, not active[nid]]
            stack.append(len(spans))
            spans.append(span)
            active[nid] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                active[nid] -= 1
                stack.pop()
            if probe is not None:
                probe(self, args, kwargs, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, nid, name, fn):
        """One span per resume of the generator; calls count creations."""
        spans, stack, clock = self.spans, self._stack, self._clock

        def traced(*args, **kwargs):
            self.calls[nid] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    span = [nid, clock(), 0.0, stack[-1] if stack else -1, True]
                    stack.append(len(spans))
                    spans.append(span)
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        span[_END] = clock()
                        stack.pop()
                    self.counters[name + ".yielded"] += 1
                    yield value
            finally:
                gen.close()

        traced.__wrapped__ = fn
        return traced

    def begin_op(self):
        """Start of one operation: repeated work is judged per operation."""
        self._op_seen.clear()
        self._op_keys.clear()

    def key_of(self, m):
        """Content key of a map, cached per object for one operation; the
        cache holds the map itself so that its id is not reused meanwhile."""
        hit = self._op_keys.get(id(m))
        if hit is None:
            hit = self._op_keys[id(m)] = (m, map_key(m))
        return hit[1]

    # -- results ----------------------------------------------------------------

    def summary(self):
        """Per function: calls, self_s, cum_s; plus counters."""
        n = len(self.names)
        self_s = [0.0] * n
        cum_s = [0.0] * n
        child = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            nid, start, end, parent, outer = self.spans[i]
            dur = end - start
            self_s[nid] += dur - child[i]
            if outer:
                cum_s[nid] += dur
            if parent >= 0:
                child[parent] += dur
        funcs = {
            name: {"layer": self.layer_of[i], "calls": self.calls[i],
                   "self_s": self_s[i], "cum_s": cum_s[i]}
            for i, name in enumerate(self.names)
        }
        return {"functions": funcs, "counters": dict(self.counters),
                "spans": len(self.spans)}


# -- counters recorded at the boundary ------------------------------------------------


def _cached_values(args):
    """Identities of what the map's cache holds before a catalog call."""
    return {id(v) for v in getattr(args[0], "_cache", {}).values()}


def _probe_tighten(tr, args, kwargs, result, state):
    edges = args[1] if len(args) > 1 else kwargs.get("edges", ())
    tr.counters["paths.tighten.edges_in"] += len(edges)
    tr.counters["paths.tighten.edges_out"] += len(result)


def _probe_apply(tr, args, kwargs, result, state):
    tr.counters["maps.apply.edges_out"] += len(result)


def _probe_build_catalog(tr, args, kwargs, result, state):
    # A catalog that the map's cache already held before the call was
    # served from it; only one built by the call counts as computed.
    if id(result) in state:
        return
    tr.counters["nielsen.build_catalog.computed"] += 1
    tr.counters["nielsen.build_catalog.entries"] += len(result.entries) + len(result.periodic)
    key = ("catalog", tr.key_of(args[0]), result.bound, result.period_bound)
    if key in tr._op_seen:
        tr.counters["nielsen.build_catalog.repeats"] += 1
    tr._op_seen.add(key)


def _probe_qe_split(tr, args, kwargs, result, state):
    key = ("qe_split", tr.key_of(args[0]), args[1].edges)
    if key in tr._op_seen:
        tr.counters["nielsen.qe_split.repeats"] += 1
    tr._op_seen.add(key)


_BEFORE = {
    "nielsen.build_catalog": _cached_values,
}

_PROBES = {
    "paths.tighten": _probe_tighten,
    "maps.apply": _probe_apply,
    "nielsen.build_catalog": _probe_build_catalog,
    "nielsen.qe_split": _probe_qe_split,
}
