"""Spans around calls into each gausstree layer, recorded from outside.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces public
functions of each module with timing wrappers -- in the defining module
and in every gausstree module that imported the name, so ``bounds``'
own ``directed_tree`` is caught too -- and wraps ``TreeNetwork`` methods
and cached properties on the class.  ``simulator.Philox`` is replaced by a
counting factory.  :meth:`Tracer.uninstall` puts every original back.

A span is (name, start, end, parent span, op id), appended to flat
arrays kept in memory.  After each traced round the spans are folded into
running totals and the buffer starts afresh, so memory holds one round;
the first round's spans are written out at the end.  A span's self time
is its duration minus its direct children's; a layer's ``self_s`` sums
the self time of its spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter

import numpy as np

# O(1) accessors called in inner loops; their time stays with the caller.
_UNWRAPPED_METHODS = {"weight", "children_of", "parent_of", "is_leaf", "has_weight"}
_ORACLE = {"analytic_mmse_check"}
LAYERS = ("network", "infomeasures", "bounds", "allocation", "simulator.montecarlo",
          "simulator.oracle", "cli", "bench")


def _layer_of(module_name: str, func_name: str) -> str:
    layer = module_name.rsplit(".", 1)[-1]
    if layer == "simulator":
        return "simulator.oracle" if func_name in _ORACLE else "simulator.montecarlo"
    return layer


class Tracer:
    def __init__(self, package, modules):
        self.package = package
        self.modules = list(modules)
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self.kept: dict | None = None
        self.totals = {"layer_self_s": np.zeros(len(LAYERS)),
                       "layer_busy_s": np.zeros(len(LAYERS)),
                       "calls": Counter(), "busy_s": Counter(), "penalized_objective_evals": 0}

    # -- recording --------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(name_id)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, layer: str):
        nid = self.name_id(name, layer)
        begin, finish, raised = self.begin, self.finish, self.raised

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                finish(idx)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self) -> None:
        everywhere = [self.package, *self.modules]
        for module in self.modules:
            for fname, fn in list(vars(module).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                layer = _layer_of(module.__name__, fname)
                wrapper = self.wrap(fn, f"{layer.split('.')[0]}.{fname}", layer)
                for holder in everywhere:
                    for hname, obj in list(vars(holder).items()):
                        if obj is fn:
                            self._patch(holder, hname, wrapper)
        network = next(m for m in self.modules if m.__name__.endswith(".network"))
        cls = network.TreeNetwork
        for attr, obj in list(vars(cls).items()):
            if attr in _UNWRAPPED_METHODS or (attr.startswith("_") and attr != "__post_init__"):
                continue
            if isinstance(obj, functools.cached_property):
                prop = functools.cached_property(self.wrap(obj.func, f"network.{attr}", "network"))
                prop.__set_name__(cls, attr)
                self._patch(cls, attr, prop)
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self.wrap(obj, f"network.{attr}", "network"))
        simulator = next(m for m in self.modules if m.__name__.endswith(".simulator"))
        philox, counts = simulator.Philox, self.counts

        def counting_philox(*args, **kwargs):
            counts["simulator.rng.generators"] += 1
            return philox(*args, **kwargs)

        self._patch(simulator, "Philox", counting_philox)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- analysis ---------------------------------------------------------

    def fold(self) -> None:
        """Add the spans recorded so far to the running totals and start a
        fresh buffer; the first buffer folded is kept for :meth:`save`.
        Called after each traced round, so memory holds one round of spans."""
        start = np.frombuffer(self.start, dtype=float).copy()
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        name = np.frombuffer(self.name, dtype=np.int64).copy()
        op = np.frombuffer(self.op, dtype=np.int64).copy()
        self.start, self.end = array("d"), array("d")
        self.parent, self.name, self.op = array("q"), array("q"), array("q")
        if self.kept is None:
            self.kept = {"start": start, "duration": dur.astype(np.float32),
                         "parent": parent.astype(np.int32), "name": name.astype(np.int16),
                         "op": op.astype(np.int32)}

        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        layer_ids = {layer: k for k, layer in enumerate(LAYERS)}
        span_layer = np.array([layer_ids[x] for x in self.name_layer] or [0])[name]
        # A layer is busy from entry to exit of its outermost spans.
        outer = span_layer != np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
        totals = self.totals
        totals["layer_self_s"] += np.bincount(span_layer, weights=dur - child,
                                              minlength=len(LAYERS))
        totals["layer_busy_s"] += np.bincount(span_layer[outer], weights=dur[outer],
                                              minlength=len(LAYERS))
        for key, weights in (("calls", None), ("busy_s", dur)):
            per_name = np.bincount(name, weights=weights, minlength=len(self.names))
            for nid, value in enumerate(per_name.tolist()):
                totals[key][self.names[nid]] += value
        totals["penalized_objective_evals"] += self._penalized_evals(parent, name)

    def _penalized_evals(self, parent, name) -> int:
        """``derive_distortions`` spans with an ``allocate_numeric_penalized``
        span among their ancestors: the penalized objective's evaluations."""
        inner = self._ids.get("bounds.derive_distortions")
        outer = self._ids.get("allocation.allocate_numeric_penalized")
        if inner is None or outer is None:
            return 0
        hits = 0
        for idx in np.flatnonzero(name == inner).tolist():
            p = int(parent[idx])
            while p >= 0 and name[p] != outer:
                p = int(parent[p])
            hits += p >= 0
        return hits

    def summary(self) -> dict:
        """Totals over every folded round: per-layer self and busy time,
        per-name calls and busy time, penalized objective evaluations,
        counters, raised."""
        t = self.totals
        return {
            "layer_self_s": dict(zip(LAYERS, t["layer_self_s"].tolist())),
            "layer_busy_s": dict(zip(LAYERS, t["layer_busy_s"].tolist())),
            "calls": dict(t["calls"]),
            "busy_s": dict(t["busy_s"]),
            "penalized_objective_evals": t["penalized_objective_evals"],
            "counts": dict(self.counts),
            "raised": dict(self.raised),
        }

    def save(self, path) -> None:
        """Write the first traced round's spans (start, duration, parent
        span, name id, op id) and the name table."""
        np.savez(path, **self.kept,
                 names=np.array(json.dumps({"names": self.names, "layers": self.name_layer})))
