"""Spans around every public function of the surfcount modules, recorded
from outside the package.

Each public module-level function is replaced by a wrapper, both in its
own module and in every module that imported it by name (for example
``flaps.is_planar`` and ``constructions.trace_faces``), so calls between
modules and inside one module are both seen. A span is
``[name, start, end, parent, work]``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``work`` counts the input the call
received where a per-layer metric needs it (vertices for ``is_planar``,
signed darts 4m for ``trace_faces``). Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "graph", "planarity", "flaps", "spqrk", "counting",
          "embedding", "constructions", "census", "surfaces")

# input size recorded per call, for the metrics that count work
WORK = {
    "planarity.is_planar": lambda args: args[0].n,
    "embedding.trace_faces": lambda args: 4 * args[0].m,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [importlib.import_module(f"surfcount.{name}") for name in LAYERS]
        modules.append(importlib.import_module("surfcount"))
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value, wrappers[value]))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    work(args) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        self._stack.clear()


def layer_metrics(spans: list[list], traced_pass_s: float, passes: int) -> dict[str, float]:
    """Per-pass means of calls, self time and work, by layer and for the
    named functions, from the spans of ``passes`` traced passes whose
    summed task wall time is ``traced_pass_s``."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    work: dict[str, int] = {}
    flaps_planarity = 0
    for i, (name, start, end, parent, units) in enumerate(spans):
        own = end - start - child[i]
        layer = name.split(".", 1)[0]
        for key in (layer, name):
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + own
        work[name] = work.get(name, 0) + units
        if name == "planarity.is_planar" and parent >= 0 \
                and spans[parent][0].startswith("flaps."):
            flaps_planarity += 1
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0) / passes
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0) / passes
        out[f"{layer}.share"] = self_s.get(layer, 0.0) / traced_pass_s
    out["planarity.vertices"] = work.get("planarity.is_planar", 0) / passes
    out["flaps.planarity_calls"] = flaps_planarity / passes
    for name in ("counting.count_copies", "counting.count_hom", "counting.count_cliques",
                 "embedding.trace_faces", "constructions.split_growth",
                 "constructions.tree_blowup", "spqrk.spqrk_build"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
    out["graph.automorphisms.calls"] = calls.get("graph.automorphisms", 0) / passes
    out["embedding.trace_faces.calls"] = calls.get("embedding.trace_faces", 0) / passes
    out["embedding.trace_faces.states"] = work.get("embedding.trace_faces", 0) / passes
    out["embedding.split_triangle.calls"] = calls.get("embedding.split_triangle", 0) / passes
    out["trace.coverage"] = sum(self_s.get(layer, 0.0) for layer in LAYERS) / traced_pass_s
    return out
