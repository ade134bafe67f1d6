"""Span tracing of the vpkmeans layers, from outside the program.

Each module of the program is a layer.  While a :class:`Tracer` is active,
every public function of a layer, and every public method of ``SlotEngine``,
is replaced by a wrapper that records one span: name, start, end and the
index of the enclosing span.  A function is patched under every name it is
looked up by, because some modules bind another module's function at import
time (``protocol.perturb_aggregates``, ``protocol.update_centroids`` and
``secure_argmin.axis_sum`` are such names).  Leaving the ``with`` block puts
every original back.

Counts are recorded at the same boundaries: ciphertext/plaintext
multiplications from the operands of ``mul``, the deepest result any engine
operation returned, and the clusters ``update_centroids`` re-initializes.
Nothing here queues or retries, so spans carry busy time only.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("slot_engine", "secure_argmin", "packed_matrix", "dp_accounting", "protocol")


def _public_functions(module):
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and not name.startswith("_")
    }


def layer_targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every lookup of a layer function.

    A function keeps the span name of the module that defines it, wherever
    it is looked up.
    """
    modules = {layer: importlib.import_module(f"vpkmeans.{layer}") for layer in LAYERS}
    span_of = {}
    for layer, mod in modules.items():
        for name, fn in _public_functions(mod).items():
            if fn.__module__ == mod.__name__:
                span_of[fn] = f"{layer}.{name}"
    targets = [
        (mod, name, span_of[fn])
        for mod in modules.values()
        for name, fn in _public_functions(mod).items()
        if fn in span_of
    ]
    engine_cls = modules["slot_engine"].SlotEngine
    targets += [
        (engine_cls, name, f"slot_engine.{name}")
        for name, fn in vars(engine_cls).items()
        if inspect.isfunction(fn) and not name.startswith("_")
    ]
    return targets


class Tracer:
    """Context manager that records spans and boundary counts in memory."""

    def __init__(self):
        from vpkmeans.slot_engine import SlotVector

        self._slot_vector = SlotVector
        self.targets = layer_targets()
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name in self.targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = self._counter(fn, name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children index after it
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _counter(self, fn, name):
        """Boundary counter for ``name``, or None when the span is enough."""
        counts = self.counts
        if name == "protocol.update_centroids":
            sig = inspect.signature(fn)

            def reinit(args, kwargs, out):
                noisy = sig.bind(*args, **kwargs).arguments["noisy_counts"]
                counts["reinit_clusters"] += sum(1 for c in noisy if c < 1.0)

            return reinit
        if not name.startswith("slot_engine."):
            return None
        slot_vector = self._slot_vector
        is_mul = name == "slot_engine.mul"

        def engine_op(args, kwargs, out):
            if isinstance(out, slot_vector):
                counts["max_depth"] = max(counts["max_depth"], out.depth_consumed)
                if is_mul and out.is_ciphertext:
                    both = args[1].is_ciphertext and args[2].is_ciphertext
                    counts["ct_mults" if both else "pt_mults"] += 1

        return engine_op

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def inclusive(self, name: str) -> float:
        return sum((s[2] - s[1] for s in self.spans if s[0] == name), 0.0)

    def _children(self) -> dict:
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            children[s[3]].append(i)
        return children

    def excluding(self, name: str, nested: set) -> float:
        """Time in ``name`` spans minus the time of nested spans in ``nested``."""
        children = self._children()
        total = 0.0
        for i, s in enumerate(self.spans):
            if s[0] != name:
                continue
            total += s[2] - s[1]
            todo = list(children[i])
            while todo:
                j = todo.pop()
                c = self.spans[j]
                if c[0] in nested:
                    total -= c[2] - c[1]
                else:
                    todo.extend(children[j])
        return total

    def self_time(self, layer: str) -> float:
        """Time in the layer's spans not covered by any direct child span."""
        prefix = layer + "."
        child_time = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        return sum(
            ((s[2] - s[1]) - child_time[i] for i, s in enumerate(self.spans) if s[0].startswith(prefix)),
            0.0,
        )

    def write(self, path) -> None:
        """Write the spans as JSON: a name table and (name, start, end, parent) rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(a - t0, 9), round(b - t0, 9), p] for n, a, b, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh)
