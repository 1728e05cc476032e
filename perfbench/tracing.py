"""Spans and counters recorded from outside the package.

The benchmark never edits the library.  It replaces module attributes
with wrappers for the length of a traced pass, which works because the
package looks its collaborators up through module attributes at call
time (``chain`` calls ``pcf.evaluate`` and ``taylor.step``, ``taylor``
calls ``kernel.step_once``, and so on).
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from pcfzeros import chain, pcf, taylor
from pcfzeros.errors import PcfZerosError

# (module, attribute, layer name); the layer names are the metric prefixes
SPANNED = [
    (chain, "run_chain", "chain.loop"),
    (chain, "refine_first_zero", "chain.first_zero"),
    (chain, "refine_from_previous", "chain.hop"),
    (chain, "verify_zeros", "chain.verify"),
    (pcf, "evaluate", "pcf.evaluate"),
    (pcf, "_evaluate_taylor", "pcf.taylor"),
    (pcf, "_evaluate_lg", "pcf.lg"),
    (pcf, "_evaluate_lg_neg", "pcf.lg_neg"),
    (taylor, "propagate", "taylor.propagate"),
    (taylor, "step", "taylor.step"),
    (taylor, "derivatives_at", "taylor.derivatives_at"),
]
LAYERS = [layer for _, _, layer in SPANNED]

# Entry points of the stepping kernel, counted only.  With the pure-Python
# kernel the calls the kernel makes to itself go through the same module
# attributes and are counted too; a compiled kernel shows only the calls
# made from taylor.py.
KERNEL_ENTRIES = ["scaled_derivs", "taylor_eval", "step_once",
                  "propagate_polyline"]

# second element of the result is the iteration count
ITERATING = ("chain.first_zero", "chain.hop")


class Tracer:
    """In-memory trace of one pass: spans and counters.

    A span is ``[name, start, end, parent, job]``; ``parent`` indexes
    ``spans`` (-1 for a root) and ``job`` is the row or point the
    benchmark was working on when the span opened.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []

    def spanned(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        iterating = name in ITERATING

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except PcfZerosError:
                counts[name + ".raised"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if iterating:
                counts[name + ".iters"] += out[1]
            return out
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def layer_totals(self):
        """Per layer: (calls, total seconds, self seconds)."""
        total = defaultdict(float)
        children = defaultdict(float)
        calls = Counter()
        spans = self.spans
        for name, t0, t1, parent, _ in spans:
            d = t1 - t0
            total[name] += d
            calls[name] += 1
            if parent >= 0:
                children[spans[parent][0]] += d
        return {name: (calls[name], total[name], total[name] - children[name])
                for name in LAYERS}

    def layer_metrics(self, results: int, truncations: int,
                      scale: float) -> dict:
        """Per-layer values of one traced pass that returned ``results``
        zeros or values and raised ``truncations`` TruncationWarnings;
        times are multiplied by ``scale``."""
        totals = self.layer_totals()
        counts = self.counts
        out = {}
        for layer, (calls, total, own) in totals.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.s"] = total * scale
            out[f"{layer}.self_s"] = own * scale
        for layer in ITERATING:
            out[f"{layer}.iters"] = counts[f"{layer}.iters"]
        for layer in ("chain.hop", "chain.verify"):
            out[f"{layer}.us_per_zero"] = (
                totals[layer][1] * scale / max(results, 1) * 1e6)
        # evaluate(method="auto") falls back to Taylor when LG raises
        out["pcf.lg_fallbacks"] = (counts["pcf.lg.raised"]
                                   + counts["pcf.lg_neg.raised"])
        out["lgeval.truncation_warnings"] = truncations
        for entry in KERNEL_ENTRIES:
            out[f"kernel.{entry}.calls"] = counts[f"kernel.{entry}.calls"]
        # scaled_derivs runs once per derivatives_at and once per try of
        # each step_once; more than one build per step is bisection
        steps = counts["kernel.step_once.calls"]
        builds = (counts["kernel.scaled_derivs.calls"]
                  - totals["taylor.derivatives_at"][0])
        out["kernel.builds_per_step"] = builds / steps if steps else 0.0
        return out


@contextmanager
def instrumented(tracer: Tracer):
    """Route calls into the package through ``tracer`` while active."""
    patches = [(mod, attr, tracer.spanned(layer, getattr(mod, attr)))
               for mod, attr, layer in SPANNED]
    patches += [(taylor.kernel, entry,
                 tracer.counted(f"kernel.{entry}.calls",
                                getattr(taylor.kernel, entry)))
                for entry in KERNEL_ENTRIES]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, fn in patches:
            setattr(mod, attr, fn)
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
