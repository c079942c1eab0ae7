"""Span recording for the traced run, and self-time analysis of the spans.

The tracer wraps plumblat's public functions from outside the package: each
call becomes a span (name, start, end, parent span, op id) kept in flat
in-memory arrays and written out once, when the run ends.  A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import weakref
from array import array
from pathlib import Path
from time import perf_counter

# the package's layers, in call order from the command line inwards
LAYERS = ("cli", "graphio", "graph", "minimize", "invariants", "basepoints")
# IntersectionForm methods traced as graph spans; construction covers
# build_form and the sub-forms made by restrict
FORM_METHODS = ("__init__", "pairing", "pairing_vertex", "chi", "canonical", "dual_basis")
# per-coefficient formatter: a span per printed number would outnumber all
# others a hundredfold; its time stays in its caller's self time
UNTRACED = {"graphio.frac_repr"}
ROOT = -1


class Tracer:
    """Spans of wrapped calls, plus min_chi cache and search counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [ROOT]
        self._op_id = -1
        # min_chi results already returned once, by identity; a repeat is a
        # cache hit (the results are hashable by value, which is not wanted)
        self._seen: dict[int, weakref.ref] = {}
        self.counters = {"min_chi_hits": 0, "nodes": 0, "candidates": 0, "minimizers": 0}
        self.largest_set: dict[int, int] = {}

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording one span per call; ``after(result)`` sees results."""
        nid = self._name_id(name)
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self._op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark operation as the root span ``op``."""
        self._op_id = op_id
        return self.wrap("op", fn)(*args)

    def _min_chi_result(self, result) -> None:
        ref = self._seen.get(id(result))
        if ref is not None and ref() is result:
            self.counters["min_chi_hits"] += 1
            return
        self._seen[id(result)] = weakref.ref(result)
        self.counters["nodes"] += result.stats.nodes
        self.counters["candidates"] += result.stats.candidates
        size = len(result.minimizers)
        self.counters["minimizers"] += size
        if size > self.largest_set.get(self._op_id, 0):
            self.largest_set[self._op_id] = size

    def install(self, package: str = "plumblat") -> None:
        """Wrap every public function of each layer module.

        Modules bind names with ``from .x import y``, so each wrapper replaces
        the original in every loaded module of the package that holds it.
        """
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == package or name.startswith(package + "."))]
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__ or f"{layer}.{attr}" in UNTRACED:
                    continue
                after = self._min_chi_result if (layer, attr) == ("minimize", "min_chi") else None
                new = self.wrap(f"{layer}.{attr}", fn, after)
                for m in mods:
                    for a, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, a, new)
        form = sys.modules[f"{package}.graph"].IntersectionForm
        for meth in FORM_METHODS:
            setattr(form, meth, self.wrap(f"graph.IntersectionForm.{meth}", getattr(form, meth)))

    def dump(self, path: Path) -> None:
        """Write the spans as one JSON document of parallel arrays."""
        doc = {"names": self.names, "name": self.name.tolist(),
               "start": self.start.tolist(), "end": self.end.tolist(),
               "parent": self.parent.tolist(), "op": self.op.tolist(),
               "counters": self.counters,
               "largest_set": {str(k): v for k, v in self.largest_set.items()}}
        path.write_text(json.dumps(doc), encoding="utf-8")


def self_times(start, end, parent) -> list[float]:
    """Self time of every span: its duration minus the union of its children.

    Children are clipped to their parent's interval, and overlapping
    children are counted once.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p != ROOT:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered, reach = 0.0, s
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            cs, ce = max(start[c], reach), min(end[c], e)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((e - s) - covered)
    return out
