"""Span tracer for the benchmark's traced run.

The tracer wraps public noma_pop functions from outside the package: every
module attribute bound to a wrapped function is replaced for the duration of
the traced run, so each caller's own name lookup (``montecarlo.sinrs``,
``optimizer.pop_curve``, ``harness.optimize``, ...) goes through the wrapper.
Spans (name, parent span, start, end) are kept in flat in-memory arrays and
written out once at the end. The untraced runs, which give the end-to-end
metrics, never install the tracer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from array import array
from pathlib import Path

import numpy as np

# public functions traced, by the module that defines them; the module name
# is the layer the span is charged to. "Class.method" names a classmethod.
TRACED = {
    "model": ("DerivedParams.from_config", "sinrs", "zetas"),
    "analytic": ("pop_value", "pop", "classify_case", "pop_curve"),
    "optimizer": ("optimize", "candidate_set", "grid_oracle"),
    "montecarlo": ("validate", "pop_estimate", "count_successes",
                   "sample_gains", "chunk_rng", "point_seed"),
    "harness": ("main", "build_parser", "load_config", "run",
                "run_validate_mc", "render_csv", "render_json"),
}
LAYERS = tuple(TRACED)

# work counted from a traced function's result: trials drawn or evaluated,
# points validated, curve points evaluated
RESULT_COUNTS = {
    "montecarlo.sample_gains": lambda r: np.size(r[0]),
    "model.sinrs": lambda r: np.size(r[0]),
    "montecarlo.validate": len,
    "analytic.pop_curve": lambda r: np.size(r[0]),
}


class Tracer:
    """Records nested spans of wrapped calls while ``active`` is true."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.active = False
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that each call while active records one span."""
        name_id = len(self.names)
        self.names.append(name)
        self.counts[name] = 0
        count = RESULT_COUNTS.get(name)
        clock = time.perf_counter
        stack, name_of, parent = self._stack, self.name_of, self.parent
        start, end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                self.counts[name] += int(count(result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of each traced function, restore on exit."""
        modules = [importlib.import_module("noma_pop")]
        modules += [importlib.import_module(f"noma_pop.{layer}")
                    for layer in LAYERS]
        saved = []
        try:
            for layer, names in TRACED.items():
                owner = importlib.import_module(f"noma_pop.{layer}")
                for name in names:
                    span = f"{layer}.{name}"
                    if "." in name:
                        cls_name, meth = name.split(".")
                        cls = getattr(owner, cls_name)
                        orig = cls.__dict__[meth]
                        saved.append((cls, meth, orig))
                        setattr(cls, meth,
                                classmethod(self.wrap(span, orig.__func__)))
                        continue
                    fn = getattr(owner, name)
                    wrapped = self.wrap(span, fn)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is fn:
                                saved.append((mod, attr, value))
                                setattr(mod, attr, wrapped)
            yield self
        finally:
            for obj, attr, value in reversed(saved):
                setattr(obj, attr, value)

    def summary(self, root: str | None = None) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so that is the part of the
        interval no child covers. ``top_s`` is the time of outermost spans.
        With ``root``, only spans named ``root`` and their descendants count.
        """
        n = len(self.start)
        names = np.asarray(self.name_of, dtype=np.intp)
        parent = np.asarray(self.parent, dtype=np.intp)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(n)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        keep = np.ones(n, dtype=bool)
        if root is not None:
            # a parent always precedes its children, so one sweep per level
            # of nesting carries the mark down from each root span
            keep = names == self.names.index(root)
            while True:
                marked = keep | (nested & keep[np.maximum(parent, 0)])
                if (marked == keep).all():
                    break
                keep = marked
        k = len(self.names)
        calls = np.bincount(names[keep], minlength=k)
        total = np.bincount(names[keep], weights=dur[keep], minlength=k)
        own = np.bincount(names[keep], weights=(dur - child)[keep],
                          minlength=k)
        return {
            "spans": int(keep.sum()),
            "top_s": float(dur[~nested & keep].sum()),
            "by_name": {name: {"calls": int(calls[i]),
                               "total_s": float(total[i]),
                               "self_s": float(own[i]),
                               "count": self.counts[name]}
                        for i, name in enumerate(self.names)},
        }

    def write(self, path: Path):
        """Write the raw spans (compressed numpy arrays) to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(json.dumps(self.names)),
            name=np.asarray(self.name_of), parent=np.asarray(self.parent),
            start=np.asarray(self.start), end=np.asarray(self.end))
