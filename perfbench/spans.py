"""Spans and counters wrapped around the package's public functions from outside.

Modules bind each other's functions by name (``from .tensor import
apply_local``), so a wrapper is installed on every ``onionclass`` module
attribute that holds the original function, not only on its home module.
Spans stay in memory as ``[name, start, end, parent, op]`` and are written
out once the run ends.  Self time is a span's duration minus the
durations of its children, which nest inside it on the one thread.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import Counter
from time import perf_counter

SPANS = {
    "tensor": ["local_operators", "apply_local", "flatten", "cut_rank", "compress_party",
               "separability_pattern"],
    "linalg": ["exact_det", "exact_rank", "exact_elimination_transform", "exact_solve", "char_poly",
               "rational_roots_if_split"],
    "hyperdet": ["hyperdet", "det2", "det3", "det322", "det4", "binary_form_coeffs", "schlafli_lift"],
    "classify": ["classify", "canonicalize_3qubit"],
    "oracle": ["critical_point_search"],
    "documents": ["parse_state_document", "parse_ensemble_document", "state_document", "jsonify"],
    "mixed": ["ensemble_upper_class"],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns]

# (class attribute, counter); reflected operators count with their forward form
COUNTED = [
    ("GaussianRational", "__mul__", "scalars.gr_mul"),
    ("GaussianRational", "__rmul__", "scalars.gr_mul"),
    ("GaussianRational", "__add__", "scalars.gr_add"),
    ("GaussianRational", "__radd__", "scalars.gr_add"),
    ("GaussianRational", "__truediv__", "scalars.gr_div"),
    ("QuadExt", "__mul__", "scalars.quadext_mul"),
    ("QuadExt", "__rmul__", "scalars.quadext_mul"),
]
COUNTER_NAMES = sorted({name for _, _, name in COUNTED})


class Tracer:
    """Installs the wrappers, records spans and counts, and removes them again."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.lift_retries = 0
        self.op = -1
        self._stack = []
        self._undo = []

    def _span(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _add_retries(self, lift):
        self.lift_retries += lift.retries_used

    def install(self):
        package = importlib.import_module("onionclass")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "onionclass" or n.startswith("onionclass."))]
        for mod, fns in SPANS.items():
            home = importlib.import_module(f"onionclass.{mod}")
            for fn in fns:
                original = getattr(home, fn)
                hook = self._add_retries if fn == "schlafli_lift" else None
                wrapped = self._span(f"{mod}.{fn}", original, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._undo.append((module, attr, original))
        for cls_name, attr, key in COUNTED:
            cls = getattr(package, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._counter(key, original))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Per span name: (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child[i]
        return out

    def write(self, path: str):
        """Spans as tab-separated name, start, end, parent, op (seconds from the first span)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\t{op}\n")
