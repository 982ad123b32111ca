"""Spans around oscmean's layer entry points, installed from outside.

Each wrapper replaces a function where its caller binds it (for example
``oscmean.means.lp_eval``, the name ``intersect`` calls), so the program
itself is unchanged.  A span records name, start, end, parent span and
request id, in CPU seconds of the driver thread (unscaled); spans stay in
memory until the run ends.  A missing or renamed
entry point raises ``MissingEntryPoint`` instead of reading as zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import thread_time
from typing import Dict, List, Optional, Tuple

#: span name -> the (module, attribute) bindings it wraps.  The
#: numeric_suite and evaluate_request spans have no metric of their own;
#: they keep that work out of cli.main's self time.
ENTRY_POINTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "cli.main": (("cli", "main"),),
    "identities.exact_suite": (("cli", "run_exact_suite"),),
    "identities.numeric_suite": (("cli", "run_numeric_suite"),),
    "identities.conjecture_scan": (("cli", "conjecture_scan"),),
    "identities.scans": tuple(
        ("identities", name)
        for name in ("tangent_scan", "prop3_scan", "prop4_scan", "closure_scan",
                     "main_theorem_scan")
    ),
    "means.evaluate_request": (("cli", "evaluate_request"),),
    "means.intersect": (("means", "intersect"), ("identities", "intersect")),
    "means.hyperplane_at": (("means", "hyperplane_at"),),
    "means.mean_M": (("means", "mean_M"), ("identities", "mean_M")),
    "means.neuman_LN": (("means", "neuman_LN"), ("identities", "neuman_LN")),
    "means.identric_IZ": (("identities", "identric_IZ"),),
    "numerics.solve_linear": (("means", "solve_linear"),),
    "numerics.det": (("identities", "det"),),
    "numerics.find_root_bracketed": (("means", "find_root_bracketed"),),
    "logpoly.lp_eval": (("means", "lp_eval"), ("identities", "lp_eval")),
    "wronskian.normal_field": (("means", "normal_field"), ("identities", "normal_field")),
    "wronskian.det_symbolic": (("wronskian", "det_symbolic"),
                               ("identities", "det_symbolic")),
}

#: Entry points each workload must reach; one left at zero calls is reported.
EXPECTED = {
    "mean-spread": ("cli.main", "means.intersect", "means.hyperplane_at",
                    "logpoly.lp_eval", "numerics.solve_linear", "means.neuman_LN",
                    "means.mean_M", "numerics.find_root_bracketed"),
    "mean-clustered": ("cli.main", "means.intersect", "means.hyperplane_at",
                       "logpoly.lp_eval", "numerics.solve_linear", "means.neuman_LN"),
    "verify-batch": ("cli.main", "identities.exact_suite", "identities.scans",
                     "identities.conjecture_scan", "numerics.det", "logpoly.lp_eval",
                     "means.intersect", "means.mean_M", "means.identric_IZ",
                     "numerics.find_root_bracketed", "wronskian.det_symbolic"),
}

#: Argument positions of the callables find_root_bracketed evaluates.
_ROOT_CALLABLES = (("f", 0), ("derivative", 4))


class MissingEntryPoint(RuntimeError):
    """An entry point the trace expects is not where it should be."""


class Recorder:
    """Collects spans in memory; one request id is current at a time."""

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        self.request = -1
        self.f_evals = 0
        self._installed: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                end = thread_time()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)

        return wrapper

    def _count(self, fn):
        if fn is None:
            return None

        def counted(*args, **kwargs):
            self.f_evals += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap_root_finder(self, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            args = list(args)
            for key, position in _ROOT_CALLABLES:
                if key in kwargs:
                    kwargs[key] = self._count(kwargs[key])
                elif position < len(args):
                    args[position] = self._count(args[position])
            return fn(*args, **kwargs)

        return self._wrap("numerics.find_root_bracketed", counting)

    def install(self) -> None:
        """Wrap every entry point; raise MissingEntryPoint if one is gone."""
        targets = []
        for name, bindings in ENTRY_POINTS.items():
            for module_name, attribute in bindings:
                module = importlib.import_module(f"oscmean.{module_name}")
                fn = getattr(module, attribute, None)
                if not callable(fn):
                    raise MissingEntryPoint(
                        f"oscmean.{module_name}.{attribute} (span {name}) is missing"
                    )
                targets.append((name, module, attribute, fn))
        for name, module, attribute, fn in targets:
            if name == "numerics.find_root_bracketed":
                wrapped = self._wrap_root_finder(fn)
            else:
                wrapped = self._wrap(name, fn)
            setattr(module, attribute, wrapped)
            self._installed.append((module, attribute, fn))

    def uninstall(self) -> None:
        for module, attribute, fn in reversed(self._installed):
            setattr(module, attribute, fn)
        self._installed.clear()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the time its child spans cover;
        spans nest strictly on one thread, so the children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            _, start, end, parent, _ = span
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in ENTRY_POINTS
        }
        for span, children in zip(self.spans, child_time):
            name, start, end, _, _ = span
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        return out

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent, request id."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def cache_stats() -> Dict[str, int]:
    """hits, misses and entries summed over wronskian's lru caches."""
    module = importlib.import_module("oscmean.wronskian")
    totals = {"hits": 0, "misses": 0, "entries": 0}
    for value in vars(module).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            stats = info()
            totals["hits"] += stats.hits
            totals["misses"] += stats.misses
            totals["entries"] += stats.currsize
    return totals
