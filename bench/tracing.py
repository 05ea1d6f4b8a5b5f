"""Span tracing of jcdem's public functions from outside the package.

`Tracer.installed()` replaces each traced function at every jcdem module
attribute that holds it (for example ``jcdem.analysis.propagator`` and
``jcdem.entropy.hermitian_eigensystem``), so calls made inside the package
are caught where the caller looks the name up. Each call records a span
(name, start, end, parent) in memory; self time is a span's duration minus
the time its child spans cover. A traced name that the package no longer
defines is skipped and reports zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# span name -> (defining module, attribute path)
TRACED = {
    "cli.main": ("jcdem.cli", "main"),
    "svgplot.render_plot": ("jcdem.svgplot", "render_plot"),
    "svgplot.atomic_write_text": ("jcdem.svgplot", "atomic_write_text"),
    "analysis.scan_time": ("jcdem.analysis", "scan_time"),
    "analysis.scan_lambda": ("jcdem.analysis", "scan_lambda"),
    "analysis.revival_analysis": ("jcdem.analysis", "revival_analysis"),
    "analysis.sliding_amplitude": ("jcdem.analysis", "sliding_amplitude"),
    "model.FieldConfig.from_mean_photons": ("jcdem.model", "FieldConfig.from_mean_photons"),
    "model.truncation_dim": ("jcdem.model", "truncation_dim"),
    "model.propagator": ("jcdem.model", "propagator"),
    "model.initial_joint_state": ("jcdem.model", "initial_joint_state"),
    "model.closed_form_coeffs": ("jcdem.model", "closed_form_coeffs"),
    "entropy.dem_exact": ("jcdem.entropy", "dem_exact"),
    "entropy.von_neumann_entropy": ("jcdem.entropy", "von_neumann_entropy"),
    "entropy.dem_closed_form": ("jcdem.entropy", "dem_closed_form"),
    "linalg.hermitian_eigensystem": ("jcdem.linalg", "hermitian_eigensystem"),
    "linalg.partial_trace": ("jcdem.linalg", "partial_trace"),
}
MODULES = ("cli", "svgplot", "analysis", "model", "entropy", "linalg")
# counters computed from call arguments, not measured: name -> unit
COUNTERS = {
    "linalg.eigh_dim3_sum": "count",
    "linalg.partial_trace.bytes_in": "B",
    "svgplot.svg_bytes": "B",
    "cli.csv_bytes": "B",
}
ROOT_SPAN = "bench.op"


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _count(self, name: str, args, kwargs) -> None:
        if name == "linalg.hermitian_eigensystem":
            self.counters["linalg.eigh_dim3_sum"] += len(_first_arg(args, kwargs)) ** 3
        elif name == "linalg.partial_trace":
            self.counters["linalg.partial_trace.bytes_in"] += _first_arg(args, kwargs).nbytes
        elif name == "svgplot.atomic_write_text":
            path, text = args[0], args[1]
            key = "svgplot.svg_bytes" if str(path).endswith(".svg") else "cli.csv_bytes"
            self.counters[key] += len(text.encode("utf-8"))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count(name, args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "jcdem" or key.startswith("jcdem.")]
        undo = []
        try:
            for name, (module_name, attr) in TRACED.items():
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                if owner is None or not hasattr(owner, leaf):
                    continue
                if path:  # a classmethod, patched on its class
                    raw = owner.__dict__[leaf]
                    undo.append((owner, leaf, raw))
                    setattr(owner, leaf, classmethod(self._wrap(name, raw.__func__)))
                    continue
                original = getattr(owner, leaf)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, total self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _), covered in zip(self.spans, child):
            totals[name][0] += 1
            totals[name][1] += end - start - covered
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each a mean per traced operation."""
        totals = self.self_times()
        metrics = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for name in TRACED:
            calls, self_s = totals.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = (calls / ops, "count")
            metrics[f"{name}.self_s"] = (self_s / ops, "s")
            module_self[name.split(".")[0]] += self_s
        for module, self_s in module_self.items():
            metrics[f"{module}.self_s"] = (self_s / ops, "s")
        for name, value in self.counters.items():
            metrics[name] = (value / ops, COUNTERS[name])
        return metrics

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]},
                      handle)
