"""Span recorder for the traced run, kept in benchmark code only.

``install()`` wraps the public entry points of every ``strata`` layer in
memory.  A wrapped call records a span ``[name, start, end, parent]`` in
CPU seconds of ``cpu_clock``, the clock of the end-to-end metrics; the
``ComplexRational`` operators are only counted, since timing every scalar
operation would swamp it.  A wrapper replaces the original under every name
it is bound to in a loaded ``strata`` module (``strata.cli`` and
``strata.gauge`` import functions by name) or class, and ``restore()`` puts
every original back.

A span's self time is its duration minus the durations of its direct
children; the run is single-threaded, so children nest and never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute or "Class.method", span name); the metric names are
# "<span name>_calls" and "<span name>_self_s".
SPANNED = [
    ("strata.series", "TruncatedSeries.__mul__", "series.mul"),
    ("strata.series", "SeriesMatrix.__matmul__", "series.matmul"),
    ("strata.series", "TruncatedSeries.invert", "series.invert"),
    ("strata.series", "TruncatedSeries.diff", "series.diff"),
    ("strata.polynomials", "Poly.__mul__", "polynomials.mul"),
    ("strata.darboux", "de_solve_jet", "darboux.solve"),
    ("strata.darboux", "de_residual", "darboux.residual"),
    ("strata.darboux", "de_oracle_solve", "darboux.oracle"),
    ("strata.darboux", "de_closed_form_n2", "darboux.closed_form"),
    ("strata.gauge", "connection_from_de", "gauge.connection"),
    ("strata.gauge", "build_connection", "gauge.connection"),
    ("strata.gauge", "formal_simplify", "gauge.simplify"),
    ("strata.gauge", "gauge_residual", "gauge.residual"),
    ("strata.gauge", "integrability_residual", "gauge.residual"),
    ("strata.gauge", "holcon_check", "gauge.holcon"),
    ("strata.gauge", "dv_witness", "gauge.witness"),
    ("strata.cli", "main", "cli.main"),
]

# Every public function defined in these modules is one span of the layer.
WHOLE_MODULES = ["partitions", "bundles", "subspaces", "families", "appendix"]

COUNTED = [
    ("ComplexRational.__mul__", "scalars.mul"),
    ("ComplexRational.__add__", "scalars.add"),
    ("ComplexRational.__sub__", "scalars.add"),
    ("ComplexRational.__rsub__", "scalars.add"),
    # __rtruediv__ delegates to __truediv__, so each division counts once
    ("ComplexRational.__truediv__", "scalars.div"),
]


def cpu_clock() -> float:
    """CPU seconds of this process and of the child processes it has waited
    for, so that work moved into a child process is still measured."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def self_times(spans) -> dict:
    """Total self time per span name."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(float)
    for (name, start, end, _), inner in zip(spans, child):
        totals[name] += end - start - inner
    return dict(totals)


def _resolve(module, dotted: str):
    owner, attr = module, dotted
    if "." in dotted:
        cls, attr = dotted.split(".")
        owner = getattr(module, cls)
    return owner, attr, owner.__dict__[attr]


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._patched: list = []

    # -- wrappers -------------------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, cpu_clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    # -- patching -------------------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Bind wrapper wherever original is bound in a loaded strata module
        or in a class those modules define."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "strata" or modname.startswith("strata.")):
                continue
            owners = [module] + [v for v in vars(module).values()
                                 if inspect.isclass(v) and v.__module__ == modname]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, attr, original))
                        setattr(owner, attr, wrapper)

    def install(self) -> None:
        targets = []
        for modname, dotted, name in SPANNED:
            targets.append((_resolve(sys.modules[modname], dotted)[2], self._spanned, name))
        for layer in WHOLE_MODULES:
            module = sys.modules[f"strata.{layer}"]
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    targets.append((fn, self._spanned, layer))
        schemas = sys.modules["strata.schemas"]
        for attr, fn in vars(schemas).items():
            if inspect.isfunction(fn) and fn.__module__ == schemas.__name__:
                if attr.startswith(("decode_", "document_is_exact")):
                    targets.append((fn, self._spanned, "schemas.decode"))
                elif attr.startswith("encode_"):
                    targets.append((fn, self._spanned, "schemas.encode"))
        scalars = sys.modules["strata.scalars"]
        for dotted, name in COUNTED:
            targets.append((_resolve(scalars, dotted)[2], self._counted, name))
        for original, make, name in targets:
            self._replace(original, make(name, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------------

    def span_counts(self) -> dict:
        out = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return dict(out)

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": round(start - t0, 7),
                                     "end": round(end - t0, 7), "parent": parent}) + "\n")
