"""In-memory span tracing of monodromy_lab's layers, installed from outside.

``Tracer.install`` replaces each function in ``LAYERS`` by a wrapper that
records one span per call: (name, start, end, parent index, trace id, size).
A module-level function is replaced in every ``monodromy_lab`` namespace that
holds it, so ``from ... import name`` copies are traced too; a method is
replaced on its class.  ``Tracer.uninstall`` puts every original back.  Spans
stay in memory until the caller writes them out.

A layer's self time is its span's duration minus the durations of its direct
child spans (calls are single-threaded, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

#: (module, attribute path) of every traced layer; the metric prefix is
#: "<module>.<attribute path>", e.g. "engine.gamma" for Engine.gamma.
LAYERS = (
    ("special", "laurent_coefficients"),
    ("engine", "Engine.gamma"),
    ("engine", "Engine.solve"),
    ("solutions", "phi_series"),
    ("solutions", "eval_series"),
    ("solutions", "LogSeries.derivative"),
    ("monodromy", "phi_top"),
    ("monodromy", "eval_Ytop"),
    ("monodromy", "assemble_YR"),
    ("monodromy", "assemble_YL"),
    ("monodromy", "stokes_matrix"),
    ("monodromy", "connection_matrix"),
    ("monodromy", "verify_constraints"),
    ("ktheory", "euler_matrix"),
    ("ktheory", "c_gamma_matrix"),
    ("ktheory", "numeric_matrix"),
    ("reference", "numeric"),
    ("braid", "search_equivalence"),
    ("report", "dumps"),
    ("pipeline", "run_verify"),
)

#: the harness-level span around one whole verification
ROOT = "verify"


def layer_name(module, path):
    """Engine methods are named after the module ("engine.gamma"); other
    methods keep their class ("solutions.LogSeries.derivative")."""
    return f"{module}.{path.removeprefix('Engine.')}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.trace_id = None
        self._stack = []
        self._patches = []

    # -- installation --------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = {m: importlib.import_module("monodromy_lab." + m) for m, _ in LAYERS}
        namespaces = [mod for name, mod in list(sys.modules.items())
                      if name == "monodromy_lab" or name.startswith("monodromy_lab.")]
        for module, path in LAYERS:
            cls_name, _, attr = path.rpartition(".")
            name = layer_name(module, path)
            if cls_name:
                cls = getattr(owners[module], cls_name)
                self._patch(cls, attr, self._wrap(name, vars(cls)[attr]))
                continue
            original = getattr(owners[module], attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- recording -----------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.trace_id, None)
            if isinstance(result, str):
                spans[index] = spans[index][:5] + (len(result.encode()),)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name, trace_id):
        """A harness-level span; every span recorded inside carries trace_id."""
        self.trace_id = trace_id
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, trace_id, None)


# -- aggregation -------------------------------------------------------------

def per_trace_stats(spans):
    """{trace id: {span name: {"calls", "s" (self time), "bytes", "hits"}}}.

    ``hits`` counts phi_series calls that built nothing, i.e. have no
    laurent_coefficients span below them: series-cache hits.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    builds = set()
    for name, _, _, parent, _, _ in spans:
        if name == "special.laurent_coefficients":
            while parent >= 0 and spans[parent][0] != "solutions.phi_series":
                parent = spans[parent][3]
            builds.add(parent)
    out = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "s": 0.0, "bytes": 0, "hits": 0}))
    for index, (name, start, end, _, trace_id, size) in enumerate(spans):
        stat = out[trace_id][name]
        stat["calls"] += 1
        stat["s"] += end - start - child_time[index]
        stat["bytes"] += size or 0
        if name == "solutions.phi_series" and index not in builds:
            stat["hits"] += 1
    return out


def layer_metrics(traces, once=None):
    """Median over traces (each a {name: stat} dict from per_trace_stats) of
    the counts and self times, keyed "<layer>.<calls|s|hits|bytes>", plus the
    stats of `once`, a trace of one-off set-up work, if given."""
    metrics = {}
    for module, path in LAYERS:
        name = layer_name(module, path)
        for field in ("calls", "s", "hits", "bytes"):
            values = [trace[name][field] if name in trace else 0 for trace in traces]
            extra = once[name][field] if once and name in once else 0
            metrics[f"{name}.{field}"] = statistics.median(values) + extra
    return metrics
