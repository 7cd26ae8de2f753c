"""Spans around hodgeheat's public calls, recorded from outside the package.

``traced(recorder)`` replaces each function in ``LAYERS`` by a wrapper in
every hodgeheat module that holds a reference to it, so calls made inside
the pipeline (``interpolation_report`` calling ``kernel_decay_fit``, or
``verify_uniqueness`` calling ``decompose``) are timed too.  The originals
come back when the block ends.  Spans stay in memory until ``write``.
"""

import contextlib
import json
import sys
import time
from collections import defaultdict

# metric name -> (module, public function) it times
LAYERS = {
    "io.parse_s": ("hodgeheat.io", "parse_input"),
    "io.emit_s": ("hodgeheat.io", "emit_report"),
    "complexes.laplacian_s": ("hodgeheat.complexes", "hodge_laplacian"),
    "complexes.betti_s": ("hodgeheat.complexes", "betti_numbers"),
    "spectral.spectrum_s": ("hodgeheat.spectral", "laplacian_spectrum"),
    "decomposition.route_a_s": ("hodgeheat.decomposition", "decompose"),
    "decomposition.route_b_s": ("hodgeheat.decomposition", "verify_uniqueness"),
    "interpolation.report_s": ("hodgeheat.interpolation", "interpolation_report"),
    "interpolation.alpha_s": ("hodgeheat.interpolation", "measure_alpha"),
    "interpolation.profile_s": ("hodgeheat.interpolation", "projector_norm_profile"),
    "interpolation.volume_s": ("hodgeheat.interpolation", "volume_growth_fit"),
    "interpolation.kernel_decay_s": ("hodgeheat.interpolation", "kernel_decay_fit"),
    "interpolation.dimension_s": ("hodgeheat.interpolation", "dimension_consistency"),
}

ROOT = "operation"


class SpanRecorder:
    """Spans as [name, start, end, parent index, operation id].

    ``op`` is the id of the operation that new spans belong to.
    """

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self, op):
        """Per metric name, the summed self time of operation op's spans.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, span_op in self.spans:
            if span_op == op and parent is not None:
                child_time[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for index, (name, start, end, _, span_op) in enumerate(self.spans):
            if span_op == op and name in totals:
                totals[name] += end - start - child_time[index]
        return totals

    def top_level_time(self, op):
        """Summed duration of the spans directly under operation op's root."""
        roots = {i for i, s in enumerate(self.spans) if s[4] == op and s[0] == ROOT}
        return sum(end - start for _, start, end, parent, span_op in self.spans
                   if span_op == op and parent in roots)

    def write(self, path):
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def span_seconds(calls=20_000):
    """Time one span adds to a call: a wrapped no-op against a bare one."""
    def noop():
        return None
    wrapped = _wrap(SpanRecorder(), "noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return (time.perf_counter() - start - bare) / calls


def _wrap(recorder, metric, func):
    def wrapper(*args, **kwargs):
        with recorder.span(metric):
            return func(*args, **kwargs)
    wrapper.__wrapped__ = func
    return wrapper


@contextlib.contextmanager
def traced(recorder):
    """Patch every LAYERS function in the loaded hodgeheat modules."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "hodgeheat" or name.startswith("hodgeheat."))]
    patched = []
    for metric, (module_name, attr) in LAYERS.items():
        original = getattr(sys.modules[module_name], attr)
        wrapper = _wrap(recorder, metric, original)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                patched.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)
