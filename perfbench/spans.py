"""In-memory spans recorded around calls into the library's layers.

The library itself is not instrumented.  A ``Tracer`` replaces module-level
names that the library looks up at call time (``stiffbvp.trapezoid.normalize``
and so on) by timing wrappers, records one span per call, and puts every
original name back when the ``patched`` block ends, also on error.

A span is the tuple ``(name, start, end, parent, value, ok, cpu)``:
``start`` and ``end`` come from ``time.perf_counter``, ``parent`` is the
index of the enclosing span (-1 at the top), ``value`` is a work count taken
from the call's arguments and result (points evaluated, knots added, ...) or
0, ``ok`` is False when the call raised, and ``cpu`` is the process CPU time
the span took (recorded for the ``BENCH_SPANS`` only, else 0).
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import defaultdict


# spans an untraced run keeps: the end-to-end metrics are built from them
BENCH_SPANS = frozenset({"bench.pass", "bench.solve", "bench.oracle",
                         "bench.fine_solve"})


def _zero():
    return 0.0


class Tracer:
    """Span recorder.  ``enabled=False`` keeps only ``BENCH_SPANS``, so the
    timed runs and the traced runs share one code path."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    def records(self, name):
        return self.enabled or name in BENCH_SPANS

    def wrap(self, name, fn, measure=None):
        """Timing wrapper around ``fn``; ``measure(args, result)`` gives the
        span's work count."""
        if not self.records(name):
            return fn
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        cpu_clock = time.process_time if name in BENCH_SPANS else _zero

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, None, None, parent, 0, False, 0.0))   # open
            stack.append(idx)
            cpu = cpu_clock()
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                cpu = cpu_clock() - cpu
                stack.pop()
                value = measure(args, result) if ok and measure else 0
                spans[idx] = (name, start, end, parent, value, ok, cpu)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        if not self.records(name):
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, None, None, parent, 0, False, 0.0))   # open
        self._stack.append(idx)
        cpu = time.process_time()
        start = time.perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, 0, ok,
                               time.process_time() - cpu)

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for ``targets``, a list of
        ``(module, attribute, span_name, measure)``; restore on exit."""
        saved = []
        try:
            for module, attr, name, measure in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, measure))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path):
        """Spans as JSON lines (gzip): name, start, end, parent, value, ok,
        cpu."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def children(spans):
    """Direct child indices of every span."""
    out = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            out[s[3]].append(i)
    return out


def self_time(spans, idx, kids=None):
    """Duration of span ``idx`` minus the part of its interval that its
    direct children cover (overlaps counted once, clipped to the parent)."""
    kids = children(spans) if kids is None else kids
    start, end = spans[idx][1], spans[idx][2]
    covered = 0.0
    cursor = start
    for c in sorted(kids.get(idx, ()), key=lambda i: spans[i][1]):
        lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered


def has_ancestor(spans, idx, name):
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def totals(spans):
    """Per span name: (count, summed duration, summed value)."""
    out = defaultdict(lambda: [0, 0.0, 0])
    for name, start, end, _, value, *_ in spans:
        rec = out[name]
        rec[0] += 1
        rec[1] += end - start
        rec[2] += value
    return out
