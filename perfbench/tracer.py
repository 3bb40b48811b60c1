"""In-memory span tracer that wraps the program's public functions.

Spans are recorded from outside the program: while the tracer is
installed, each traced function is replaced in memory by a wrapper that
times the call and notes which traced call it ran inside.  A span's self
time is its duration minus the durations of the traced calls made
directly inside it.  Aggregates (count, total and self time per name,
call counts per (parent, name)) cover every span; the first
``max_spans`` spans are also kept whole and written out at the end.
"""

import functools
import json
import time
import tracemalloc
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, max_spans=200_000):
        self.max_spans = max_spans
        self.spans = []             # (name, parent, start, end)
        self.dropped = 0
        self.calls = Counter()
        self.parent_calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._stack = []            # [name, time spent in traced children]
        self._substitutes = []
        self._specs = []
        self._saved = []

    def substitute(self, owner, attr, value):
        """Replace ``owner.attr`` by ``value`` while installed (done before
        any wrapping, so wrapped functions may live on ``value``)."""
        self._substitutes.append((owner, attr, value))

    def trace(self, owners, attr, name, on_exit=None, measure_memory=False):
        """Trace ``attr`` of the first owner as span ``name``; the same
        wrapper replaces the attribute on every owner (module, class or
        object) that holds a reference to the function.

        ``on_exit(args, kwargs, result, peak_mib)`` runs after each call;
        with ``measure_memory`` the call runs under tracemalloc and
        ``peak_mib`` is its peak traced allocation, else None.
        """
        self._specs.append((owners, attr, name, on_exit, measure_memory))

    def install(self):
        for owner, attr, value in self._substitutes:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        for owners, attr, name, on_exit, measure_memory in self._specs:
            wrapper = self._wrapper(getattr(owners[0], attr), name, on_exit,
                                    measure_memory)
            for owner in owners:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrapper(self, fn, name, on_exit, measure_memory):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            if measure_memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                peak = None
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.parent_calls[(parent, name)] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if len(self.spans) < self.max_spans:
                    self.spans.append((name, parent, start, end))
                else:
                    self.dropped += 1
            if on_exit is not None:
                on_exit(args, kwargs, result, peak)
            return result

        return wrapper

    def write(self, path, extra=None):
        """One JSON line of summary, then one line per kept span."""
        with open(path, "w", encoding="utf-8") as fh:
            summary = {"spans_kept": len(self.spans),
                       "spans_dropped": self.dropped,
                       "calls": dict(self.calls),
                       "total_s": dict(self.total_s),
                       "self_s": dict(self.self_s)}
            summary.update(extra or {})
            fh.write(json.dumps(summary, sort_keys=True) + "\n")
            for name, parent, start, end in self.spans:
                fh.write(json.dumps([name, parent, start, end]) + "\n")


class Namespace:
    """Stand-in for a module reference that forwards every attribute, so
    that single functions of it can be traced for one caller only."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, attr):
        return getattr(self._module, attr)
