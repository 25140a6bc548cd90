"""Outside-in span tracer for the otdistill package.

The tracer replaces every public function bound in the namespace of an
imported ``otdistill`` module (including re-exports such as
``composite.softmax_rows`` or ``otdistill.build_state``) with a wrapper that
records one span per call, and puts the original functions back on
``restore``. The package source is not changed. Private helpers
(``_select``, ``_scatter``, ...) are not wrapped, so their time is part of
the self time of the public function that calls them.

A span is ``(name, start_ns, end_ns, parent, unit, error)``: ``parent`` is
the index of the enclosing span (-1 for none) and ``unit`` the unit-of-work
id. The benchmark opens one ``bench.unit`` span around every traced unit of
work, so each span has a parent chain ending at its unit. Spans stay in
memory until ``write_spans`` dumps them.

With ``memory=True`` (tracemalloc must be running), calls record no span;
instead ``peak_bytes`` keeps, per span name, the peak traced allocation
above the level at the call's entry. Nested calls keep their parents' peaks
correct by propagating on exit, and no span list grows to be counted.
"""

import csv
import functools
import gzip
import inspect
import sys
import time
import tracemalloc

PACKAGE = "otdistill"
UNIT_SPAN = "bench.unit"


class Tracer:
    """Records spans for calls into the package while ``active``."""

    def __init__(self, observers=None):
        # observers: span name -> callable(result) -> float; the maximum over
        # the traced calls is kept in self.observed[span name].
        self.observers = dict(observers or {})
        self.observed = {}
        self.spans = []
        self.peak_bytes = {}     # span name -> max bytes above entry (memory mode)
        self.active = False
        self.memory = False
        self._stack = []         # open span indices
        self._mem = []           # per open span: [base, max] (memory mode)
        self._unit = -1
        self._saved = []         # (module, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the public functions of every imported package module."""
        wrappers = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(PACKAGE + ".")):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def restore(self):
        """Put every original function back."""
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            token = self._enter(name)
            error = True
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                self._exit(token, error)
            if observe is not None:
                value = observe(result)
                self.observed[name] = max(self.observed.get(name, value), value)
            return result

        return traced

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
            return name
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, self._unit, False])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def _exit(self, token, error):
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            base, high = self._mem.pop()
            high = max(high, peak)
            self.peak_bytes[token] = max(self.peak_bytes.get(token, 0), high - base)
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], high)
            return
        span = self.spans[token]
        span[2] = time.perf_counter_ns()
        span[5] = error
        self._stack.pop()

    def unit(self, fn, *args):
        """Run fn(*args) as one traced unit of work; returns its result."""
        self._unit += 1
        self.active = True
        token = self._enter(UNIT_SPAN)
        error = True
        try:
            result = fn(*args)
            error = False
        finally:
            self._exit(token, error)
            self.active = False
        return result

    def clear(self):
        self.spans.clear()
        self.peak_bytes.clear()
        self.observed.clear()

    # -- aggregation --------------------------------------------------------

    def summarize(self):
        """Per-function totals over all recorded units.

        Returns (units, unit_ns, functions) where ``functions`` maps a span
        name to ``{"calls", "self_ns", "errors"}``; self time is the span's
        duration minus the durations of its direct children.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        units, unit_ns, functions = 0, 0, {}
        for idx, (name, start, end, _, _, error) in enumerate(self.spans):
            if name == UNIT_SPAN:
                units += 1
                unit_ns += end - start
            f = functions.setdefault(name, {"calls": 0, "self_ns": 0, "errors": 0})
            f["calls"] += 1
            f["self_ns"] += end - start - child_ns[idx]
            f["errors"] += error
        return units, unit_ns, functions

    def write_spans(self, path):
        """Dump every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", newline="") as f:
            out = csv.writer(f)
            out.writerow(["span", "name", "start_ns", "end_ns", "parent",
                          "unit", "error"])
            for idx, (name, start, end, parent, unit, error) in enumerate(self.spans):
                out.writerow([idx, name, start, end, parent, unit, int(error)])
