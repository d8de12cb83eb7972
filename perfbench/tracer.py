"""Outside-in span tracer for the neartoep layers.

The library is not instrumented.  Instead the tracer wraps chosen public
functions and rebinds the wrapper under every name a neartoep module holds
the original by, since modules import functions by name (``from .subspaces
import kernel_subspace`` puts a second binding into ``neartoep.defects``).
``restore`` puts every original back, so untraced passes time unwrapped
code.  Private helpers are never wrapped; their cost lands in the caller's
self time.

A span is (id, parent id, name, start, end) and belongs to one run id.
Spans stay in memory until ``write_spans``.  Self time is a span's duration
minus the durations of its child spans; because calls nest on one thread,
the children of a span are disjoint and lie inside it.  Functions marked
hot (called thousands of times per pass) store no span, only their totals.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Stat:
    __slots__ = ("calls", "incl_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self, run_id, clock=time.perf_counter):
        self._clock = clock
        self._excluded = 0.0
        self._stack = []  # open frames: [name, start, child_s, span_id]
        self._next_id = 1
        self._bindings = []  # (module, attribute, original)
        self.run_id = run_id
        self.spans = []
        self.stats = {}

    def now(self):
        """Clock reading with the time spent in observers taken out."""
        return self._clock() - self._excluded

    def _enter(self, name):
        span_id = self._next_id
        self._next_id += 1
        frame = [name, self.now(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, hot):
        end = self.now()
        self._stack.pop()
        name, start, child_s, span_id = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.incl_s += duration
        stat.self_s += duration - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if not hot:
            parent_id = parent[3] if parent is not None else None
            self.spans.append((self.run_id, span_id, parent_id, name, start, end))

    def wrap(self, name, fn, hot=False, observer=None):
        """Wrapper that records a span named `name` around each call to fn.

        observer(args, kwargs, result) runs after the span closes; its own
        time is removed from the tracer clock so it charges no span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, hot)
            if observer is not None:
                t0 = self._clock()
                observer(args, kwargs, result)
                self._excluded += self._clock() - t0
            return result

        return traced

    def install(self, targets):
        """Wrap each (label, module, function, hot, observer) target and
        rebind the wrapper wherever a neartoep module holds the original."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "neartoep" or key.startswith("neartoep."))
        ]
        for label, module_name, fn_name, hot, observer in targets:
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = self.wrap(label, original, hot=hot, observer=observer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self):
        """Put every replaced binding back, newest first."""
        while self._bindings:
            module, attr, original = self._bindings.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write_spans(self, path):
        """Append one JSON object per span: run, id, parent, name, start, end."""
        with open(path, "a", encoding="utf-8") as out:
            for run_id, span_id, parent_id, name, start, end in self.spans:
                out.write(json.dumps({
                    "run": run_id, "id": span_id, "parent": parent_id,
                    "name": name, "start": start, "end": end,
                }) + "\n")
