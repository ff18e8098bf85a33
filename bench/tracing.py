"""Span tracing of the alqecg package from outside it.

The tracer replaces public functions and methods of the package modules with
wrappers that record one span per call: name, start, end and the index of the
enclosing span. Wrappers are installed only around traced operations and the
originals are restored afterwards, so untraced operations run the package's
own code objects. Self time of a span is its duration minus the time covered
by its direct children.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class Tracer:
    """Records spans for the targets it wraps while installed."""

    def __init__(self, targets):
        # targets: (owner object, attribute path, span name, after-hook or None);
        # the span name may be a function of the call's (args, kwargs)
        self.targets = targets
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _span_open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def _span_close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._span_open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._span_close(idx)
            if after is not None:
                # the hook's own time is a child span, so it is not charged
                # to the caller's self time
                hook = tracer._span_open("trace.hook")
                try:
                    after(args, kwargs, result)
                finally:
                    tracer._span_close(hook)
            return result

        return traced

    def install(self) -> None:
        self.missing = []
        for owner, path, name, after in self.targets:
            *parents, attr = path.split(".")
            holder = owner
            for part in parents:
                holder = getattr(holder, part, None)
            if holder is None or not hasattr(holder, attr):
                self.missing.append(path)
                continue
            original = getattr(holder, attr)
            self._saved.append((holder, attr, original))
            setattr(holder, attr, self._wrap(original, name, after))

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: summed self time, summed duration and call count."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            row["self_s"] += (end - start) - child_time[idx]
            row["total_s"] += end - start
            row["calls"] += 1
        return out
