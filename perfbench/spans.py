"""Span tracing and allocation metering from outside the library.

Both meters work by replacing a callable attribute of an object the
benchmark already holds (a layer, a padding object, the optimizer, or the
benchmark's own table of library functions) with a wrapper, and putting the
original back afterwards. Nothing under ``src/`` changes, and a run with the
meters off executes exactly the code a user runs.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import tracemalloc

_MISSING = object()


class _Patcher:
    """Installs wrappers on (object, attribute) targets and removes them."""

    def __init__(self):
        self.targets = []  # (obj, attr, name)
        self._saved = []

    def add(self, obj, attr, name):
        self.targets.append((obj, attr, name))

    def on(self):
        for obj, attr, name in self.targets:
            self._saved.append((obj, attr, vars(obj).get(attr, _MISSING)))
            setattr(obj, attr, self.wrap(getattr(obj, attr), name))

    def off(self):
        for obj, attr, old in reversed(self._saved):
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)
        self._saved.clear()

    def wrap(self, inner, name):
        raise NotImplementedError


class Tracer(_Patcher):
    """Records spans ``[name, start, end, parent]`` in memory.

    ``parent`` is the index of the enclosing span, or -1 for a root span.
    Root spans are opened by the benchmark around each operation with
    :meth:`span`; wrapped calls made inside it become its descendants.
    """

    def __init__(self):
        super().__init__()
        self.spans = []
        self._stack = []

    def wrap(self, inner, name):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return inner(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return traced

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def patched(self, obj, attr, name):
        """Trace `attr` of `obj` (a class too) for the length of one block."""
        old = vars(obj).get(attr, _MISSING)
        setattr(obj, attr, self.wrap(getattr(obj, attr), name))
        try:
            yield
        finally:
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)


class NoTrace:
    """Stands in for :class:`Tracer` where nothing is traced."""

    def add(self, obj, attr, name):
        pass

    def on(self):
        pass

    def off(self):
        pass

    def span(self, name):
        return contextlib.nullcontext()

    def patched(self, obj, attr, name):
        return contextlib.nullcontext()


class AllocMeter(_Patcher):
    """Peak traced bytes above the level at entry, per wrapped call.

    Calls may nest (a convolution calls its padding): before a child resets
    the peak counter, the peak so far is folded into every open frame, so
    each call's figure includes what its children allocated.
    """

    def __init__(self):
        super().__init__()
        self.peak_bytes = {}
        self._frames = []  # [start, peak] of each open call

    def _fold(self):
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._frames:
            frame[1] = max(frame[1], peak)
        return current

    def wrap(self, inner, name):
        def metered(*args, **kwargs):
            start = self._fold()
            tracemalloc.reset_peak()
            frame = [start, start]
            self._frames.append(frame)
            try:
                return inner(*args, **kwargs)
            finally:
                self._fold()
                self._frames.pop()
                tracemalloc.reset_peak()
                self.peak_bytes[name] = frame[1] - frame[0]

        return metered


def durations(spans):
    """Total and self seconds of each span, and the root span each sits in.

    Self time is the span's duration minus the durations of its children.
    """
    total = [end - start for _, start, end, _ in spans]
    self_time = list(total)
    root = [0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent < 0:
            root[i] = i
        else:
            self_time[parent] -= total[i]
            root[i] = root[parent]
    return total, self_time, root


def per_root_median(spans, timing, root_name, name, inclusive=False):
    """Median, over root spans called `root_name`, of the summed time of the
    spans called `name` inside each. `timing` is ``durations(spans)``. Roots
    without such a span are skipped; None when no root has one."""
    total, self_time, root = timing
    times = total if inclusive else self_time
    sums = {}
    for i, span in enumerate(spans):
        r = root[i]
        if span[0] == name and r != i and spans[r][0] == root_name:
            sums[r] = sums.get(r, 0.0) + times[i]
    return statistics.median(sums.values()) if sums else None


def summary(spans):
    """Per span name: call count, total self seconds and total seconds."""
    total, self_time, _ = durations(spans)
    table = {}
    for i, span in enumerate(spans):
        row = table.setdefault(span[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += self_time[i]
        row[2] += total[i]
    return table
