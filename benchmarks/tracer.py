"""In-memory span recorder that wraps functions from outside the program.

A ``Tracer`` replaces attributes (module functions, methods, classmethods,
or any other value) with wrappers that record one span per call: name,
start, end and the span that was open when the call began. Spans and
counters stay in memory until ``summary`` is read. Leaving the ``with``
block puts every original attribute back, in reverse order of patching.

Recording is thread-safe. A thread has no open span of its own when it
starts, so ``propagating_executor`` gives a ``ThreadPoolExecutor``
subclass whose tasks inherit the span that submitted them.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Tracer:
    """Records spans and counters for the attributes it patches."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of the innermost open span in this thread, or the inherited one."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span; count(args, kwargs) -> {counter: amount}."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer._lock:
                span_id = next(tracer._ids)
            parent = tracer.current()
            stack = tracer._stack()
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = count(args, kwargs) if count is not None else {}
                with tracer._lock:
                    tracer.spans.append(Span(span_id, parent, name, start, end))
                    for key, value in extra.items():
                        tracer.counters[key] += value

        return traced

    def replace(self, owner, attr: str, value) -> None:
        """Set owner.attr to value, remembering the original for restore."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Wrap owner.attr (function, method, classmethod or staticmethod)."""
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(name, raw.__func__, count))
        else:
            wrapped = self.wrap(name, raw, count)
        self.replace(owner, attr, wrapped)

    def restore(self) -> None:
        """Put back every patched attribute, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def propagating_executor(self, base):
        """Subclass of executor class base whose tasks inherit the submitter's span."""
        tracer = self

        class PropagatingExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **kw):
                    tracer._local.inherited = parent
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._local.inherited = None

                return super().submit(task, *args, **kwargs)

        return PropagatingExecutor

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the part of its interval that
        its child spans cover; children running in parallel threads are
        counted once.
        """
        with self._lock:
            spans = list(self.spans)
        children = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out: dict[str, dict] = {}
        for s in spans:
            agg = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += s.duration
            agg["self_s"] += s.duration - _covered(children[s.span_id], s.start, s.end)
        return out

    def ancestors(self) -> dict[int, list[str]]:
        """Span id -> names of its ancestors, innermost first."""
        with self._lock:
            spans = list(self.spans)
        by_id = {s.span_id: s for s in spans}
        out = {}
        for s in spans:
            names = []
            parent = s.parent
            while parent is not None and parent in by_id:
                names.append(by_id[parent].name)
                parent = by_id[parent].parent
            out[s.span_id] = names
        return out
