"""In-memory span recorder, call-site instrumentation and trace export.

A :class:`SpanRecorder` keeps every span (id, name, start, end, parent,
thread, attrs) in a list in memory and writes nothing until
:func:`write_chrome_trace` is called at the end of a run.  Parents come
from a per-thread stack, so a span opened inside another span on the same
thread is its child; spans on pool threads start their own trees.

:func:`instrument` wraps the public calls of each layer from outside the
program: a module-level function is replaced in the namespace of the
module that *calls* it (``from x import f`` binds ``f`` there), a method
is replaced on its class.  Everything is restored by :meth:`Patches.undo`.
Forked worker processes inherit the wrappers, so each wrapper checks the
recorder's pid and calls straight through in any other process.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Call",
    "Patches",
    "Span",
    "SpanRecorder",
    "covered",
    "instrument",
    "self_times",
    "write_chrome_trace",
]


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; disabled recorders cost one attribute read per call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.pid = os.getpid()
        self.origin = time.perf_counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self) -> bool:
        return self.enabled and os.getpid() == self.pid

    def call(self, name: str, fn: Callable, args, kwargs, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``attrs(args, kwargs, result)`` may return a dict stored on the
        span (work counts measured where the work happens).
        """
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        self.spans.append(
            Span(
                span_id,
                name,
                start,
                end,
                parent,
                threading.get_ident(),
                attrs(args, kwargs, result) if attrs is not None else None,
            )
        )
        return result

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a span when enabled, else call it directly."""
        if not self.active():
            return fn(*args, **kwargs)
        return self.call(name, fn, args, kwargs)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]


@dataclass(frozen=True)
class Call:
    """One call site to wrap.

    ``module`` is where the name is looked up: for a function, the module
    that calls it; for ``Class.method``, any module that exposes the class.
    """

    module: str
    attr: str
    span: str
    attrs: Callable | None = None
    # Wrapper that materializes a lazily-consumed argument before the call
    # (so counting it does not exhaust it): ``prepare(args, kwargs)``.
    prepare: Callable | None = None


class Patches:
    """The undo log of an :func:`instrument` call."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _wrap(recorder: SpanRecorder, fn: Callable, call: Call) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled or os.getpid() != recorder.pid:
            return fn(*args, **kwargs)
        if call.prepare is not None:
            args, kwargs = call.prepare(args, kwargs)
        return recorder.call(call.span, fn, args, kwargs, call.attrs)

    return wrapper


def instrument(recorder: SpanRecorder, calls: Iterable[Call]) -> Patches:
    """Replace every call site in ``calls`` with a span-recording wrapper."""
    patches = Patches()
    try:
        for call in calls:
            owner = importlib.import_module(call.module)
            path = call.attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            name = path[-1]
            original = owner.__dict__[name]
            if isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"cannot wrap {call.module}.{call.attr}")
            patches.set(owner, name, _wrap(recorder, original, call))
    except BaseException:
        patches.undo()
        raise
    return patches


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration
        - covered(children.get(span.id, []), span.start, span.end)
        for span in spans
    }


def write_chrome_trace(
    path: Path, recorder: SpanRecorder, metadata: dict | None = None
) -> None:
    """Complete ("X") trace events in microseconds since the recorder began."""
    threads = {}
    events = []
    for span in sorted(recorder.spans, key=lambda span: span.start):
        tid = threads.setdefault(span.thread, len(threads))
        args = {"id": span.id, "parent": span.parent}
        if span.attrs:
            args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - recorder.origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": recorder.pid,
                "tid": tid,
                "args": args,
            }
        )
    for thread, tid in threads.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": recorder.pid,
                "tid": tid,
                "args": {"name": f"thread-{thread}"},
            }
        )
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metadata:
        payload["otherData"] = metadata
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
