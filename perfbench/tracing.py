"""In-memory span recorder used only by traced runs.

A span has a name, a start and end (``perf_counter`` seconds), the id
of the span that was open around it on the same thread, and a group
id shared by every span of one request, cell or scenario.  Spans stay
in memory and are written out once, when the run ends, as Chrome
trace-event JSON (loadable in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    group: str
    start: float
    end: float = 0.0
    tid: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; :meth:`wrap` times calls into a layer's function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.group = ""
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(len(self.spans), stack[-1].sid if stack else None,
                        name, self.group, 0.0, tid=threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named *name*."""
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    # -- reductions ------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds).

        Self time is a span's duration minus its direct children's on
        the same thread (children never overlap their parent there).
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out: dict[str, list[float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.duration
            row[2] += s.duration - child[s.sid]
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}

    def by_group(self, name: str) -> dict[str, float]:
        """group -> summed duration of the spans named *name*."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s.name == name:
                out[s.group] = out.get(s.group, 0.0) + s.duration
        return out

    def dump(self, path: Path) -> None:
        """Write every span as Chrome trace-event JSON."""
        if not self.spans:
            return
        t0 = min(s.start for s in self.spans)
        events = [
            {"name": s.name, "ph": "X", "pid": 0, "tid": s.tid,
             "ts": (s.start - t0) * 1e6, "dur": s.duration * 1e6,
             "args": {"id": s.sid, "parent": s.parent, "group": s.group}}
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


@contextlib.contextmanager
def traced_registry(tracer: Tracer):
    """Swap every registry entry for one whose calls open spans."""
    from repro.core.registry import entries, register

    originals = entries()

    def batch_wrapper(fn):
        traced = tracer.wrap(fn, "core.batch")

        def run(instances, rngs=None):
            tracer.count("core.batch_rows", len(instances))
            return traced(instances, rngs)
        return run

    for e in originals:
        register(e.name, dataclasses.replace(
            e, fn=tracer.wrap(e.fn, "core.scalar"),
            batch_fn=batch_wrapper(e.batch_fn) if e.batch_fn else None),
            overwrite=True)
    try:
        yield
    finally:
        for e in originals:
            register(e.name, e, overwrite=True)
