"""Layer-boundary span recording for the traced benchmark run.

The recorder wraps public entry points on the instances a workload
built (``node.step``, ``controller.tick``, ``backend.write_caps``, ...)
with a thin timing shim installed as an instance attribute, so the
program's own code is untouched and unwrapping restores the class
method.  Spans live in memory (name, start, end, parent, thread) until
the run ends; then :func:`export_chrome_trace` writes them through
:mod:`repro.obs.tracing` as a Perfetto-loadable file.

Per-host calls may run on the node manager's worker threads.  A span
opened on a thread with an empty stack takes the innermost open span of
the main thread as its parent (the barrier that is waiting for it), so
a cluster period stays one tree.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class RawSpan:
    span_id: int
    name: str
    parent_id: Optional[int]
    start: float  # time.perf_counter() seconds
    end: float
    thread: int
    period: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from wrapped entry points; thread-safe appends."""

    def __init__(self) -> None:
        self.spans: List[RawSpan] = []
        #: Period index stamped on every span opened from now on.
        self.period = -1
        self._ids = itertools.count(1)
        self._main_thread = threading.get_ident()
        self._main_stack: List[Tuple[int, str, Optional[int], float, int]] = []
        self._local = threading.local()
        self._wrapped: List[Tuple[object, str, bool, object]] = []

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> None:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1][0]
        else:
            parent = None
        stack.append((next(self._ids), name, parent, time.perf_counter(), self.period))

    def end(self) -> None:
        end = time.perf_counter()
        span_id, name, parent, start, period = self._stack().pop()
        self.spans.append(RawSpan(
            span_id, name, parent, start, end, threading.get_ident(), period,
        ))

    # -- wrapping -------------------------------------------------------------

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Time every call of ``obj.attr`` as a span called ``name``.

        An entry point this version of the program does not have is
        skipped, so the benchmark keeps working when a path is deleted.
        """
        if not hasattr(obj, attr):
            return
        own = attr in vars(obj)
        previous = vars(obj).get(attr)
        original = getattr(obj, attr)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                end()

        setattr(obj, attr, traced)
        self._wrapped.append((obj, attr, own, previous))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for obj, attr, own, previous in reversed(self._wrapped):
            if own:
                setattr(obj, attr, previous)
            else:
                delattr(obj, attr)
        self._wrapped.clear()


# -- analysis ------------------------------------------------------------------


def attributed_times(spans: List[RawSpan]) -> Dict[int, float]:
    """Span id -> the wall time attributed to it as the innermost span.

    At every instant the wall clock is shared equally among the spans
    that are open and have no open descendant, on any thread.  Without
    concurrency that is the usual self time (duration minus the union
    of the children's intervals).  With the node manager's worker
    threads, concurrent host ticks split the instants they overlap
    instead of each counting them in full -- under the interpreter lock
    only one of them runs at a time -- so the layers of a period add up
    to its wall time.
    """
    parent = {s.span_id: s.parent_id for s in spans}
    events = []
    for s in spans:
        events.append((s.start, 1, s.span_id))
        events.append((s.end, 0, s.span_id))
    events.sort()  # at equal times, ends (0) before starts (1)
    out = {s.span_id: 0.0 for s in spans}
    open_spans: set = set()
    open_children: Dict[int, int] = {}
    innermost: set = set()
    last = None
    for when, is_start, span_id in events:
        if innermost and when > last:
            share = (when - last) / len(innermost)
            for sid in innermost:
                out[sid] += share
        last = when
        up = parent[span_id]
        if is_start:
            open_spans.add(span_id)
            innermost.add(span_id)
            while up in out:
                open_children[up] = open_children.get(up, 0) + 1
                innermost.discard(up)
                up = parent[up]
        else:
            open_spans.discard(span_id)
            innermost.discard(span_id)
            while up in out:
                open_children[up] -= 1
                if open_children[up] == 0 and up in open_spans:
                    innermost.add(up)
                up = parent[up]
    return out


def export_chrome_trace(spans: List[RawSpan], path: str) -> str:
    """Replay the spans through ``repro.obs.tracing`` and write them as
    a Chrome ``trace_event`` file (open it in https://ui.perfetto.dev)."""
    from repro.obs.tracing import Tracer, write_chrome_trace

    tracer = Tracer()
    if spans:
        tracer.epoch = min(s.start for s in spans)
    threads: Dict[int, int] = {}
    new_id: Dict[int, int] = {}
    recorded = []
    # Parents start no later than their children, so this order always
    # maps a parent id before any child needs it.
    for s in sorted(spans, key=lambda s: (s.start, -s.end)):
        lane = threads.setdefault(s.thread, len(threads))
        span = tracer.record(
            s.name,
            trace_id=s.period,
            parent_id=new_id.get(s.parent_id) if s.parent_id is not None else None,
            start_us=(s.start - tracer.epoch) * 1e6,
            duration_us=s.duration * 1e6,
            attrs={"thread": lane},
        )
        new_id[s.span_id] = span.span_id
        recorded.append(span)
    return write_chrome_trace(recorded, path)
