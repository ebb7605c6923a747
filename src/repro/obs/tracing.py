"""Dependency-free span tracing for the controller loop.

One controller tick becomes one *trace*: a tree of :class:`Span` nodes
— the tick span at the root, the six paper stages (Fig. 2) as children,
and per-VM / per-vCPU sub-spans below those, each carrying the
attributes an operator greps for (market size, credits spent, engine,
consumption, allocation).

Spans flow to pluggable :class:`SpanSink` s:

* :class:`RingSink` — bounded in-memory ring, what tests and the
  ``/metrics`` endpoint read;
* :class:`JsonlSink` — one JSON object per span, line-buffered, the
  durable form;
* :func:`write_chrome_trace` — export any span iterable as a Chrome
  ``trace_event`` JSON file, loadable in Perfetto (https://ui.perfetto.dev)
  or ``chrome://tracing`` for a flame view of the loop.

The tracer also folds every ``stage:*`` span into a fixed-bucket
:class:`Histogram` per stage — the backing store of the
``vfreq_span_seconds{stage}`` Prometheus family.

Timestamps are microseconds since the tracer's epoch
(``time.perf_counter`` based, monotonic).  The controller emits its
span tree *post hoc* from the stage timings it already measures, so an
attached-but-idle tracer costs the hot loop nothing; the
context-manager API (:meth:`Tracer.span`) exists for organic call-site
timing outside the tick path.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.fileio import atomic_write
from repro.obs.jsonl import JsonlRecords, read_jsonl

#: Histogram bucket upper bounds, seconds (log-spaced around the
#: paper's ~ms-scale stage costs, §IV-A2).
BUCKET_BOUNDS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 1.0, 10.0
)

#: Span-name prefix that feeds the per-stage duration histograms.
STAGE_PREFIX = "stage:"


@dataclass
class Span:
    """One timed node of a tick's span tree."""

    name: str
    trace_id: int          # the controller tick the span belongs to
    span_id: int
    parent_id: Optional[int]
    start_us: float        # µs since the tracer's epoch
    duration_us: float
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "attrs": self.attrs,
        }


class SpanSink:
    """Receives finished spans; subclasses override :meth:`on_span`."""

    def on_span(self, span: Span) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        pass


class RingSink(SpanSink):
    """Keeps the last ``maxlen`` spans in memory."""

    def __init__(self, maxlen: int = 4096) -> None:
        self._ring: deque = deque(maxlen=maxlen)

    def on_span(self, span: Span) -> None:
        self._ring.append(span)

    @property
    def spans(self) -> List[Span]:
        return list(self._ring)

    def by_trace(self, trace_id: int) -> List[Span]:
        return [s for s in self._ring if s.trace_id == trace_id]

    def trace_ids(self) -> List[int]:
        """Distinct tick ids present in the ring, in arrival order."""
        seen: List[int] = []
        for s in self._ring:
            if not seen or seen[-1] != s.trace_id:
                seen.append(s.trace_id)
        return seen


class JsonlSink(SpanSink):
    """Appends one JSON object per span to a file, line-buffered."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "a", buffering=1)

    def on_span(self, span: Span) -> None:
        self._fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class Histogram:
    """Fixed-bucket duration histogram (Prometheus ``le`` semantics)."""

    def __init__(self, bounds=BUCKET_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * len(self.bounds)  # cumulative at render
        self.count = 0
        self.sum = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.sum += seconds
        for i, bound in enumerate(self.bounds):
            if seconds <= bound:
                self.bucket_counts[i] += 1
                break

    def cumulative(self) -> List[int]:
        """Counts per ``le`` bound, cumulative, excluding ``+Inf``."""
        out: List[int] = []
        running = 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out


class Tracer:
    """Hands finished spans to every sink; allocates ids; keeps stats."""

    def __init__(self, sinks: Iterable[SpanSink] = ()) -> None:
        self.sinks: List[SpanSink] = list(sinks)
        self.epoch = time.perf_counter()
        self._next_span_id = 1
        #: Per-stage duration histograms (``stage:`` spans only), the
        #: backing store of ``vfreq_span_seconds``.
        self.histograms: Dict[str, Histogram] = {}
        self.spans_emitted = 0

    def now_us(self) -> float:
        return (time.perf_counter() - self.epoch) * 1e6

    def record(
        self,
        name: str,
        *,
        trace_id: int,
        parent_id: Optional[int],
        start_us: float,
        duration_us: float,
        attrs: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Emit one already-measured span (the controller's post-hoc path)."""
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=self._next_span_id,
            parent_id=parent_id,
            start_us=start_us,
            duration_us=duration_us,
            attrs=attrs if attrs is not None else {},
        )
        self._next_span_id += 1
        self.spans_emitted += 1
        if name.startswith(STAGE_PREFIX):
            stage = name[len(STAGE_PREFIX):]
            hist = self.histograms.get(stage)
            if hist is None:
                hist = self.histograms[stage] = Histogram()
            hist.observe(duration_us / 1e6)
        for sink in self.sinks:
            sink.on_span(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        *,
        trace_id: int = 0,
        parent_id: Optional[int] = None,
        **attrs: object,
    ):
        """Time a code block as one span (for call sites outside the tick)."""
        start = self.now_us()
        holder: Dict[str, object] = dict(attrs)
        try:
            yield holder
        finally:
            self.record(
                name,
                trace_id=trace_id,
                parent_id=parent_id,
                start_us=start,
                duration_us=self.now_us() - start,
                attrs=holder,
            )

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


# ---------------------------------------------------------------------------
# Chrome trace_event export (Perfetto / chrome://tracing)
# ---------------------------------------------------------------------------


def chrome_trace_events(spans: Iterable[Span]) -> List[Dict[str, object]]:
    """Spans as Chrome ``trace_event`` complete ("X") events.

    Each controller tick (trace id) gets its own ``tid`` row so
    successive ticks stack as lanes; attributes land in ``args``.
    """
    events: List[Dict[str, object]] = []
    for s in spans:
        args = dict(s.attrs)
        args["trace_id"] = s.trace_id
        events.append({
            "name": s.name,
            "ph": "X",
            "ts": s.start_us,
            "dur": max(s.duration_us, 0.0),
            "pid": 1,
            "tid": 1,
            "cat": s.name.split(":", 1)[0],
            "args": args,
        })
    return events


def write_chrome_trace(spans: Iterable[Span], path: str) -> str:
    """Write a Perfetto-loadable trace file; returns ``path``."""
    payload = {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh)
    return path


def spans_from_jsonl(path: str) -> JsonlRecords:
    """Load spans back from a :class:`JsonlSink` file (a torn last line
    is dropped and counted in ``.dropped``)."""
    raw = read_jsonl(path)
    return JsonlRecords(
        (
            Span(
                name=d["name"],
                trace_id=int(d["trace_id"]),
                span_id=int(d["span_id"]),
                parent_id=d.get("parent_id"),
                start_us=float(d["start_us"]),
                duration_us=float(d["duration_us"]),
                attrs=d.get("attrs", {}),
            )
            for d in raw
        ),
        raw.dropped,
    )
