"""Observability for the control plane: spans, ledger, flight recorder.

Four independent pillars behind one hub (:class:`Observability`):

* :mod:`repro.obs.tracing` — per-tick span trees + Chrome/Perfetto export;
* :mod:`repro.obs.ledger` — per-``cpu.max``-write decision provenance
  (``repro explain``), built once per tick by ``decision_rows`` and
  stored in an :class:`~repro.obs.jsonl.EventLog`;
* :mod:`repro.obs.flight_recorder` — black-box ring of the last N ticks,
  auto-dumped on invariant violations and crashes, convertible to a
  replayable checking trace;
* :mod:`repro.obs.logging` — structured stdlib logging +
  :mod:`repro.obs.metrics_server` for live ``/metrics`` scrapes;

plus the cluster SLO plane (:class:`~repro.obs.slo.SLOPlane`):
:mod:`repro.obs.tsdb`'s windowed time-series store,
:mod:`repro.obs.slo`'s multi-window burn-rate alerting with an alert
ledger (``repro explain --alert``), and :mod:`repro.obs.anomaly`'s
deterministic EWMA/z-score detectors.

Everything is stdlib-only and off the controller's hot path; see
``docs/observability.md``.
"""

from repro.obs.anomaly import AnomalyConfig, EwmaDetector
from repro.obs.config import ObsConfig
from repro.obs.flight_recorder import FlightRecorder, flight_dump_to_trace
from repro.obs.hub import Observability
from repro.obs.jsonl import EventLog, read_jsonl
from repro.obs.ledger import decision_rows, explain, recompute_allocation
from repro.obs.logging import configure_logging, get_logger
from repro.obs.metrics_server import MetricsServer
from repro.obs.slo import (
    BurnRateRule,
    SLOConfig,
    SLOPlane,
    SLOSpec,
    default_slos,
    explain_alert,
)
from repro.obs.tracing import (
    JsonlSink,
    RingSink,
    Span,
    Tracer,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.obs.tsdb import Series, SeriesStore

__all__ = [
    "ObsConfig",
    "Observability",
    "EventLog",
    "read_jsonl",
    "decision_rows",
    "FlightRecorder",
    "flight_dump_to_trace",
    "MetricsServer",
    "Span",
    "Tracer",
    "RingSink",
    "JsonlSink",
    "chrome_trace_events",
    "write_chrome_trace",
    "configure_logging",
    "get_logger",
    "explain",
    "recompute_allocation",
    "Series",
    "SeriesStore",
    "SLOConfig",
    "SLOPlane",
    "SLOSpec",
    "BurnRateRule",
    "default_slos",
    "explain_alert",
    "AnomalyConfig",
    "EwmaDetector",
]
