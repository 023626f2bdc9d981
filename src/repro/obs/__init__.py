"""Observability: tracing, telemetry, event log, invariant audit, dashboard.

See ``docs/OBSERVABILITY.md`` for the span taxonomy and workflows.  The
usual entry points:

* :func:`install` / :class:`Tracer` — turn tracing on for subsequently
  created simulators (the CLI's ``--trace-out`` and ``repro trace``).
* :func:`write_chrome_trace` — Perfetto-viewable trace-event JSON.
* :func:`fetch_breakdown` / :func:`format_fetch_breakdown` — per-layer
  latency decomposition of ``mread``/``mwrite`` (the paper's Tables 3/4).
* :func:`snapshot` / :func:`write_snapshot` — diffable per-run metrics.
* :func:`install_telemetry` / :class:`Telemetry` — virtual-time sampling
  of cluster state into typed time series (``--telemetry-out``,
  ``repro top``).
* :func:`install_eventlog` / :class:`EventLog` — structured lifecycle
  events with levels and filtering (``--events-out``).
* :class:`Auditor` — online cross-component invariant checking
  (``--audit warn|raise``).
* :func:`render_dashboard` — the ``repro top`` ASCII view.
* :func:`build_fleet_view` / :func:`build_run_view` — the shared render
  model behind ``repro top`` and the web fleet dashboard (``repro
  serve``); recording, insights and what-if replay live in
  :mod:`repro.obs.fleet` (kept out of this namespace: they import the
  experiment stack).
"""

from repro.obs.audit import AuditError, Auditor, Finding, make_auditor
from repro.obs.breakdown import (LAYER_ORDER, fetch_breakdown,
                                 format_fetch_breakdown, layer_of)
from repro.obs.dashboard import pick_run, render_dashboard, render_run
from repro.obs.eventlog import NULL_EVENTLOG, EventLog, LogEvent, \
    default_eventlog, install_eventlog
from repro.obs.export import chrome_trace, dump_chrome_trace, \
    write_chrome_trace
from repro.obs.files import atomic_write
from repro.obs.fleet.model import (ActivityRow, HostView, RunView,
                                   SeriesView, build_fleet_view,
                                   build_run_view)
from repro.obs.snapshot import dump_snapshot, group_name, merged_snapshot, \
    recorder_snapshot, snapshot, write_snapshot
from repro.obs.timeseries import NULL_TELEMETRY, GaugeSeries, RunTelemetry, \
    Telemetry, default_telemetry, install_telemetry
from repro.obs.tracer import NULL_TRACER, Span, Tracer, default_tracer, \
    install

__all__ = [
    "ActivityRow",
    "AuditError",
    "Auditor",
    "EventLog",
    "Finding",
    "GaugeSeries",
    "HostView",
    "LAYER_ORDER",
    "LogEvent",
    "NULL_EVENTLOG",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "RunTelemetry",
    "RunView",
    "SeriesView",
    "Span",
    "Telemetry",
    "Tracer",
    "atomic_write",
    "build_fleet_view",
    "build_run_view",
    "chrome_trace",
    "default_eventlog",
    "default_telemetry",
    "default_tracer",
    "dump_chrome_trace",
    "dump_snapshot",
    "fetch_breakdown",
    "format_fetch_breakdown",
    "group_name",
    "install",
    "install_eventlog",
    "install_telemetry",
    "layer_of",
    "make_auditor",
    "merged_snapshot",
    "pick_run",
    "recorder_snapshot",
    "render_dashboard",
    "render_run",
    "snapshot",
    "write_chrome_trace",
    "write_snapshot",
]
