"""Per-request SLI collection: records, outcomes, critical paths.

The tracer (:mod:`repro.obs.tracer`) already captures every region
fetch, RPC and bulk transfer as a span tree; this module turns each of
those spans into a *request record* the moment it ends: virtual-time
latency, an outcome class (``local`` / ``remote-imd`` / ``disk-fallback``
/ ``retried`` / ``failed``), and a **critical-path decomposition** — the
elementary-interval sweep of :func:`repro.obs.breakdown.sweep_window`,
run per request over the span's causal descendants and mapped to *stages*
(client code, manager, rpc wait, net transit, imd service, disk) so the
per-stage blame table has the shape of the paper's Tables 3/4 at
request granularity.

Feeding happens through the tracer's ``sink`` hook: a collector
attached via :func:`attach_sli` is notified on every span end.  The
collector only *reads* spans — it never touches simulated state, so a
run with SLI collection enabled produces bit-identical virtual times
(enforced by ``tests/obs/slo/test_nonperturbation.py``).  Latencies go
into per-kind :class:`~repro.obs.slo.sketch.LatencySketch` instances,
so tail percentiles stay cheap at thousand-host scale; full request
records (with per-stage segments for the Perfetto critical-path track)
are kept only when ``keep_records`` is on, which costs no more than the
tracer's own span retention.

Fast paths and packet paths attribute identically by construction: the
flow-level fast paths (bulk, dgram, disk batch) complete the *same
spans* at the same virtual times as their packet/process equivalents,
so the sweep sees the same windows either way — a property pinned by
``tests/obs/slo/test_fastpath_attribution.py``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs.breakdown import stage_of, sweep_window
from repro.obs.slo.sketch import LatencySketch

#: presentation (and tie-break) order of the stages
STAGE_ORDER = ("client", "manager", "rpc", "net", "imd", "disk")

#: outcome classes, in classification-precedence order
OUTCOMES = ("failed", "retried", "disk-fallback", "remote-imd", "local")

#: library-API span names that are request roots
_LIB_REQUESTS = frozenset(
    ("mopen", "mlookup", "mread", "mwrite", "mpush", "msync", "mclose"))
#: region-cache span names that are request roots
_REGIONLIB_REQUESTS = frozenset(("cread", "cwrite"))
#: bulk-transfer span names that are request roots
_BULK_REQUESTS = frozenset(("bulk.send", "bulk.recv"))


def request_kind(span) -> Optional[str]:
    """The request kind of a span, or None when it is not a request.

    Every library API call, region-cache call, client-side RPC and bulk
    transfer is its own request (so nested requests — the ``rpc.read``
    inside an ``mread`` — each get a record under their own kind).
    """
    component = span.component
    if component == "lib":
        return span.name if span.name in _LIB_REQUESTS else None
    if component == "regionlib":
        return span.name if span.name in _REGIONLIB_REQUESTS else None
    if component == "rpc":
        if span.name.startswith("rpc.") \
                and not span.name.startswith("rpc.retry"):
            return span.name
        return None
    if component == "net":
        return span.name if span.name in _BULK_REQUESTS else None
    return None


class RequestRecord:
    """One completed request: latency, outcome, critical path."""

    __slots__ = ("kind", "span_id", "track", "start", "end", "latency",
                 "outcome", "dominant", "stages", "segments")

    def __init__(self, kind: str, span_id: int, track: int, start: float,
                 end: float, outcome: str, dominant: str,
                 stages: dict, segments: list):
        self.kind = kind
        self.span_id = span_id
        self.track = track
        self.start = start
        self.end = end
        self.latency = end - start
        self.outcome = outcome
        #: the stage with the largest share of the request's window
        self.dominant = dominant
        #: stage -> seconds; sums to ``latency`` exactly
        self.stages = stages
        #: merged ``(t0, t1, stage)`` intervals covering the window
        self.segments = segments

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RequestRecord {self.kind} #{self.span_id} "
                f"{self.latency * 1e3:.3f}ms {self.outcome} "
                f"dominant={self.dominant}>")


class KindStats:
    """Streaming aggregates for one request kind (no sample retention
    beyond the sketch)."""

    __slots__ = ("kind", "sketch", "count", "outcomes", "dominant",
                 "stage_s")

    def __init__(self, kind: str, alpha: float):
        self.kind = kind
        self.sketch = LatencySketch(alpha=alpha)
        self.count = 0
        #: outcome class -> request count
        self.outcomes: dict[str, int] = {}
        #: dominant stage -> request count
        self.dominant: dict[str, int] = {}
        #: stage -> total seconds across all requests (the blame table)
        self.stage_s: dict[str, float] = {}

    def observe(self, record: RequestRecord) -> None:
        """Fold one request record into the aggregates."""
        self.count += 1
        self.sketch.add(record.latency)
        self.outcomes[record.outcome] = \
            self.outcomes.get(record.outcome, 0) + 1
        self.dominant[record.dominant] = \
            self.dominant.get(record.dominant, 0) + 1
        for stage, secs in record.stages.items():
            self.stage_s[stage] = self.stage_s.get(stage, 0.0) + secs

    def merge(self, other: "KindStats") -> None:
        """Fold another kind's aggregates (same kind, e.g. another
        simulator's run) into this one."""
        self.count += other.count
        self.sketch.merge(other.sketch)
        for d_mine, d_other in ((self.outcomes, other.outcomes),
                                (self.dominant, other.dominant)):
            for key, n in d_other.items():
                d_mine[key] = d_mine.get(key, 0) + n
        for stage, secs in other.stage_s.items():
            self.stage_s[stage] = self.stage_s.get(stage, 0.0) + secs


class RunSli:
    """Per-simulator SLI state: the ended-span index and aggregates."""

    __slots__ = ("run_id", "ended", "children", "kinds", "records",
                 "requests")

    def __init__(self, run_id: int):
        self.run_id = run_id
        #: ended spans by id, pruned once their request tree completes
        self.ended: dict[int, object] = {}
        #: parent span id -> child span ids (same pruning)
        self.children: dict[int, list[int]] = {}
        #: request kind -> streaming aggregates
        self.kinds: dict[str, KindStats] = {}
        #: full records in completion order (``keep_records`` only)
        self.records: list[RequestRecord] = []
        self.requests = 0


def _stage_rank(stage: str) -> int:
    try:
        return STAGE_ORDER.index(stage)
    except ValueError:  # pragma: no cover - unknown stage fallback
        return len(STAGE_ORDER)


class SliCollector:
    """Builds request records from span ends (the tracer's ``sink``).

    Create one, attach it with :func:`attach_sli`, run the experiment,
    then read ``merged_kinds()`` / ``iter_records()`` or hand it to
    :func:`repro.obs.slo.report.build_slo_report`.  ``alpha`` is the
    relative-error bound of the latency sketches; ``keep_records=False``
    drops per-request records (keeping only the streaming aggregates)
    for memory-bound large-scale runs.
    """

    def __init__(self, alpha: float = 0.01, keep_records: bool = True):
        self.enabled = True
        self.alpha = alpha
        self.keep_records = keep_records
        #: an optional SloEngine notified of every record
        self.engine = None
        self._runs: dict[object, RunSli] = {}

    # -- feeding -----------------------------------------------------------
    def run_for(self, sim, create: bool = True) -> Optional[RunSli]:
        """This simulator's SLI state (1-based ids in first-seen order)."""
        run = self._runs.get(sim)
        if run is None and create:
            run = self._runs[sim] = RunSli(run_id=len(self._runs) + 1)
        return run

    def on_span_end(self, sim, span) -> None:
        """Tracer sink: called once for every span that ends."""
        if not self.enabled or span.end is None:
            return
        run = self.run_for(sim)
        lasting = span.end > span.start
        if lasting:
            # zero-duration spans (instants) cannot cover any interval
            run.ended[span.span_id] = span
            if span.parent_id:
                run.children.setdefault(span.parent_id,
                                        []).append(span.span_id)
        kind = request_kind(span)
        if kind is not None:
            self._record(sim, run, span, kind)
        if lasting and not span.parent_id:
            # a parentless span completed: its causal tree is done (all
            # nested requests were recorded at their own ends), so the
            # index entries can be dropped — memory stays bounded by the
            # deepest in-flight request tree, not the whole run
            self._prune(run, span.span_id)

    def _record(self, sim, run: RunSli, span, kind: str) -> None:
        inner = []
        frontier = [span.span_id]
        while frontier:
            pid = frontier.pop()
            for child_id in run.children.get(pid, ()):
                frontier.append(child_id)
                child = run.ended.get(child_id)
                if child is not None and child.end > span.start \
                        and child.start < span.end:
                    inner.append(child)
        root_stage = stage_of(span.component)
        stages, segments = sweep_window(span, inner, stage_of)
        if not stages:  # zero-duration request (e.g. an idle msync)
            stages = {root_stage: 0.0}
            segments = []
        outcome = self._classify(span, inner, stages)
        dominant = max(stages.items(),
                       key=lambda kv: (kv[1], -_stage_rank(kv[0])))[0]
        record = RequestRecord(kind, span.span_id, span.track,
                               span.start, span.end, outcome, dominant,
                               stages, segments)
        run.requests += 1
        stats = run.kinds.get(kind)
        if stats is None:
            stats = run.kinds[kind] = KindStats(kind, self.alpha)
        stats.observe(record)
        if self.keep_records:
            run.records.append(record)
        engine = self.engine
        if engine is not None and engine.enabled:
            engine.observe(sim, record)

    @staticmethod
    def _classify(span, inner: list, stages: dict) -> str:
        """Outcome class, by fixed precedence (:data:`OUTCOMES`)."""
        tags = span.tags or {}
        if tags.get("err") or tags.get("error") or tags.get("timeout"):
            return "failed"
        if tags.get("attempts", 1) > 1:
            return "retried"
        for s in inner:
            if s.component == "rpc" and s.tags \
                    and s.tags.get("attempts", 1) > 1:
                return "retried"
        if stages.get("disk", 0.0) > 0.0:
            return "disk-fallback"
        if stages.get("rpc", 0.0) > 0.0 or stages.get("net", 0.0) > 0.0 \
                or stages.get("imd", 0.0) > 0.0:
            return "remote-imd"
        return "local"

    def _prune(self, run: RunSli, root_id: int) -> None:
        frontier = [root_id]
        while frontier:
            pid = frontier.pop()
            run.ended.pop(pid, None)
            frontier.extend(run.children.pop(pid, ()))

    # -- reading -----------------------------------------------------------
    def runs(self) -> list[RunSli]:
        """Per-simulator SLI state, first-seen order."""
        return list(self._runs.values())

    def total_requests(self) -> int:
        """Request records across every simulator."""
        return sum(run.requests for run in self._runs.values())

    def merged_kinds(self) -> dict[str, KindStats]:
        """Per-kind aggregates merged across simulators, sorted by
        kind (sketches merge exactly — same alpha everywhere)."""
        merged: dict[str, KindStats] = {}
        for run in self._runs.values():
            for kind, stats in run.kinds.items():
                into = merged.get(kind)
                if into is None:
                    into = merged[kind] = KindStats(kind, self.alpha)
                into.merge(stats)
        return {kind: merged[kind] for kind in sorted(merged)}

    def iter_records(self) -> Iterable[RequestRecord]:
        """All kept request records, per run in completion order."""
        for run in self._runs.values():
            yield from run.records

    def clear(self) -> None:
        """Drop all state (the collector can be reused afterwards)."""
        self._runs.clear()


def attach_sli(tracer, collector: Optional[SliCollector]):
    """Point ``tracer``'s span-end sink at ``collector``.

    Returns the previous sink so callers can restore it (the same
    install/restore discipline as the global engine installers).
    """
    previous = getattr(tracer, "sink", None)
    tracer.sink = collector
    return previous
