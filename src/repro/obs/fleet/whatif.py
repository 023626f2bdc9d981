"""What-if policy replay: rerun a recorded scenario under changed policy.

``repro record`` runs one of the named scenarios (rows of the chaos
harness's table, built by :func:`repro.faults.chaos.build_scenario`,
faults on only with ``chaos``) with full observability and writes a
run directory (:mod:`repro.obs.fleet.store`) whose ``meta.json`` embeds
the scenario, seed, policy and canonical workload metrics.  ``repro
whatif`` loads that directory, replays the *same scenario and seed*
under a changed :class:`WhatIfPolicy` — region replacement or
recruitment thresholds — and reports a structured side-by-side delta:
fetch latency percentiles, refetches, reclaim evictions, degraded
requests.

Replay with an *unchanged* policy reproduces the recorded metrics
byte-identically (same seed drives the simulator, the fault plan and
the workload), which is both the trust anchor for the deltas and a CI
determinism check.  Everything here is virtual-time arithmetic — no
wall clock, no unseeded randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.faults.chaos import build_scenario
from repro.obs.fleet.insights import build_insights, emit_insights
from repro.obs.fleet.store import RunDir, load_run_dir, write_run_dir
from repro.sweep.spec import jsonify

#: scenarios ``repro record`` / ``repro whatif`` understand
SCENARIOS = ("fig7", "nondedicated")

#: metric keys the delta report compares (must be numeric leaves)
DELTA_KEYS = ("elapsed_s", "fetch_p50_s", "fetch_p95_s", "fetch_max_s",
              "fetch_mean_s", "refetches", "fetches", "local_reads",
              "remote_reads", "disk_reads", "degraded", "reclaims",
              "recruits", "evictions", "requests", "bytes_read")


@dataclass(frozen=True)
class WhatIfPolicy:
    """The replayable policy surface of one run.

    ``replacement`` is the region-cache policy
    (:data:`repro.core.policy.POLICIES`); ``idle_window_s`` and
    ``load_threshold`` feed the recruitment predicate (None keeps the
    scenario default).  Only the non-dedicated scenario has that
    predicate: a run of ``fig7`` that sets either raises ValueError.
    """

    replacement: str = "lru"
    idle_window_s: Optional[float] = None
    load_threshold: Optional[float] = None

    def to_meta(self) -> dict:
        """JSON form stored in a run directory's ``meta.json``."""
        return {"replacement": self.replacement,
                "idle_window_s": self.idle_window_s,
                "load_threshold": self.load_threshold}

    @classmethod
    def from_meta(cls, meta: dict) -> "WhatIfPolicy":
        return cls(replacement=meta.get("replacement", "lru"),
                   idle_window_s=meta.get("idle_window_s"),
                   load_threshold=meta.get("load_threshold"))

    def override(self, **changes) -> "WhatIfPolicy":
        """A copy with the given (non-None) fields replaced."""
        effective = {k: v for k, v in changes.items() if v is not None}
        return replace(self, **effective)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over a pre-sorted list (pure Python so
    the result is reproducible to the bit across platforms)."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1,
              max(0, int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[idx]


def _round(x: float) -> float:
    return round(float(x), 9)


def collect_metrics(runner, result, eventlog) -> dict:
    """The canonical metrics dict stored in ``meta.json`` and compared
    by the delta report, from the books of a
    :class:`~repro.faults.chaos.ChaosRunner`.  All floats rounded to 9
    decimals so canonical JSON is stable."""
    lat = sorted(runner.latencies_s)
    reclaims = len(eventlog.query(component="rmd",
                                  event="node.reclaimed")) \
        + len(eventlog.query(component="imd", event="imd.killed"))
    recruits = len(eventlog.query(component="rmd",
                                  event="node.recruited")) \
        + len(eventlog.query(component="imd", event="imd.start"))
    return {
        "elapsed_s": _round(result.elapsed_s),
        "iteration_s": [_round(t) for t in result.iteration_s],
        "requests": int(result.requests),
        "bytes_read": int(result.bytes_read),
        "fetch_mean_s": _round(sum(lat) / len(lat)) if lat else 0.0,
        "fetch_p50_s": _round(_percentile(lat, 0.50)),
        "fetch_p95_s": _round(_percentile(lat, 0.95)),
        "fetch_max_s": _round(lat[-1]) if lat else 0.0,
        "local_reads": runner.local_reads,
        "remote_reads": runner.remote_reads,
        "disk_reads": runner.disk_reads,
        "fetches": runner.fetches,
        "refetches": runner.refetches,
        "degraded": runner.degraded,
        "reclaims": reclaims,
        "recruits": recruits,
        "evictions": int(runner.cache.stats.count("evictions")),
    }


def run_scenario(scenario: str, seed: int = 0,
                 policy: Optional[WhatIfPolicy] = None,
                 chaos: bool = False, horizon_s: float = 20.0,
                 interval_s: float = 0.25,
                 eventlog_level: str = "debug",
                 audit: str = "off",
                 telemetry=None, eventlog=None,
                 slo: bool = False) -> dict:
    """Run one recordable scenario with full observability.

    Returns ``{"telemetry", "eventlog", "auditor", "result", "metrics",
    "meta"}``.  The same (scenario, seed, policy, chaos) always produces
    byte-identical metrics and exports.  Pre-created ``telemetry`` /
    ``eventlog`` engines may be passed in so an already-running fleet
    server (``repro serve <scenario>``) can watch the run live while it
    executes; by default fresh engines are created.

    ``slo=True`` additionally traces the run through an SLI collector
    and SLO engine (:mod:`repro.obs.slo`): the telemetry gains
    ``slo``-kind series (per-kind tail percentiles, per-spec compliance
    and burn rates), the event log gains ``slo/*`` records, and the
    returned dict gains ``"sli"``, ``"slo"`` and ``"slo_report"``.
    SLI collection only *reads* spans, so metrics and virtual times are
    identical either way.
    """
    from repro.obs.audit import make_auditor
    from repro.obs.eventlog import EventLog, install_eventlog
    from repro.obs.timeseries import Telemetry, install_telemetry
    from repro.obs.tracer import Tracer, install

    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}, "
                         f"expected one of {SCENARIOS}")
    policy = policy or WhatIfPolicy()
    # the set recruitment fields, as IdlePolicy field changes
    idle = {k: v for k, v in (("window_s", policy.idle_window_s),
                              ("load_threshold", policy.load_threshold))
            if v is not None}
    if telemetry is None:
        telemetry = Telemetry(interval_s=interval_s)
    if eventlog is None:
        eventlog = EventLog(level=eventlog_level, telemetry=telemetry)
    sli = engine = tracer = None
    prev_tracer = None
    if slo:
        from repro.obs.slo import SliCollector, SloEngine, attach_sli
        tracer = Tracer()
        sli = SliCollector()
        attach_sli(tracer, sli)
        engine = SloEngine(sli=sli, eventlog=eventlog)
        sli.engine = engine
        telemetry.slo = engine
        prev_tracer = install(tracer)
    # the auditor rides the nemesis (audit after every injection/heal)
    # and the teardown pass, NOT the periodic sampler: during a fault
    # window directory entries are invalidated lazily (epoch checks), so
    # a mid-fault sample legitimately sees transient inconsistencies
    auditor = make_auditor(audit, eventlog=eventlog)
    prev_t = install_telemetry(telemetry)
    prev_e = install_eventlog(eventlog)
    try:
        out = build_scenario(scenario, seed, faults=chaos, auditor=auditor,
                             horizon_s=horizon_s,
                             policy=policy.replacement, **idle)
        telemetry.finalize()
        insights = build_insights(telemetry, eventlog)
        emit_insights(eventlog, out["sim"], insights)
    finally:
        install_telemetry(prev_t)
        install_eventlog(prev_e)
        if slo:
            install(prev_tracer)
    metrics = collect_metrics(out["runner"], out["result"], eventlog)
    meta = {"scenario": scenario, "seed": seed, "chaos": bool(chaos),
            "horizon_s": horizon_s, "interval_s": interval_s,
            "policy": policy.to_meta(), "metrics": metrics}
    result = {"telemetry": telemetry, "eventlog": eventlog,
              "auditor": auditor, "result": out["result"],
              "metrics": metrics, "insights": insights,
              "meta": jsonify(meta)}
    if slo:
        from repro.obs.slo import build_slo_report
        result["sli"] = sli
        result["slo"] = engine
        result["slo_report"] = build_slo_report(
            sli, engine, meta={"scenario": scenario, "seed": seed,
                               "chaos": bool(chaos)})
    return result


# -- record / replay ---------------------------------------------------------

def record_run(out_dir: str, scenario: str, seed: int = 0,
               policy: Optional[WhatIfPolicy] = None,
               chaos: bool = False, horizon_s: float = 20.0,
               interval_s: float = 0.25, audit: str = "off") -> dict:
    """``repro record``: run a scenario and write its run directory.
    Returns the meta dict written.  Recordings carry the SLO layer
    (``slo``-kind telemetry series and ``slo/*`` events) so ``repro
    serve`` can answer ``/api/slo`` over them."""
    run = run_scenario(scenario, seed=seed, policy=policy, chaos=chaos,
                       horizon_s=horizon_s, interval_s=interval_s,
                       audit=audit, slo=True)
    return write_run_dir(out_dir, run["telemetry"], run["eventlog"],
                         meta=run["meta"])


def run_whatif(baseline: "RunDir | str", replacement: Optional[str] = None,
               idle_window_s: Optional[float] = None,
               load_threshold: Optional[float] = None) -> dict:
    """Replay a recorded run under a (possibly) changed policy.

    Returns the structured what-if document: baseline and replay policy
    + metrics, per-metric delta, and whether the policy actually
    changed (an unchanged replay must reproduce the baseline metrics
    exactly — asserted by tests and the CI fleet smoke).
    """
    if isinstance(baseline, str):
        baseline = load_run_dir(baseline)
    meta = baseline.meta
    base_policy = WhatIfPolicy.from_meta(meta.get("policy", {}))
    replay_policy = base_policy.override(
        replacement=replacement, idle_window_s=idle_window_s,
        load_threshold=load_threshold)
    replay = run_scenario(
        meta["scenario"], seed=int(meta["seed"]),
        policy=replay_policy, chaos=bool(meta.get("chaos", False)),
        horizon_s=float(meta.get("horizon_s", 20.0)),
        interval_s=float(meta.get("interval_s", 0.25)))
    base_metrics = meta.get("metrics", {})
    delta = {}
    for key in DELTA_KEYS:
        a = base_metrics.get(key)
        b = replay["metrics"].get(key)
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            delta[key] = _round(b - a)
    return jsonify({
        "scenario": meta["scenario"], "seed": meta["seed"],
        "chaos": bool(meta.get("chaos", False)),
        "changed": replay_policy != base_policy,
        "baseline": {"policy": base_policy.to_meta(),
                     "metrics": base_metrics},
        "replay": {"policy": replay_policy.to_meta(),
                   "metrics": replay["metrics"]},
        "delta": delta,
    })


def format_whatif(doc: dict) -> str:
    """Human summary of one what-if document (the CLI prints this)."""
    lines = [f"whatif[{doc['scenario']}] seed={doc['seed']}"
             + (" chaos" if doc.get("chaos") else "")]
    base, rep = doc["baseline"]["policy"], doc["replay"]["policy"]
    changes = [f"{k}: {base[k]!r} -> {rep[k]!r}"
               for k in sorted(base) if base[k] != rep[k]]
    lines.append("  policy: " + ("; ".join(changes) if changes
                                 else "unchanged (identity replay)"))
    delta = doc["delta"]
    bm, rm = doc["baseline"]["metrics"], doc["replay"]["metrics"]
    for key in DELTA_KEYS:
        if key not in delta:
            continue
        d = delta[key]
        marker = "=" if d == 0 else ("+" if d > 0 else "")
        lines.append(f"  {key:<14s} {bm.get(key)!r:>14} -> "
                     f"{rm.get(key)!r:>14}  ({marker}{d:g})")
    if not doc["changed"] and all(v == 0 for v in delta.values()):
        lines.append("  identity replay reproduced the baseline exactly")
    return "\n".join(lines)
