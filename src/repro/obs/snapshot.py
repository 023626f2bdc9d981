"""Per-run metrics snapshots: every Recorder in the system, as JSON.

Benchmark trajectories only become debuggable when two runs can be
*diffed*.  A snapshot walks the global :class:`~repro.metrics.recorder.
Recorder` registry (every daemon, NIC, disk, cache and library owns one)
and serializes counters plus sample summaries — count / mean / min /
max / p50 / p90 / p99 — with stable key sorting, so ``diff run_a.json
run_b.json`` pinpoints exactly which component's behaviour moved between
two code versions or two configurations.

Recorder names can repeat or embed ephemeral identifiers (several
simulators in one experiment each build their own ``cmd`` and their own
per-endpoint ``sock.<host>`` / ``rpc.client.<host>``), which would make
snapshots enormous and un-diffable.  Snapshots therefore *group*
recorders by a normalized name — trailing ``:port`` / ``#n`` components
are stripped — and merge each group: counters are summed, sample lists
pooled.  The per-group ``instances`` field records how many recorders
were merged.

The CLI's ``--metrics-out run.json`` writes one of these after any
experiment.
"""

from __future__ import annotations

import json
import re
from typing import IO, Iterable, Optional

from repro.metrics.recorder import Recorder, iter_recorders
from repro.obs.files import atomic_write

#: sample quantiles included in every snapshot
QUANTILES = (0.5, 0.9, 0.99)

#: trailing ephemeral id parts stripped from recorder names when grouping
_EPHEMERAL = re.compile(r"(:\d+|#\d+)+$")


def group_name(name: str) -> str:
    """Normalize a recorder name for grouping (drop ports / instance ids)."""
    return _EPHEMERAL.sub("", name) or "recorder"


def _summary(vals: list[float]) -> dict:
    ordered = sorted(vals)
    n = len(ordered)
    summary = {
        "count": n,
        "mean": sum(ordered) / n if n else 0.0,
        "min": ordered[0] if n else 0.0,
        "max": ordered[-1] if n else 0.0,
    }
    for q in QUANTILES:
        if not n:
            summary[f"p{int(q * 100)}"] = 0.0
            continue
        pos = q * (n - 1)
        lo = int(pos)
        frac = pos - lo
        if frac == 0.0 or lo + 1 >= n:
            summary[f"p{int(q * 100)}"] = ordered[lo]
        else:
            summary[f"p{int(q * 100)}"] = \
                ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac
    return summary


def merged_snapshot(recs: Iterable[Recorder]) -> dict:
    """Summarize a group of recorders: summed counters, pooled samples."""
    counters: dict[str, float] = {}
    pooled: dict[str, list[float]] = {}
    n = 0
    for rec in recs:
        n += 1
        for key in rec.counter_names():
            counters[key] = counters.get(key, 0.0) + rec.count(key)
        for key in rec.sample_names():
            pooled.setdefault(key, []).extend(rec.samples(key))
    return {
        "instances": n,
        "counters": counters,
        "samples": {k: _summary(v) for k, v in pooled.items()},
    }


def recorder_snapshot(rec: Recorder) -> dict:
    """Summarize one recorder: raw counters, per-key sample summaries."""
    return merged_snapshot([rec])


def snapshot(meta: Optional[dict] = None) -> dict:
    """Snapshot every live recorder, grouped by normalized name.

    "Live" means not yet freed: a recorder not held by
    :func:`~repro.metrics.recorder.start_collection` lives as long as
    its owner.  Per-event objects own none (sockets and RPC clients
    share their endpoint's), and they form no reference cycles
    (docs/PERFORMANCE.md §1), so a snapshot taken while a run's
    simulation is alive is the same whether or when the collector ran.
    """
    groups: dict[str, list[Recorder]] = {}
    for rec in iter_recorders():
        groups.setdefault(group_name(rec.name), []).append(rec)
    return {
        "meta": meta or {},
        "recorders": {name: merged_snapshot(recs)
                      for name, recs in groups.items()},
    }


def dump_snapshot(fp: IO[str], meta: Optional[dict] = None) -> None:
    """Serialize the current metrics snapshot to ``fp`` as JSON."""
    json.dump(snapshot(meta), fp, sort_keys=True, indent=1)


def write_snapshot(path: str, meta: Optional[dict] = None) -> int:
    """Write a snapshot to ``path``; returns the recorder-group count."""
    snap = snapshot(meta)
    with atomic_write(path) as fp:
        json.dump(snap, fp, sort_keys=True, indent=1)
        fp.write("\n")
    return len(snap["recorders"])
