"""Fetch-path latency decomposition — the shape of the paper's Tables 3/4.

The paper's core evidence is per-primitive latency accounting: where the
time of one ``dodo_get`` (our ``mread``) or ``dodo_free`` goes across
the runtime library, the network, the daemons and the disk.  This module
reproduces that decomposition from a span trace.

For every root span (each ``mread`` by default) the window ``[start,
end]`` is swept over the elementary intervals induced by the boundaries
of the root's *causal descendants* (children via span parent links,
which cross both process spawns and the RPC wire).  Each interval is
attributed to the *innermost* active descendant — the one that started
last (ties broken toward the shorter span) — and that span's component
is mapped to one of the paper's layers.  Intervals covered by no
descendant belong to the library (the root's own code).  Because every
instant of every window is attributed to exactly one layer, the
per-layer means **sum to the end-to-end mean exactly** (up to float
rounding), which is what makes the table trustworthy: nothing is
double-counted and nothing is lost.  Restricting the sweep to causal
descendants keeps concurrent clients (or several simulations traced
into one tracer) from polluting each other's windows.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.metrics.report import format_table
from repro.obs.tracer import Span

#: tracer component -> request stage (anything unknown is client code);
#: the per-request SLI blame table (:mod:`repro.obs.slo.sli`) uses the
#: stages as they are, the per-layer breakdown here folds them into
#: the paper's layers
STAGE_OF = {
    "lib": "client",
    "regionlib": "client",
    "kernel": "client",
    "rpc": "rpc",
    "net": "net",
    "imd": "imd",
    "rmd": "imd",
    "manager": "manager",
    "cmd": "manager",
    "disk": "disk",
    "fs": "disk",
    "pagecache": "disk",
}

#: request stage -> paper layer
_STAGE_LAYER = {
    "client": "library",
    "rpc": "network",
    "net": "network",
    "imd": "daemon",
    "manager": "manager",
    "disk": "disk",
}

#: presentation order of the known layers
LAYER_ORDER = ["library", "manager", "network", "daemon", "disk"]


def stage_of(component: str) -> str:
    """Map a tracer component name to its request stage."""
    return STAGE_OF.get(component, "client")


def layer_of(component: str) -> str:
    """Map a tracer component name to its latency-breakdown layer, the
    layer of its stage.  Unknown components map to themselves so new
    instrumentation shows up in the table instead of disappearing."""
    if component in STAGE_OF:
        return _STAGE_LAYER[STAGE_OF[component]]
    return component


def sweep_window(root: Span, inner: list[Span],
                 bucket_of: Callable[[str], str]):
    """Attribute one root window over its elementary intervals.

    Each interval goes to the innermost active causal descendant in
    ``inner`` (latest start, ties toward the shorter span), mapped
    through ``bucket_of``; uncovered time goes to the root's own bucket.
    Returns ``(seconds per bucket, segments)``: the seconds sum to the
    root's duration exactly, and the merged ``(lo, hi, bucket)``
    segments tile the window (the SLI critical-path track).  Both the
    per-layer breakdown here and :mod:`repro.obs.slo.sli` use it.
    """
    t0, t1 = root.start, root.end
    bounds = {t0, t1}
    for s in inner:
        bounds.add(min(max(s.start, t0), t1))
        bounds.add(min(max(s.end, t0), t1))
    cuts = sorted(bounds)
    root_bucket = bucket_of(root.component)
    acc: dict[str, float] = {}
    segments: list[tuple[float, float, str]] = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        covering = [s for s in inner if s.start <= lo and s.end >= hi]
        if covering:
            pick = max(covering, key=lambda s: (s.start, s.start - s.end))
            bucket = bucket_of(pick.component)
        else:
            bucket = root_bucket
        acc[bucket] = acc.get(bucket, 0.0) + (hi - lo)
        if segments and segments[-1][2] == bucket \
                and segments[-1][1] == lo:
            segments[-1] = (segments[-1][0], hi, bucket)
        else:
            segments.append((lo, hi, bucket))
    return acc, segments


def fetch_breakdown(spans: Iterable[Span],
                    root_name: str = "mread") -> dict:
    """Decompose the mean latency of every ``root_name`` span by layer.

    Returns ``{"root": name, "count": n, "mean_s": end-to-end mean,
    "layers": {layer: mean seconds}}``; ``count`` is 0 when the trace
    holds no such spans (the caller should skip the report then).
    """
    finished = [s for s in spans if s.end is not None]
    children: dict[int, list[Span]] = {}
    for s in finished:
        children.setdefault(s.parent_id, []).append(s)
    roots = [s for s in finished if s.name == root_name]
    totals: dict[str, float] = {}
    whole = 0.0
    for root in roots:
        inner: list[Span] = []
        frontier = [root.span_id]
        while frontier:
            pid = frontier.pop()
            for child in children.get(pid, ()):
                frontier.append(child.span_id)
                if child.end > root.start and child.start < root.end:
                    inner.append(child)
        layers, _ = sweep_window(root, inner, layer_of)
        for layer, secs in layers.items():
            totals[layer] = totals.get(layer, 0.0) + secs
        whole += root.duration
    n = len(roots)
    return {
        "root": root_name,
        "count": n,
        "mean_s": whole / n if n else 0.0,
        "layers": {k: v / n for k, v in totals.items()} if n else {},
    }


def format_fetch_breakdown(breakdown: dict,
                           title: Optional[str] = None) -> str:
    """Render a breakdown as the paper's per-layer latency table."""
    if title is None:
        title = (f"{breakdown['root']} latency breakdown "
                 f"({breakdown['count']} calls, Tables 3/4 shape)")
    layers = breakdown["layers"]
    order = [l for l in LAYER_ORDER if l in layers] \
        + sorted(set(layers) - set(LAYER_ORDER))
    mean = breakdown["mean_s"]
    rows = []
    for layer in order:
        secs = layers[layer]
        share = 100.0 * secs / mean if mean else 0.0
        rows.append([layer, f"{secs * 1e3:.3f}", f"{share:.1f}%"])
    rows.append(["total", f"{mean * 1e3:.3f}", "100.0%"])
    return format_table(["layer", "mean ms", "share"], rows, title=title)
