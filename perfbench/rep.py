"""One simulation of one workload at one seed, in this (fresh) process.

Usage: ``python3 perfbench/rep.py <workload> <seed> <traced 0|1> [<dump>]``
with ``src`` on ``PYTHONPATH``.  Prints one JSON object as its last
stdout line: host times, peak RSS, the workload's virtual outputs, an
exact fingerprint of those outputs and the failed checks.  With
``traced`` = 1 the per-layer tracer (:mod:`layers`) is installed first
and its raw counts are included; ``<dump>`` names a file for the
per-function profile.

Host-time measurement wraps only constructors and a few entry points
from here: ``setup_cpu_s`` is the CPU time spent inside platform and
workload-object construction (outermost call only), ``run_cpu_s`` the
rest of the driver call, both without the speedometer's reference
blocks.  ``setup_s`` and ``run_s`` are the same CPU times divided by the
machine's speed relative to the reference speed, sampled throughout the
driver call (:mod:`calib`).  Request latencies are virtual: for the batch
workloads the duration of each ``RegionCache.cread``/``cwrite`` call,
for the serving tier each completed request's latency from arrival as
folded into its ``KindStats`` (refused requests are counted by the
tier's ``rejected``, not given a latency).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import resource
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calib  # noqa: E402
import workloads as wl  # noqa: E402

#: virtual seconds a desktop cluster runs on, owners stopped, before audit
SETTLE_S = 5.0


class Hooks:
    """Setup timing, instance capture, event and latency counting."""

    def __init__(self, clock):
        #: CPU clock that excludes the speedometer's reference blocks
        self.clock = clock
        self.setup_s = 0.0
        self.hosts_built = 0
        self.events = 0
        self.latencies = []
        self._depth = 0
        #: requests of every replayed trace, and every serving tier
        self.trace_lengths = []
        self.tiers = []
        self._platforms = []
        self._clusters = []
        self._imds = []

    def install(self):
        import repro.exp.cache
        import repro.exp.nondedicated as nd
        from repro.cluster.owner import Owner
        from repro.core.imd import IdleMemoryDaemon
        from repro.core.regionlib import RegionCache
        from repro.exp.platform import Platform
        from repro.obs.slo.sli import KindStats
        from repro.sim.kernel import Simulator
        from repro.workloads.app import SyntheticRunner, TraceRunner
        from repro.workloads.serving import ServingTier

        def on_platform(p):
            self.hosts_built += len(p.cluster.workstations)
            if p.dodo_enabled:
                self._platforms.append(p)

        self._time_init(Platform, on_platform)
        self._time_init(Owner)
        init_imd = IdleMemoryDaemon.__init__

        @functools.wraps(init_imd)
        def imd_init(imd, *args, **kwargs):
            init_imd(imd, *args, **kwargs)
            self._imds.append(imd)
        IdleMemoryDaemon.__init__ = imd_init
        self._time_init(SyntheticRunner)
        self._time_init(TraceRunner,
                        lambda r: self.trace_lengths.append(len(r.trace)))
        self._time_init(ServingTier, self.tiers.append)

        build = self._timed(nd.build_cluster)

        @functools.wraps(nd.build_cluster)
        def build_cluster(*args, **kwargs):
            out = build(*args, **kwargs)
            self.hosts_built += len(out[0].workstations)
            self._clusters.append(out)
            return out
        nd.build_cluster = repro.exp.cache.build_cluster = build_cluster

        run = Simulator.run

        @functools.wraps(run)
        def sim_run(sim, *args, **kwargs):
            before = sim.events_processed
            try:
                return run(sim, *args, **kwargs)
            finally:
                self.events += sim.events_processed - before
        Simulator.run = sim_run

        for name in ("cread", "cwrite"):
            setattr(RegionCache, name,
                    self._latency(getattr(RegionCache, name)))

        observe, lat = KindStats.observe, self.latencies

        @functools.wraps(observe)
        def observe_served(stats, record):
            observe(stats, record)
            if record.kind == "serve" and record.outcome != "failed":
                lat.append(record.latency)
        KindStats.observe = observe_served

    def _timed(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._depth += 1
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if not self._depth:
                    self.setup_s += self.clock() - t0
        return timed

    def _time_init(self, cls, after=None):
        init = self._timed(cls.__init__)

        @functools.wraps(cls.__init__)
        def timed_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if after is not None:
                after(obj)
        cls.__init__ = timed_init

    def _latency(self, op):
        lat = self.latencies

        @functools.wraps(op)
        def timed_op(cache, *args, **kwargs):
            t0 = cache.sim.now
            result = yield from op(cache, *args, **kwargs)
            lat.append(cache.sim.now - t0)
            return result
        return timed_op

    def audit(self):
        """Findings of the invariant auditor over every Dodo platform and
        every desktop cluster the workload built (with every imd
        incarnation, like ``Platform.audit``)."""
        from repro.obs.audit import Auditor
        found = sum(len(p.audit(teardown=True)) for p in self._platforms)
        for cluster, _cfg, cmd, _rmds, owners in self._clusters:
            # owners keep reclaiming (and the manager keeps migrating)
            # after the application ends: stop them and let whatever is
            # in flight settle before checking the accounting
            for owner in owners:
                owner.stop()
            cluster.sim.run(until=cluster.sim.now + SETTLE_S)
            parts = [("workstation", ws.name, ws)
                     for ws in cluster.workstations.values()]
            parts += [("nic", ws.name, ws.nic)
                      for ws in cluster.workstations.values()]
            parts.append(("network", "network", cluster.network))
            if cmd is not None:
                parts.append(("manager", "cmd", cmd))
            parts += [("imd", imd.ws.name, imd) for imd in self._imds
                      if cluster.workstations.get(imd.ws.name) is imd.ws]
            found += len(Auditor(mode="warn").audit_components(
                cluster.sim, parts, teardown=True))
        return found


def percentile(values, q):
    """Linear-interpolated ``q``-quantile (numpy's default method)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    if lo + 1 >= len(ordered):
        return ordered[lo]
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * (pos - lo)


def tail_quantile(n):
    """The highest quantile with at least ten samples beyond it."""
    return max(0.5, 1.0 - 10.0 / n) if n else 0.5


def fingerprint(out):
    """Exact digest of the virtual outputs (floats by their repr)."""
    blob = json.dumps(out, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def main(argv):
    name, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    dump = argv[3] if len(argv) > 3 else None
    spec = wl.WORKLOADS[name]
    tracer = None
    if traced:
        from layers import LayerTracer
        tracer = LayerTracer()
    speedo = calib.Speedometer(
        on_block=tracer.exclude if tracer is not None else None)
    hooks = Hooks(speedo.clock)
    hooks.install()
    if tracer is not None:
        tracer.install()
        tracer.start()
    speedo.start()
    t0, c0 = perf_counter(), speedo.clock()
    out = spec["run"](seed, hooks)
    wall, cpu = perf_counter() - t0, speedo.clock() - c0
    speedo.stop()
    if tracer is not None:
        tracer.stop()
    speed = speedo.speed()
    out["events"] = hooks.events
    if "audit_findings" not in out:  # the serving driver audits itself
        out["audit_findings"] = hooks.audit()
    lat = hooks.latencies
    out["req_count"] = len(lat)
    out["req_p50_ms"] = percentile(lat, 0.50) * 1e3
    out["req_p99_ms"] = percentile(lat, 0.99) * 1e3
    out["req_tail_ms"] = percentile(lat, tail_quantile(len(lat))) * 1e3
    errors = wl.check(name, seed, out)
    result = {
        "workload": name, "seed": seed, "traced": traced,
        "setup_s": hooks.setup_s / speed,
        "run_s": (cpu - hooks.setup_s) / speed,
        "setup_cpu_s": hooks.setup_s,
        "run_cpu_s": cpu - hooks.setup_s,
        "wall_s": wall,
        "speed": speed,
        "hosts_built": hooks.hosts_built,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "out": out,
        "fingerprint": fingerprint(out),
        "errors": errors,
    }
    if tracer is not None:
        result["layers"] = raw_layer_counts(tracer)
        if dump:
            with open(dump, "w") as f:
                json.dump(tracer.dump(), f, indent=1)
    print(json.dumps(result, default=repr))


def raw_layer_counts(t):
    """Everything the per-layer metrics are computed from (one sim)."""
    rl, disk, net = "repro.core.regionlib", "repro.storage.disk", \
        "repro.net.network"
    mgr = "repro.core.manager"
    rpc, mread = t.virtual["rpc"], t.virtual["mread"]
    mgr_waits = t.waits.get(mgr, [])
    return {
        "self_s": t.layer_self(),
        "wall_s": t.wall_s,
        "sim.processes": t.calls_of("repro.sim.kernel.Simulator.process"),
        "net.dgrams": t.calls_of("repro.net.usocket.USocket.send"),
        "net.fast_dgrams": t.counter(net, "fastpath.dgrams"),
        "net.dgram_fallbacks": t.counter(net, "fastpath.dgram_fallbacks"),
        "net.bulk_transfers": t.calls_of("repro.net.bulk.send_bulk"),
        "net.fast_bulk": t.counter(net, "fastpath.transfers"),
        "net.sockets": t.calls_of("repro.net.usocket.USocket.__init__"),
        "net.rpc_clients": t.calls_of("repro.net.rpc.RpcClient.__init__"),
        "net.rpc_calls": t.calls_of("repro.net.rpc.RpcClient.call"),
        "net.rpc_retries": t.counter("repro.net.rpc", "calls.retried"),
        "net.rpc_p99_ms": percentile(rpc, 0.99) * 1e3 if rpc else 0.0,
        "core.alloc_calls": t.calls_of(
            "repro.core.manager.CentralManager._h_alloc"),
        "core.alloc_host_s": t.incl_of(
            "repro.core.manager.CentralManager._h_alloc"),
        "core.mread_calls": t.calls_of(
            "repro.core.runtime.DodoRuntime.mread"),
        "core.mwrite_calls": t.calls_of(
            "repro.core.runtime.DodoRuntime.mwrite",
            "repro.core.runtime.DodoRuntime.mpush"),
        "core.mread_p99_ms": percentile(mread, 0.99) * 1e3
        if mread else 0.0,
        "core.mgr_busy_s": t.holds.get(mgr, 0.0),
        "core.mgr_wait_ms": (sum(mgr_waits) / len(mgr_waits) * 1e3
                             if mgr_waits else 0.0),
        "core.shard_redirects": (
            t.counter("repro.core.runtime", "shard.not_primary")
            + t.counter("repro.core.runtime", "shard.wrong_shard")),
        "core.repl_flushes": t.calls_of(
            "repro.core.manager.CentralManager._h_repl_apply"),
        "core.local_hits": t.counter(rl, "cread.local_hits"),
        "core.remote_hits": t.counter(rl, "cread.remote_hits"),
        "core.disk_reads": t.counter(rl, "cread.disk_reads"),
        "core.migrated_hits": t.counter(rl, "cread.migrated_hits"),
        "core.evictions": t.counter("repro.core.imd", "cache.evictions"),
        "core.read_rejects": t.counter("repro.core.imd", "read_rejects"),
        "core.migrated_regions": t.counter(mgr, "migrate.ok"),
        "storage.disk_ops": (t.counter(disk, "read.ops")
                             + t.counter(disk, "write.ops")),
        "storage.disk_busy_s": t.sample_sum(disk, "service_s"),
        "storage.disk_wait_s": sum(t.waits.get(disk, [])),
        "storage.disk_batches": t.counter(disk, "fastpath.batches"),
        "storage.disk_requests": t.calls_of(
            *(f"repro.storage.disk.Disk.{m}" for m in
              ("read", "write", "read_batch", "write_batch"))),
        "storage.pc_hits": t.counter("repro.storage.pagecache", "hits"),
        "storage.pc_misses": t.counter("repro.storage.pagecache",
                                       "misses"),
        "cluster.recruits": t.counter("repro.core.rmd", "recruits"),
        "cluster.reclaims": t.counter("repro.core.rmd", "reclaims"),
        "metrics.recorders": len(t.recorders),
    }


if __name__ == "__main__":
    main(sys.argv[1:])
