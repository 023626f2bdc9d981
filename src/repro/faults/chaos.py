"""Seed-replayable chaos runs: workload + nemesis + auditor + event log.

``run_chaos("fig7", seed=N)`` builds a scaled-down version of the named
experiment's platform, generates a random :class:`FaultPlan` from the
seed (or takes one via ``plan=``), runs the workload while the nemesis
executes the schedule, and audits cluster invariants after every
injection, every heal, and at teardown.  The returned bundle carries the
plan (exportable as JSON), the structured event log (its JSONL dump is
byte-identical across runs of the same seed+plan — asserted in
``tests/faults/test_chaos.py``), the auditor, the workload result and
the runner that produced it.

The same seed drives *both* the schedule generator and the simulator, so
one integer fully reproduces a failing run; alternatively, a previously
exported plan JSON (which embeds its seed) replays it on its own.

Scenarios are the rows of one table, :data:`SCENARIOS`, and
:func:`build_scenario` is the one place a scenario is built: the what-if
replay (:mod:`repro.obs.fleet.whatif`) runs the same builder without
faults or with a changed policy.  The scenarios:

* ``"fig7"`` — the dedicated Section 5.1 platform (scaled down to four
  memory hosts) under a hotcold synthetic workload, the same data path
  the Figure 7 applications exercise.
* ``"nondedicated"`` — the Section 5.3.1 desktop cluster with resource
  monitors and stochastic owners; faults land on top of the normal
  recruit/reclaim churn.
* ``"failover"`` — the sharded platform: a two-shard replicated
  region directory, with ``manager_crash`` events drawn per shard so
  the nemesis crashes shard primaries mid-workload and the backups
  promote themselves (the manager hosts are protected from host-level
  faults — directory loss is exercised through the crash/promote path,
  not by nuking the node under it).

Every scenario's config enables the hardening this subsystem exists to
exercise: exponential RPC backoff with jitter, imd heartbeat
re-registration (so daemons re-attach after a manager restart), and
client re-registration on manager-incarnation change.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.exp.nondedicated import (DesktopPlatform, NonDedicatedParams,
                                    desktop_config)
from repro.exp.platform import PLATFORM_CONFIG, Platform, PlatformParams
from repro.faults.generate import random_plan
from repro.faults.nemesis import Nemesis
from repro.faults.plan import FaultPlan
from repro.sim import Simulator
from repro.workloads.app import SyntheticRunner
from repro.workloads.synthetic import SyntheticParams

MB = 1024 * 1024


class ChaosRunner(SyntheticRunner):
    """A fault-tolerant synthetic runner that keeps the books of its
    data path.

    Under injected faults the Dodo data path may fail outright (manager
    unreachable at ``copen`` time, region lost mid-``cread``); a real
    application would fall back to the file system, so this runner does
    too, counting each such request in ``degraded`` instead of raising.
    Every request's virtual-time latency goes to ``latencies_s`` and
    every served read is classified local, remote or disk.  A *fetch*
    is a read served from beyond the local region cache; a *refetch* is
    any fetch of a region after its first (the cost reclaim churn
    imposes on guests).  The books read only the clock and counters,
    so results stay bit-identical to :class:`SyntheticRunner`'s.
    """

    def __init__(self, platform, params, use_dodo: bool = True,
                 policy: str = "lru"):
        super().__init__(platform, params, use_dodo=use_dodo,
                         policy=policy)
        self.degraded = 0
        self.latencies_s: list[float] = []
        self.local_reads = 0
        self.remote_reads = 0
        self.disk_reads = 0
        self.fetches = 0
        self.refetches = 0
        self._fetched: set[int] = set()

    def _read(self, offset: int, length: int):
        sim = self.platform.sim
        t0 = sim.now
        if not self.use_dodo:
            self.disk_reads += 1
            yield self.fs.read(self.fh, offset, length)
        elif not (yield from self._cached_read(offset, length)):
            self.degraded += 1
            yield self.fs.read(self.fh, offset, length)
        self.latencies_s.append(sim.now - t0)

    def _cached_read(self, offset: int, length: int):
        """Read through the region cache and classify the read; False
        when the Dodo path failed."""
        ridx = offset // self.region_bytes
        crd = self._crds.get(ridx)
        if crd is None:
            crd, err = yield from self.cache.copen(
                self.region_bytes, self.fh.fd, ridx * self.region_bytes)
            if err != 0:
                return False
            self._crds[ridx] = crd
        stats = self.cache.stats
        remote = stats.count("cread.remote_hits")
        disk = stats.count("cread.disk_reads")
        _, err, _ = yield from self.cache.cread(
            crd, offset - ridx * self.region_bytes, length)
        if err != 0:
            return False
        remote = stats.count("cread.remote_hits") - remote
        disk = stats.count("cread.disk_reads") - disk
        if not (remote or disk):
            self.local_reads += 1
            return True
        if remote >= disk:
            self.remote_reads += 1
        else:
            self.disk_reads += 1
        self.fetches += 1
        if ridx in self._fetched:
            self.refetches += 1
        self._fetched.add(ridx)
        return True


@dataclass(frozen=True)
class Scenario:
    """One entry of the scenario table."""

    #: "dedicated" (a :class:`Platform` over :data:`DEDICATED`) or
    #: "desktop" (a :class:`DesktopPlatform` over :data:`DESKTOP`)
    testbed: str
    #: every host a fault may target, in plan-generation order
    hosts: tuple
    #: hosts never crashed or flapped: the app node and the managers
    protected: tuple
    #: fault kinds the plan draws from (None: every kind)
    kinds: Optional[tuple] = None
    #: directory shards, each with a replicated backup (None: one
    #: unreplicated manager)
    shards: Optional[int] = None
    #: seconds past the idle window the resource monitors get to recruit
    #: before the workload and the first fault start (None: no warm-up)
    warmup_s: Optional[float] = None


_MEM_HOSTS = tuple(f"mem{i:02d}" for i in range(4))
_SHARD_MANAGERS = ("mgr00", "bak00", "mgr01", "bak01")

#: the dedicated scenarios' testbed: four memory hosts with 2 MB pools
#: under a 2 MB hot/cold dataset
DEDICATED = PlatformParams(
    n_memory_hosts=len(_MEM_HOSTS), imd_pool_bytes=2 * MB,
    local_cache_bytes=512 * 1024, app_fs_cache_dodo=1 * MB,
    app_fs_cache_baseline=4 * MB, disk_capacity_bytes=256 * MB)

#: the desktop scenario's testbed
DESKTOP = NonDedicatedParams(n_desktops=6, idle_window_s=5.0,
                             owner_active_mean_s=30.0)

SCENARIOS = {
    "fig7": Scenario(
        "dedicated", hosts=("app", "mgr") + _MEM_HOSTS,
        protected=("app", "mgr")),
    "nondedicated": Scenario(
        "desktop",
        hosts=("app", "mgr") + tuple(
            f"w{i}" for i in range(DESKTOP.n_desktops)),
        protected=("app", "mgr"), warmup_s=5.0),
    "failover": Scenario(
        "dedicated", hosts=("app",) + _SHARD_MANAGERS + _MEM_HOSTS,
        protected=("app",) + _SHARD_MANAGERS,
        kinds=("host_crash", "nic_flap", "loss_burst", "manager_crash"),
        shards=2),
}

EXPERIMENTS = tuple(SCENARIOS)


def build_scenario(name: str, seed: int, plan: Optional[FaultPlan] = None,
                   faults: bool = True, auditor=None,
                   horizon_s: float = 20.0, policy: str = "lru",
                   cache=None, **idle) -> dict:
    """Build and run one scenario of :data:`SCENARIOS`.

    Builds the simulator and the platform, starts the nemesis on
    ``plan`` (drawn from ``seed`` when None and ``faults`` is set; no
    nemesis when both are off), warms the desktop testbed up, runs a
    :class:`ChaosRunner` with region-cache ``policy`` to completion,
    settles past the last heal when a plan ran, and gives ``auditor``
    a teardown pass when it is on.  ``cache`` opts into elastic
    caching; ``idle`` overrides fields of the desktop testbed's
    :class:`~repro.cluster.idleness.IdlePolicy`.  Returns ``{"plan",
    "sim", "platform", "nemesis", "runner", "result"}``.
    """
    entry = SCENARIOS[name]
    desktop = entry.testbed == "desktop"
    if desktop:
        base = desktop_config(DESKTOP)
        knobs = {"idle_policy": replace(base.idle_policy, **idle)}
    elif idle:
        raise ValueError(
            f"scenario {name!r} has no recruitment rule: the idle-window "
            f"and load-threshold overrides apply to nondedicated only")
    else:
        base = PLATFORM_CONFIG
        knobs = {"shards": entry.shards or 1,
                 "replication": entry.shards is not None}
    if cache is not None:
        knobs["cache"] = cache
    # the hardening this harness exercises stays on without faults too,
    # so fault-free recordings and chaos runs share baselines
    config = replace(base, rpc_backoff_s=0.02, rpc_backoff_jitter=0.25,
                     imd_reregister_s=2.0, **knobs)
    warmup = 0.0
    if entry.warmup_s is not None:
        warmup = config.idle_policy.window_s + entry.warmup_s
    if plan is None and faults:
        # the first fault lands 2 s in, or once the warm-up is over
        plan = random_plan(seed, entry.hosts, horizon_s=warmup + horizon_s,
                           start_s=max(warmup, 2.0),
                           protected=entry.protected, kinds=entry.kinds,
                           shards=entry.shards, experiment=name)
    sim = Simulator(seed=seed)
    # the two testbeds start the nemesis at different moments and the
    # chaos goldens pin both: after the desktop cluster is built and
    # before its warm-up, and inside Platform, before its 0.5-s
    # registration run
    if desktop:
        platform = DesktopPlatform(sim, DESKTOP, config=config)
        nemesis = None
        if plan is not None:
            nemesis = Nemesis(platform, plan, auditor=auditor)
            nemesis.start()
        sim.run(until=warmup)  # let monitors recruit the idle desktops
        dataset_bytes = DESKTOP.dataset_bytes
    else:
        platform = Platform(sim, DEDICATED, dodo=True,
                            config=config, faults=plan,
                            nemesis_auditor=auditor)
        nemesis = platform.nemesis
        dataset_bytes = 2 * MB
    runner = ChaosRunner(platform, SyntheticParams(
        pattern="hotcold", dataset_bytes=dataset_bytes, req_size=8192,
        num_iter=3, compute_s=0.02), policy=policy)
    result = sim.run(until=runner.run())
    if plan is not None:
        _settle(sim, config, plan)
    if auditor is not None and auditor.enabled:
        platform.audit(auditor, teardown=True)
    return {"plan": plan, "sim": sim, "platform": platform,
            "nemesis": nemesis, "runner": runner, "result": result}


def _plan_end(plan: FaultPlan) -> float:
    return max((ev.time + (ev.duration_s or 0.0) for ev in plan),
               default=0.0)


def _settle(sim, config, plan: FaultPlan) -> None:
    """Run past the last heal plus a grace period so lazily-propagated
    state (imd heartbeats, client re-attach) converges before the strict
    teardown audit."""
    grace = 2.0 * max(config.imd_reregister_s, 1.0) + 1.0
    if config.shards > 1 or config.replication:
        # the sharded anti-entropy scrubber needs two full passes to
        # reap a region orphaned moments before the workload ended
        grace += 2.0 * max(config.scrub_interval_s, 0.0) + 1.0
    until = max(sim.now, _plan_end(plan)) + grace
    sim.run(until=until)


def run_chaos(experiment: str = "fig7", seed: int = 0,
              plan: Optional[FaultPlan] = None, audit: str = "raise",
              horizon_s: float = 20.0,
              eventlog_level: str = "debug", cache=None) -> dict:
    """One chaos run; see module docstring.  Returns a dict with keys
    ``plan``, ``eventlog``, ``auditor``, ``result``, ``runner``,
    ``degraded``, ``platform`` (scenario-specific), ``injected`` and
    ``healed``.

    ``cache`` (a :class:`~repro.core.config.CacheConfig`, default None)
    runs the scenario with the elastic-caching subsystem on — the
    differential migration tests replay reclaim storms this way.
    """
    from repro.obs.audit import make_auditor
    from repro.obs.eventlog import EventLog, install_eventlog

    if experiment not in SCENARIOS:
        raise ValueError(f"unknown chaos experiment {experiment!r}, "
                         f"expected one of {EXPERIMENTS}")
    if plan is not None and plan.seed is not None:
        seed = plan.seed
    log = EventLog(level=eventlog_level)
    auditor = make_auditor(audit, eventlog=log)
    previous = install_eventlog(log)
    try:
        run = build_scenario(experiment, seed, plan, auditor=auditor,
                             horizon_s=horizon_s, cache=cache)
    finally:
        install_eventlog(previous)
    nemesis = run["nemesis"]
    return {"experiment": experiment, "seed": seed, "plan": run["plan"],
            "eventlog": log, "auditor": auditor, "result": run["result"],
            "runner": run["runner"], "degraded": run["runner"].degraded,
            "platform": run["platform"], "injected": nemesis.injected,
            "healed": nemesis.healed}


def format_chaos(run: dict) -> str:
    """Human summary of one chaos run (the CLI prints this)."""
    plan = run["plan"]
    auditor = run["auditor"]
    lines = [f"chaos[{run['experiment']}] seed={run['seed']}: "
             f"{len(plan)} scheduled faults, "
             f"{run['injected']} injected, {run['healed']} healed"]
    by_kind: dict[str, int] = {}
    for ev in plan:
        by_kind[ev.kind] = by_kind.get(ev.kind, 0) + 1
    lines.append("  plan: " + ", ".join(
        f"{k}x{v}" for k, v in sorted(by_kind.items())))
    res = run["result"]
    lines.append(f"  workload: {res.requests} requests in "
                 f"{res.elapsed_s:.2f}s virtual, "
                 f"{run['degraded']} degraded to disk")
    if auditor is not None:
        lines.append("  " + auditor.format_report())
    return "\n".join(lines)
