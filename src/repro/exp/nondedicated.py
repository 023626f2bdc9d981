"""Section 5.3.1: Dodo on a non-dedicated cluster.

The paper evaluates this scenario by trace-driven simulation and reports
two claims: (1) Dodo still yields significant speedups when memory hosts
are desktop machines that come and go with their owners, and (2) the
recruitment policy (idle hosts only, never more than the idle memory,
imd killed on owner return) means **owners experience virtually no delay
when reclaiming their workstations**.

This driver builds a desktop cluster with resource monitors and
stochastic owners, runs the hotcold benchmark against it, and measures
both the speedup and the distribution of reclaim delays (time from owner
activity to the imd being gone).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import Cluster, ClusterConfig, HostSpec
from repro.cluster.idleness import IdlePolicy
from repro.cluster.owner import Owner, OwnerParams
from repro.cluster.workstation import MB
from repro.core.config import DodoConfig
from repro.core.manager import CentralManager
from repro.core.regionlib import RegionCache
from repro.core.rmd import ResourceMonitor
from repro.core.runtime import DodoRuntime
from repro.metrics.report import format_table
from repro.sim import Simulator
from repro.storage.disk import DiskParams
from repro.workloads.app import SyntheticRunner
from repro.workloads.synthetic import SyntheticParams


@dataclass(frozen=True)
class NonDedicatedParams:
    """A scaled desktop cluster (idle window shrunk so recruitment churn
    happens within a short simulation)."""

    n_desktops: int = 8
    desktop_mem: int = 64 * MB
    #: pool per recruited desktop; ~5 idle desktops cover the dataset
    max_pool: int = 2 * MB
    dataset_bytes: int = 8 * MB
    req_size: int = 8192
    num_iter: int = 4
    #: memory sizes follow the 1/128-scaled Section 5.1 proportions
    local_cache_bytes: int = 640 * 1024
    fs_cache: int = 128 * 1024
    disk_capacity: int = 25 * MB
    idle_window_s: float = 20.0
    owner_active_mean_s: float = 60.0
    owner_away_mean_s: float = 600.0
    seed: int = 9


def desktop_config(p: NonDedicatedParams) -> DodoConfig:
    """The desktop cluster's :class:`DodoConfig`: sizes-only regions,
    pools capped at ``p.max_pool`` and the idle rule's window shortened
    to ``p.idle_window_s``.  Callers that need one more knob ``replace()``
    it on this config."""
    return DodoConfig(store_payload=False, max_pool_bytes=p.max_pool,
                      idle_policy=IdlePolicy(window_s=p.idle_window_s))


def build_cluster(sim: Simulator, p: NonDedicatedParams, dodo: bool,
                  config: DodoConfig | None = None,
                  imds: list | None = None):
    """Build the desktop cluster under ``config``, by default
    :func:`desktop_config` of ``p``; returns ``(cluster, config, cmd,
    rmds, owners)``.  The monitors append every imd they fork to
    ``imds``, when given."""
    hosts = [
        HostSpec("app", total_mem_bytes=128 * MB, has_disk=True,
                 fs_cache_bytes=p.fs_cache if dodo
                 else p.fs_cache + p.local_cache_bytes,
                 disk_params=DiskParams(capacity_bytes=p.disk_capacity)),
        HostSpec("mgr"),
    ]
    for i in range(p.n_desktops):
        hosts.append(HostSpec(f"w{i}", total_mem_bytes=p.desktop_mem))
    cluster = Cluster(sim, ClusterConfig(hosts=hosts))
    cfg = config or desktop_config(p)
    rmds, owners = [], []
    cmd = None
    if dodo:
        cmd = CentralManager(sim, cluster["mgr"], cfg)
        for i in range(p.n_desktops):
            ws = cluster[f"w{i}"]
            rmds.append(ResourceMonitor(sim, ws, cfg, cmd_host="mgr",
                                        imds=imds))
            owners.append(Owner(sim, ws, OwnerParams(
                active_mean_s=p.owner_active_mean_s,
                away_mean_s=p.owner_away_mean_s,
                background_job_prob=0.1), start_active=(i % 4 == 0)))
    return cluster, cfg, cmd, rmds, owners


class DesktopPlatform:
    """A desktop cluster with the surface of
    :class:`~repro.exp.platform.Platform` that the workload runners,
    the nemesis and the auditor use.

    ``imds`` holds every imd incarnation: the resource monitors append
    each one they fork, the nemesis each one it restarts.  So the
    counters of dead incarnations (recorders outlive their daemon) stay
    in the totals, and the auditor can tell a killed incarnation from
    real divergence.
    """

    def __init__(self, sim: Simulator, p: NonDedicatedParams,
                 dodo: bool = True, config: DodoConfig | None = None):
        self.sim = sim
        self.params = p
        self.dodo_enabled = dodo
        self.imds: list = []
        self.cluster, self.config, self.cmd, self.rmds, self.owners = \
            build_cluster(sim, p, dodo, config, imds=self.imds)
        self.app = self.cluster["app"]
        self.mgr = self.cluster["mgr"]

    def runtime(self) -> DodoRuntime:
        """A fresh libdodo instance on the app node."""
        if not self.dodo_enabled:
            raise RuntimeError("desktop cluster built without Dodo")
        return DodoRuntime(self.sim, self.app, self.config, cmd_host="mgr")

    def region_cache(self, policy: str = "lru",
                     local_bytes: int | None = None,
                     runtime: DodoRuntime | None = None) -> RegionCache:
        """A fresh libmanage instance over a (new) runtime."""
        return RegionCache(runtime or self.runtime(),
                           local_bytes or self.params.local_cache_bytes,
                           policy=policy)

    def audit(self, auditor=None, teardown: bool = True):
        """Run the invariant auditor over the cluster, the manager and
        every imd incarnation; returns the findings of this pass."""
        from repro.obs.audit import Auditor
        auditor = auditor or Auditor(mode="warn")
        hosts = self.cluster.workstations.values()
        components = [("workstation", ws.name, ws) for ws in hosts]
        components += [("nic", ws.name, ws.nic) for ws in hosts]
        components.append(("network", "network", self.cluster.network))
        if self.cmd is not None:
            components.append(("manager", "cmd", self.cmd))
        components += [("imd", imd.ws.name, imd) for imd in self.imds]
        return auditor.audit_components(self.sim, components,
                                        teardown=teardown)


def run_nondedicated(p: NonDedicatedParams | None = None) -> dict:
    """Run baseline and Dodo on the desktop cluster; gather speedup and
    reclaim-delay statistics."""
    p = p or NonDedicatedParams()
    results = {}
    for dodo in (False, True):
        sim = Simulator(seed=p.seed)
        platform = DesktopPlatform(sim, p, dodo)
        sp = SyntheticParams(pattern="hotcold",
                             dataset_bytes=p.dataset_bytes,
                             req_size=p.req_size, num_iter=p.num_iter)
        # give the monitors time to recruit the initially idle desktops
        if dodo:
            sim.run(until=p.idle_window_s + 5.0)
        runner = SyntheticRunner(platform, sp, use_dodo=dodo)
        res = sim.run(until=runner.run())
        entry = {"elapsed_s": res.elapsed_s, "result": res}
        if dodo:
            rmds = platform.rmds
            delays = [d for r in rmds
                      for d in r.stats.samples("reclaim_delay_s")]
            entry["reclaims"] = sum(
                r.stats.count("reclaims") for r in rmds)
            entry["recruits"] = sum(
                r.stats.count("recruits") for r in rmds)
            entry["reclaim_delays_s"] = delays
            entry["max_reclaim_delay_s"] = max(delays, default=0.0)
            entry["mean_reclaim_delay_s"] = (
                sum(delays) / len(delays) if delays else 0.0)
        results["dodo" if dodo else "baseline"] = entry
    results["speedup"] = (results["baseline"]["elapsed_s"]
                          / results["dodo"]["elapsed_s"])
    return results


def format_nondedicated(results: dict) -> str:
    """Render the non-dedicated (Table 4) results as a text table."""
    d = results["dodo"]
    rows = [
        ["baseline elapsed", f"{results['baseline']['elapsed_s']:.1f} s"],
        ["dodo elapsed", f"{d['elapsed_s']:.1f} s"],
        ["speedup", f"{results['speedup']:.2f}"],
        ["recruit events", int(d.get("recruits", 0))],
        ["reclaim events", int(d.get("reclaims", 0))],
        ["mean reclaim delay", f"{d.get('mean_reclaim_delay_s', 0) * 1000:.1f} ms"],
        ["max reclaim delay", f"{d.get('max_reclaim_delay_s', 0) * 1000:.1f} ms"],
    ]
    return format_table(["metric", "value"], rows,
                        title="Section 5.3.1: non-dedicated cluster")
