"""The canonical evaluation platform of Section 5.1, scalable.

The paper's testbed: a 16-node Beowulf cluster (200 MHz Pentium Pro,
128 MB/node, Quantum Fireball disks, 100 Mb/s switched Ethernet).  One
node runs the data-intensive application (its local disk holds the
dataset), one runs the central manager, and twelve run idle memory daemons
with 100 MB pools — 1200 MB of remote memory.  The application's
region-management library gets an 80 MB local cache.

Every size can be scaled down by a single ``scale`` factor that preserves
all the ratios the results depend on (dataset : local cache : remote pool :
file cache : disk span), so benchmarks finish in seconds while keeping the
paper's crossovers.  Disk *timing* is never scaled — only spans — because
seek and rotation costs are absolute.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.cluster.cluster import Cluster, ClusterConfig, HostSpec
from repro.core.config import DodoConfig
from repro.core.imd import IdleMemoryDaemon
from repro.core.manager import CentralManager
from repro.core.regionlib import RegionCache
from repro.core.runtime import DodoRuntime
from repro.core.shard import default_shard_map
from repro.sim import Simulator
from repro.storage.disk import DiskParams
from repro.storage.filesystem import FsParams

MB = 1024 * 1024


@dataclass(frozen=True)
class PlatformParams:
    """The testbed's shape: host count and sizes.  Every Dodo knob
    (transport, payload mode, sharding, fast paths) lives on the
    platform's one :class:`DodoConfig`."""

    n_memory_hosts: int = 12
    #: per-imd pool (paper: 100 MB each => 1200 MB total)
    imd_pool_bytes: int = 100 * MB
    #: region-management library's local cache (paper: 80 MB)
    local_cache_bytes: int = 80 * MB
    #: app node's OS file cache when Dodo is running (the region cache
    #: displaces most of it)
    app_fs_cache_dodo: int = 16 * MB
    #: app node's OS file cache in the no-Dodo baseline (all otherwise
    #: free memory caches files)
    app_fs_cache_baseline: int = 96 * MB
    #: disk capacity (span matters for seek distances)
    disk_capacity_bytes: int = 3_200_000_000
    frame_loss_prob: float = 0.0
    fs_params: Optional[FsParams] = None
    allocator_kind: str = "first-fit"

    def scaled(self, scale: float) -> "PlatformParams":
        """Shrink every size by ``scale``, preserving ratios."""
        if scale == 1.0:
            return self
        return replace(
            self,
            imd_pool_bytes=int(self.imd_pool_bytes * scale),
            local_cache_bytes=int(self.local_cache_bytes * scale),
            app_fs_cache_dodo=int(self.app_fs_cache_dodo * scale),
            app_fs_cache_baseline=int(self.app_fs_cache_baseline * scale),
            disk_capacity_bytes=int(self.disk_capacity_bytes * scale),
        )


#: the evaluation platform's Dodo configuration: the paper's system with
#: sizes-only regions (the experiments time data movement, they never
#: look at the bytes)
PLATFORM_CONFIG = DodoConfig(store_payload=False)


class Platform:
    """A built evaluation platform: cluster + Dodo daemons + app node.

    ``config`` is the one source of every Dodo knob, the cluster's
    payload mode (``store_payload``) included; ``params`` only shapes
    the testbed.
    """

    def __init__(self, sim: Simulator, params: PlatformParams | None = None,
                 dodo: bool = True, config: DodoConfig = PLATFORM_CONFIG,
                 faults=None, nemesis_auditor=None):
        self.sim = sim
        self.params = params or PlatformParams()
        p = self.params
        self.dodo_enabled = dodo
        self.config = cfg = config
        #: sharded-directory mode engages whenever any PR 9 knob is on,
        #: so a 1-shard serve-bench run exercises the same code path as
        #: an 8-shard one (fair scaling comparison)
        self.sharded = dodo and (cfg.shards > 1 or cfg.replication
                                 or cfg.mgr_service_s > 0)

        app_cache = p.app_fs_cache_dodo if dodo else p.app_fs_cache_baseline
        hosts = [
            HostSpec("app", total_mem_bytes=128 * MB, has_disk=True,
                     fs_cache_bytes=app_cache, fs_params=p.fs_params,
                     disk_params=DiskParams(
                         capacity_bytes=p.disk_capacity_bytes)),
        ]
        if self.sharded:
            for i in range(cfg.shards):
                hosts.append(HostSpec(f"mgr{i:02d}",
                                      total_mem_bytes=128 * MB))
                if cfg.replication:
                    hosts.append(HostSpec(f"bak{i:02d}",
                                          total_mem_bytes=128 * MB))
        else:
            hosts.append(HostSpec("mgr", total_mem_bytes=128 * MB))
        for i in range(p.n_memory_hosts):
            hosts.append(HostSpec(f"mem{i:02d}", total_mem_bytes=128 * MB))
        self.cluster = Cluster(sim, ClusterConfig(
            hosts=hosts, frame_loss_prob=p.frame_loss_prob,
            store_data=cfg.store_payload))

        self.app = self.cluster["app"]
        self.mgr = self.cluster["mgr00" if self.sharded else "mgr"]
        self.cmd: Optional[CentralManager] = None
        self.shard_map = None
        self.cmds: list[CentralManager] = []
        self.backup_cmds: list[CentralManager] = []
        #: sharded mode: shard id -> every manager ever started for it
        #: (append-only, like ``imds``); None on a classic platform —
        #: the nemesis keys its manager_crash dispatch on this
        self.shard_managers: Optional[dict[int, list[CentralManager]]] = \
            None
        self.imds: list[IdleMemoryDaemon] = []
        self.nemesis = None
        if dodo:
            if self.sharded:
                self.shard_map = default_shard_map(cfg.shards,
                                                   cfg.replication)
                self.shard_managers = {}
                for i in range(cfg.shards):
                    primary = CentralManager(
                        sim, self.cluster[f"mgr{i:02d}"], cfg,
                        shard_id=i, shard_map=self.shard_map,
                        peer=f"bak{i:02d}" if cfg.replication else None)
                    self.cmds.append(primary)
                    self.shard_managers[i] = [primary]
                    if cfg.replication:
                        backup = CentralManager(
                            sim, self.cluster[f"bak{i:02d}"], cfg,
                            shard_id=i, shard_map=self.shard_map,
                            role="backup")
                        self.backup_cmds.append(backup)
                        self.shard_managers[i].append(backup)
                self.cmd = self.cmds[0]
            else:
                self.cmd = CentralManager(sim, self.mgr, cfg)
            for i in range(p.n_memory_hosts):
                ws = self.cluster[f"mem{i:02d}"]
                imd = IdleMemoryDaemon(
                    sim, ws, cfg, epoch=1,
                    cmd_host=None if self.sharded else "mgr",
                    pool_bytes=p.imd_pool_bytes,
                    allocator_kind=p.allocator_kind,
                    shard_map=self.shard_map)
                imd.register()
                self.imds.append(imd)
            if faults is not None:
                from repro.faults.nemesis import Nemesis
                self.nemesis = Nemesis(self, faults,
                                       auditor=nemesis_auditor)
                self.nemesis.start()
            sim.run(until=0.5)  # let registrations land
        elif faults is not None:
            raise ValueError("fault injection needs a Dodo platform "
                             "(dodo=True)")

    @property
    def remote_pool_total(self) -> int:
        return self.params.imd_pool_bytes * self.params.n_memory_hosts

    def audit(self, auditor=None, teardown: bool = True):
        """Run the invariant auditor over this platform's components.

        Works with or without an installed telemetry engine — the
        component list is built from the platform's own objects — so
        tests can cross-check a cluster without any global state.
        Returns the findings of this pass.
        """
        from repro.obs.audit import Auditor
        auditor = auditor or Auditor(mode="warn")
        components = [("workstation", ws.name, ws)
                      for ws in self.cluster.workstations.values()]
        components += [("nic", ws.name, ws.nic)
                       for ws in self.cluster.workstations.values()]
        components.append(("network", "network", self.cluster.network))
        if self.shard_managers is not None:
            # role is decided at audit time: a promoted backup counts as
            # a primary, a stopped manager is skipped entirely
            for sid in sorted(self.shard_managers):
                for mgr in self.shard_managers[sid]:
                    if mgr.stopped:
                        continue
                    kind = ("manager" if mgr.role == "primary"
                            else "manager_backup")
                    components.append((kind, f"cmd{sid}", mgr))
        elif self.cmd is not None:
            components.append(("manager", "cmd", self.cmd))
        components += [("imd", imd.ws.name, imd) for imd in self.imds]
        return auditor.audit_components(self.sim, components,
                                        teardown=teardown)

    def live_primary(self, shard: int) -> Optional[CentralManager]:
        """The shard's currently-serving primary, newest first (None
        while failover is still in progress)."""
        if self.shard_managers is None:
            return self.cmd
        for mgr in reversed(self.shard_managers[shard]):
            if not mgr.stopped and mgr.role == "primary":
                return mgr
        return None

    def runtime(self) -> DodoRuntime:
        """A fresh libdodo instance on the app node."""
        if not self.dodo_enabled:
            raise RuntimeError("platform built without Dodo")
        if self.sharded:
            return DodoRuntime(self.sim, self.app, self.config,
                               cmd_host=self.cmds[0].ws.name,
                               shard_map=self.shard_map)
        return DodoRuntime(self.sim, self.app, self.config, cmd_host="mgr")

    def region_cache(self, policy: str = "lru",
                     local_bytes: Optional[int] = None,
                     runtime: Optional[DodoRuntime] = None) -> RegionCache:
        """A fresh libmanage instance over a (new) runtime."""
        rt = runtime or self.runtime()
        return RegionCache(rt, local_bytes or self.params.local_cache_bytes,
                           policy=policy)


def build_platform(sim: Simulator, scale: float = 1.0, dodo: bool = True,
                   faults=None, nemesis_auditor=None, **kwargs) -> Platform:
    """Convenience: a (possibly scaled) Section 5.1 platform."""
    params = PlatformParams(**kwargs).scaled(scale)
    return Platform(sim, params, dodo=dodo, faults=faults,
                    nemesis_auditor=nemesis_auditor)
