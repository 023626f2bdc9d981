"""One config tree: every Dodo knob is declared once, on DodoConfig.

A platform takes its payload mode, transport and manager layout from
its single :class:`DodoConfig`; :class:`PlatformParams` only shapes the
testbed.  These tests pin both halves: a functional platform returns the
written bytes even for regions that spilled to disk, and no builder
re-declares a DodoConfig knob.
"""

from dataclasses import fields

from repro.cluster.cluster import ClusterConfig
from repro.core.config import DodoConfig
from repro.exp.nondedicated import NonDedicatedParams
from repro.exp.platform import MB, Platform, PlatformParams
from repro.net.bulk import BulkParams
from repro.sim import Simulator
from repro.testing import make_backing_file, run

KB = 1024
REGION = 64 * KB


def test_read_after_spill_returns_written_bytes():
    """More regions than local cache plus remote pools hold: every read,
    including those of regions that spilled to disk, returns what was
    written."""
    sim = Simulator(seed=127)
    platform = Platform(sim, PlatformParams(
        n_memory_hosts=2, imd_pool_bytes=128 * KB,
        local_cache_bytes=128 * KB, app_fs_cache_dodo=64 * KB,
        disk_capacity_bytes=64 * MB), config=DodoConfig(store_payload=True))
    cache = platform.region_cache()
    n_regions = 8
    fd = make_backing_file(platform, size=n_regions * REGION)
    blobs = [bytes([i + 1]) * REGION for i in range(n_regions)]

    def write_all():
        crds = []
        for i, blob in enumerate(blobs):
            crd, err = yield from cache.copen(REGION, fd, i * REGION)
            assert err == 0
            n, err = yield from cache.cwrite(crd, 0, REGION, blob)
            assert (n, err) == (REGION, 0)
            crds.append(crd)
        return crds

    def read_all(crds):
        out = []
        for crd in crds:
            n, err, data = yield from cache.cread(crd, 0, REGION)
            out.append((n, err, None if data is None else bytes(data)))
        return out

    crds = run(sim, write_all())
    spilled = [crd for crd in crds if cache.state(crd) == "disk"]
    assert spilled, "the dataset must overflow local and remote memory"
    out = run(sim, read_all(crds))
    assert [(n, err) for n, err, _ in out] == [(REGION, 0)] * n_regions
    assert [data for _, _, data in out] == blobs


def test_platform_payload_mode_follows_config():
    for store in (False, True):
        platform = Platform(Simulator(seed=1), PlatformParams(
            n_memory_hosts=1, imd_pool_bytes=1 * MB,
            disk_capacity_bytes=64 * MB), dodo=False,
            config=DodoConfig(store_payload=store))
        assert platform.cluster.config.store_data is store


def _names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def test_no_builder_redeclares_a_dodo_knob():
    knobs = _names(DodoConfig)
    for cls in (PlatformParams, ClusterConfig, NonDedicatedParams):
        assert not knobs & _names(cls), cls.__name__


def test_only_bulk_params_hold_a_bulk_fastpath_switch():
    holders = [cls.__name__
               for cls in (DodoConfig, PlatformParams, ClusterConfig,
                           NonDedicatedParams, BulkParams)
               if any("fastpath" in name for name in _names(cls))]
    assert holders == ["BulkParams"]
