"""Differential test: placement over the indexed IWD matches the scan.

The manager no longer scans the idle-workstation directory (IWD) on
every alloc: :class:`~repro.core.manager.IwdTable` caches the host order
and a lower bound on the free-space hints, and hands out every host when
the bound shows all of them fit.  Hypothesis drives random directory
histories — registrations, re-registrations, hints going up and down,
busy notifications, hosts declared dead by a timed-out call, snapshot
installs and replicated log records on a backup — through two managers:
one as shipped, one whose candidate lists come from the plain scan.
With donor caching on and off, both must call the same hosts in the
same order, return the same replies and leave their placement rng in
the same state, on the alloc path and on the migration-destination
path.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.workstation import Workstation
from repro.core import CentralManager, DodoConfig
from repro.core.config import CacheConfig
from repro.core.descriptors import RegionKey, RegionStruct
from repro.core.manager import IwdEntry, IwdTable, RdEntry
from repro.core.shard import ShardInfo, ShardMap
from repro.net import Network
from repro.net.rpc import RpcTimeout
from repro.sim import Simulator

HOSTS = [f"w{i}" for i in range(8)]
SRC = ("app", 1)


class ScanManager(CentralManager):
    """Candidate lists computed by scanning the IWD on every call."""

    def _candidates(self, length, fallback, exclude=None):
        candidates = [h for h, e in self.iwd.items()
                      if h != exclude and e.largest_free >= length]
        if not candidates and fallback:
            candidates = [h for h in self.iwd if h != exclude]
        return candidates


class Script:
    """Stands in for ``RpcClient`` in ``CentralManager._imd_call``: logs
    each (host, method) and answers from the case's outcome lists."""

    def __init__(self, outcomes):
        self.outcomes = {h: list(o) for h, o in outcomes.items()}
        self.log = []
        self.next_free = 0  # hint carried by the next "free" reply

    def client(self, sock):
        return self

    def call(self, dst, method, args, **_kw):
        host = dst[0]
        self.log.append((host, method))
        if method == "alloc":
            queue = self.outcomes[host]
            kind, free = queue.pop(0) if queue else ("ok", 0)
            if kind == "dead":
                raise RpcTimeout(f"{host} silent")
            return {"ok": kind == "ok", "region_id": len(self.log),
                    "epoch": 1, "largest_free": free}
        if method == "free":
            return {"ok": True, "largest_free": self.next_free}
        return {"ok": True, "data_port": 9}
        yield  # a generator, like RpcClient.call


def build(cls, cache):
    sim = Simulator(seed=5)
    ws = Workstation(sim, "mgr", Network(sim))
    config = DodoConfig(store_payload=False, cache=CacheConfig(
        policy="cost-aware" if cache else "none"))
    shard_map = ShardMap([ShardInfo(shard_id=0, primary="p", backup="mgr")])
    return cls(sim, ws, config, shard_id=0, shard_map=shard_map,
               role="backup")


def finish(gen):
    """Drive a manager generator whose calls never wait."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


hosts = st.sampled_from(HOSTS)
frees = st.integers(0, 12)
allocs = st.tuples(st.just("alloc"), st.integers(1, 12))
hints = st.tuples(st.just("hint"), hosts, frees)
ops = st.one_of(
    allocs, allocs, allocs, hints, hints,
    st.tuples(st.just("register"), hosts, frees),
    st.tuples(st.just("busy"), hosts),
    st.tuples(st.just("set_record"), hosts, frees),
    st.tuples(st.just("del_record"), hosts),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("migrate"), hosts, st.integers(1, 12)),
)
outcome = st.tuples(st.sampled_from(["ok", "full", "full", "dead"]), frees)


def apply(mgr, script, op, step):
    kind = op[0]
    if kind == "register":
        return mgr._h_imd_register({"host": op[1], "epoch": step,
                                    "largest_free": op[2], "port": 6000},
                                   SRC)
    if kind == "hint":
        script.next_free = op[2]
        return finish(mgr._free_on(op[1], 0))
    if kind == "busy":
        return mgr._h_notify_busy({"host": op[1]}, SRC)
    if kind == "set_record":
        return mgr._apply_record(["iwd_set", [op[1], step, op[2], 6000]])
    if kind == "del_record":
        return mgr._apply_record(["iwd_del", op[1]])
    if kind == "snapshot":
        return mgr._install_snapshot(mgr._snapshot())
    if kind == "alloc":
        return finish(mgr._h_alloc({"key": [step, 0, None],
                                    "length": op[1]}, SRC))
    src = mgr.iwd.get(op[1])
    if src is None:
        return None
    key = RegionKey(step, 0)
    mgr.rd[key] = RdEntry(struct=RegionStruct(
        host=src.host, pool_offset=0, length=op[2], epoch=src.epoch),
        owner=None)
    return finish(mgr._migrate_one(src, key, 0, op[2], 1))


@settings(max_examples=200, deadline=None)
@given(cache=st.booleans(),
       history=st.lists(ops, min_size=10, max_size=60),
       outcomes=st.fixed_dictionaries(
           {h: st.lists(outcome, max_size=6) for h in HOSTS}))
def test_indexed_placement_matches_the_scan(cache, history, outcomes):
    runs = []
    for cls in (CentralManager, ScanManager):
        mgr = build(cls, cache)
        script = Script(outcomes)
        replies = []
        with mock.patch("repro.core.manager.RpcClient", script.client):
            for step, op in enumerate(history, start=1):
                replies.append(apply(mgr, script, op, step))
                assert isinstance(mgr.iwd, IwdTable)
        runs.append((script.log, replies, list(mgr.iwd),
                     [e.largest_free for e in mgr.iwd.values()],
                     mgr._rng.bit_generator.state))
    assert runs[0] == runs[1]


def test_floor_follows_hints_without_a_scan():
    """The cached order and floor answer every-host-fits requests; a
    host at the floor growing or leaving makes the floor recompute."""
    iwd = IwdTable()
    for host, free in (("a", 8), ("b", 5), ("c", 9)):
        iwd[host] = IwdEntry(host=host, epoch=1, largest_free=free, port=1)
    assert iwd.fitting(5) == ["a", "b", "c"]
    assert iwd._floor == 5
    assert iwd.fitting(6) == ["a", "c"]
    iwd.set_hint("a", 2)                   # a decrease lowers the floor
    assert iwd._floor == 2
    assert iwd.fitting(2, exclude="b") == ["a", "c"]
    iwd.set_hint("a", 7)                   # the floor's host grew
    assert iwd._floor is None
    assert iwd.fitting(5) == ["a", "b", "c"] and iwd._floor == 5
    iwd.set_hint("c", 10)                  # another host: floor stays
    assert iwd._floor == 5
    del iwd["b"]                           # the floor's host left
    assert iwd._floor is None
    assert iwd.fitting(7) == ["a", "c"] and iwd._floor == 7
    iwd.update(d=IwdEntry(host="d", epoch=1, largest_free=1, port=1))
    assert iwd.fitting(2) == ["a", "c"]
    assert iwd.hosts(exclude="a") == ["c", "d"]
    assert iwd.pop("zz", None) is None
    assert IwdTable().fitting(1) == []
