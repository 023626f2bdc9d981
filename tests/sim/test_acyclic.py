"""The kernel's per-event objects are freed by refcounting alone.

Each scenario runs with the cyclic collector disabled while the
long-lived infrastructure (simulator, stores, network, servers) stays
referenced; a final ``gc.collect()`` under ``DEBUG_SAVEALL`` then lists
everything that only a collection could have freed.  None of it may be
a ``repro`` object, a bound method or a function (a closure): those
would be per-event objects caught in a reference cycle, which costs a
full cyclic-GC pass per few hundred simulated events
(docs/PERFORMANCE.md §1).
"""

import gc
import importlib.util
import os
import types

import pytest

from repro.net import RpcClient, RpcServer
from repro.sim import Interrupt, Simulator, Store
from repro.storage.disk import Disk
from repro.testing import make_net


_CALLABLES = (types.MethodType, types.FunctionType)


def _ours(obj) -> bool:
    return isinstance(obj, _CALLABLES) \
        or type(obj).__module__.startswith("repro.")


def cyclic_garbage(scenario) -> list[str]:
    """Run ``scenario()`` with the collector off, keep what it returns
    alive, and name the repro objects, bound methods and closures that
    only the cyclic collector could free."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        keep = scenario()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = sorted(repr(o if isinstance(o, _CALLABLES) else type(o))
                       for o in gc.garbage if _ours(o))
        del keep
        return found
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()


def _finishes_normally():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "child"

    def worker():
        value = yield sim.process(child())
        yield sim.timeout(0.5)
        return value

    proc = sim.process(worker())
    sim.run()
    assert proc.value == "child"
    return sim


def _interrupted():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(10.0)
        except Interrupt as intr:
            log.append(intr.cause)
        yield sim.timeout(1.0)

    def waker(target):
        yield sim.timeout(1.0)
        target.interrupt("wake")
        yield target

    sim.process(waker(sim.process(sleeper())))
    sim.run()
    assert log == ["wake"]
    return sim


def _anyof_timeout_beats_cancelled_get():
    sim = Simulator()
    store = Store(sim)
    log = []

    def waiter():
        for _ in range(3):
            get = store.get()
            idx, _ = yield sim.any_of([get, sim.timeout(1.0)])
            assert idx == 1
            store.cancel(get)
            log.append(sim.now)

    sim.process(waiter())
    sim.run()
    assert log == [1.0, 2.0, 3.0]
    return sim, store


def _allof():
    sim = Simulator()

    def child(delay):
        yield sim.timeout(delay)
        return delay

    def parent():
        values = yield sim.all_of([sim.timeout(1.0, "t"),
                                   sim.process(child(2.0)),
                                   sim.process(child(0.5))])
        return values

    proc = sim.process(parent())
    sim.run()
    assert proc.value == ["t", 2.0, 0.5]
    return sim


def _disk_fast_batch():
    sim = Simulator()
    disk = Disk(sim)

    def reader():
        yield disk.read_batch([(0, 8192), (8192, 8192), (1 << 20, 8192)])
        # a read queued mid-batch makes the batch fall back
        disk.read_batch([(2 << 20, 8192), (3 << 20, 8192)])
        yield sim.timeout(0.001)
        yield disk.read(4 << 20, 4096)

    sim.process(reader())
    sim.run()
    assert disk.stats.count("fastpath.batches") == 2
    assert disk.stats.count("fastpath.fallbacks") == 1
    return sim, disk


def _rpc_round_trip():
    sim = Simulator()
    net = make_net(sim)
    server = RpcServer(net.udp["beta"].socket(port=50),
                       {"add": lambda args, src: args["a"] + args["b"]},
                       name="test")
    server.start()
    out = []

    def caller():
        sock = net.udp["alpha"].socket()
        try:
            out.append((yield from RpcClient(sock).call(
                ("beta", 50), "add", {"a": 2, "b": 3})))
        finally:
            sock.close()

    sim.process(caller())
    sim.run()
    assert out == [5]
    return sim, net, server


@pytest.mark.parametrize("scenario", [
    _finishes_normally,
    _interrupted,
    _anyof_timeout_beats_cancelled_get,
    _allof,
    _disk_fast_batch,
    _rpc_round_trip,
], ids=lambda f: f.__name__.lstrip("_"))
def test_scenario_leaves_no_cyclic_garbage(scenario):
    assert cyclic_garbage(scenario) == []


def test_census_sees_a_deliberate_cycle():
    """The check itself bites: a process that keeps a reference to
    itself in its own frame is reported."""
    def scenario():
        sim = Simulator()
        holder = {}

        def selfish():
            me = holder.pop("me")
            yield sim.timeout(1.0)
            return me  # the process's value is the process

        holder["me"] = sim.process(selfish())
        sim.run()
        return sim

    assert any("Process" in name for name in cyclic_garbage(scenario))


class _Cycle:
    """A self-referencing object: garbage only the collector can free."""

    def __init__(self):
        self.me = self


def test_gc_census_tool_counts_and_names_cyclic_garbage():
    path = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "tools", "gc_census.py")
    spec = importlib.util.spec_from_file_location("gc_census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)

    def run():
        for _ in range(50):
            _Cycle()
        gc.collect()

    flags = gc.get_debug()
    counts = census.count_collections(run)
    assert counts["collections"][2] >= 1
    assert sum(counts["collected"]) >= 50
    top = dict(census.garbage_types(run, 3))
    assert any(name.endswith("._Cycle") and n == 50
               for name, n in top.items()), top
    assert gc.get_debug() == flags and not gc.garbage
