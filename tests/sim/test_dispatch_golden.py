"""Dispatch-order golden: the kernel's exact event stream, pinned.

A small mixed simulation — process spawn and join, an interrupt, an
``AnyOf`` whose timeout beats a cancelled ``Store.get``, an ``AllOf``,
``Resource`` contention, a ``Store`` producer/consumer, a failing
child caught by its parent and two disk fast-path batches (one of
which falls back to the per-request path when a read queues on the
arm mid-batch) — is run with every ladder pop recorded as
``(when, insertion counter, event class)``.  The digest of that stream
and the final process serial number are pinned, so any change to how
the kernel allocates counters or pids (for example, an inlined process
start-up) must reproduce them exactly.  The constants were recorded
before the start-up path was inlined and must never be regenerated to
make a kernel change pass.
"""

import hashlib

from repro.sim import Interrupt, Resource, Simulator, Store
from repro.sim import kernel
from repro.storage.disk import Disk

#: sha256 of the "when counter class" dispatch lines of _scenario()
GOLDEN_DIGEST = (
    "81bcbd3fe934bed154eb10930c1bbe6f8ed8428eecdc879321ddbb1cfb261042")
GOLDEN_EVENTS = 90
GOLDEN_PIDS = 12


def _scenario(sim):
    arm = Resource(sim, capacity=1)
    inbox = Store(sim)
    disk = Disk(sim)
    log = []

    def user(i):
        yield sim.timeout(0.001 * i)
        req = arm.acquire()
        yield req
        try:
            yield sim.timeout(0.004)
        finally:
            arm.release()
        return i

    def producer():
        for k in range(4):
            yield sim.timeout(0.003)
            yield inbox.put(k)

    def consumer():
        while True:
            get = inbox.get()
            idx, val = yield sim.any_of([get, sim.timeout(0.0025)])
            if idx == 1:
                inbox.cancel(get)
                log.append(("timeout", sim.now))
                if sim.now > 0.02:
                    return
            else:
                log.append(("item", val))

    def sleeper():
        try:
            yield sim.timeout(10.0)
        except Interrupt as intr:
            log.append(("interrupted", intr.cause))
        yield sim.timeout(0.001)

    def failing():
        yield sim.timeout(0.002)
        raise ValueError("boom")

    def disk_user():
        total = yield disk.read_batch([(0, 8192), (8192, 8192)])
        log.append(("batch", total))
        disk.read_batch([(1 << 20, 8192), (2 << 20, 8192), (3 << 20, 8192)])
        yield sim.timeout(0.001)
        total = yield disk.read(4 << 20, 4096)
        log.append(("queued read", total))
        log.append(("fallbacks", disk.stats.count("fastpath.fallbacks")))

    def parent():
        workers = [sim.process(user(i)) for i in range(4)]
        vals = yield sim.all_of(workers)
        log.append(("joined", vals))
        try:
            yield sim.process(failing())
        except ValueError:
            log.append(("caught", sim.now))
        s = sim.process(sleeper())
        yield sim.timeout(0.001)
        s.interrupt("wake")
        yield s

    sim.process(producer())
    sim.process(consumer())
    sim.process(parent())
    sim.process(disk_user())
    return log


def _dispatch_stream(monkeypatch):
    """Run the scenario, returning (dispatch lines, sim, log)."""
    lines = []
    real_pop = kernel.heappop

    def recording_pop(heap):
        when, counter, event = real_pop(heap)
        lines.append(f"{when!r} {counter} {type(event).__name__}")
        return when, counter, event

    monkeypatch.setattr(kernel, "heappop", recording_pop)
    sim = Simulator(seed=5)
    log = _scenario(sim)
    sim.run()
    return lines, sim, log


def test_dispatch_stream_matches_golden(monkeypatch):
    lines, sim, log = _dispatch_stream(monkeypatch)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (digest, len(lines), sim._pid_counter) == \
        (GOLDEN_DIGEST, GOLDEN_EVENTS, GOLDEN_PIDS)
    assert sim.events_processed == len(lines)
    assert ("interrupted", "wake") in log
    assert ("joined", [0, 1, 2, 3]) in log
    assert any(tag == "timeout" for tag, _ in log)
    assert ("fallbacks", 1) in log
