"""Measure how fast this machine is while a simulation runs.

Host times on a shared machine swing by tens of percent within seconds
to minutes as other tenants come and go.  :class:`Speedometer` samples
the machine's speed *during* the measured work: a CPU-time interval
timer interrupts the process every ``PERIOD_S`` of CPU, and the signal
handler times one block of a fixed reference workload -- a frozen,
pure-Python miniature of a discrete-event loop (a heap of
``(time, seq, id)`` tuples, generator processes resumed with ``send``,
small-object allocation and dict updates, the operations the simulator
spends its time on).  CPU times read through :meth:`Speedometer.clock`
exclude the handler, and dividing them by :meth:`Speedometer.speed`
expresses them in seconds at the reference speed ``REF_BLOCK_S``.

The reference never imports ``repro``, so a change to the program cannot
change it, and the handler only reads its own state, so it cannot change
what the simulation computes (every run's outputs are checked).
"""

from __future__ import annotations

import heapq
import signal
import time

#: CPU seconds of one reference block on the machine the bounds were set
#: on (2-vCPU Intel Xeon VM at 2.1 GHz, CPython 3.11, lightly loaded)
REF_BLOCK_S = 0.025
#: events per reference block
BLOCK_EVENTS = 15_000
#: CPU seconds between two reference blocks
PERIOD_S = 0.5


class _Event:
    __slots__ = ("when", "callbacks", "value")

    def __init__(self, when):
        self.when = when
        self.callbacks = []
        self.value = None


def _process(state, key):
    n = 0
    while True:
        n += 1
        record = {"key": key, "n": n}
        state[key % 64] = state.get(key % 64, 0) + record["n"]
        yield (n * 2654435761 % 1000) * 1e-6


def reference(n_events=BLOCK_EVENTS):
    """One block of the reference workload."""
    queue, state, seq = [], {}, 0
    procs = [_process(state, k) for k in range(32)]
    for k, proc in enumerate(procs):
        heapq.heappush(queue, (next(proc), k, k))
    for _ in range(n_events):
        when, _, key = heapq.heappop(queue)
        event = _Event(when)
        event.callbacks.append(key)
        seq += 1
        heapq.heappush(queue, (when + procs[key].send(None), seq, key))
    return state


class Speedometer:
    """Reference blocks interleaved with the measured work."""

    def __init__(self, on_block=None):
        #: CPU seconds spent in reference blocks so far
        self.overhead_s = 0.0
        self.blocks = 0
        #: called as ``on_block(start, end)`` with the ``perf_counter``
        #: interval of each block (lets a tracer exclude it)
        self.on_block = on_block
        self._previous = None

    def _sample(self, signum, frame):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference()
        self.overhead_s += time.process_time() - cpu0
        self.blocks += 1
        if self.on_block is not None:
            self.on_block(wall0, time.perf_counter())

    def start(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def clock(self):
        """Process CPU seconds, excluding the reference blocks."""
        return time.process_time() - self.overhead_s

    def speed(self):
        """Reference CPU time per block now, relative to ``REF_BLOCK_S``
        (above 1: this machine is currently slower)."""
        if not self.blocks:  # the work ended before the first sample
            self._sample(None, None)
        return self.overhead_s / self.blocks / REF_BLOCK_S
