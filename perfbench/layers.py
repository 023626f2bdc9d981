"""Per-layer host-time tracing, installed from outside the program.

:class:`LayerTracer` wraps every function and method defined in the
modules of the simulator's layer packages (``repro.sim``, ``repro.net``,
``repro.core``, ``repro.storage``, ``repro.cluster``,
``repro.workloads``, ``repro.metrics`` + ``repro.obs``, ``repro.exp``)
with a timing wrapper, and rebinds every module-level name that refers
to a wrapped function.  Nothing in ``src/`` changes.

Accounting is exclusive-time by stack: at every wrapper entry and exit
the host time since the previous entry or exit is charged to the
function on top of the stack, so a wrapper's *self* time is its interval
minus its nested wrapped intervals, and the per-function self times
(plus ``other``, the sentinel at the bottom of the stack) sum exactly to
the traced wall (intervals passed to :meth:`LayerTracer.exclude`, the
speedometer's reference blocks, are removed from both).  Generator
functions are timed per resume: each ``send``/``throw`` into the
generator is one interval.  Calls are counted per function; a few
functions additionally record their *virtual* duration (first resume to
return), and the owners of ``Resource`` queues record virtual wait and
hold times.  Everything stays in memory; :meth:`LayerTracer.dump`
writes it at the end.

Known blind spot: closures and lambdas that the kernel calls back (for
example the datagram fast path's stage callbacks) are not module
attributes, so their time is charged to whichever wrapped function
called them -- usually ``Simulator.run``, i.e. ``sim``.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter

#: package prefix -> layer name
LAYER_OF_PACKAGE = {
    "repro.sim": "sim", "repro.net": "net", "repro.core": "core",
    "repro.storage": "storage", "repro.cluster": "cluster",
    "repro.workloads": "workloads", "repro.metrics": "metrics",
    "repro.obs": "metrics", "repro.exp": "exp",
}
LAYERS = ("sim", "net", "core", "storage", "cluster", "workloads",
          "metrics", "exp")

#: generator functions whose virtual duration is recorded
VIRTUAL_PROBES = {
    "repro.net.rpc.RpcClient.call": "rpc",
    "repro.core.runtime.DodoRuntime.mread": "mread",
}


def layer_of(module_name):
    """Layer of a ``repro`` module, or None when it is not traced."""
    for prefix, layer in LAYER_OF_PACKAGE.items():
        if module_name == prefix or module_name.startswith(prefix + "."):
            return layer
    return None


class LayerTracer:
    """Stack-based self-time accounting over wrapped layer functions."""

    def __init__(self):
        self.names = ["other"]
        self.layers = ["other"]
        self.self_t = [0.0]
        self.incl_t = [0.0]
        self.calls = [0]
        self.virtual = defaultdict(list)     # probe -> virtual durations
        self.resources = {}                  # id(Resource) -> (obj, owner)
        self.waits = defaultdict(list)       # owner module -> waits (s)
        self.holds = defaultdict(float)      # owner module -> busy (s)
        self.recorders = []                  # (owner module, Recorder)
        self._stack = [0]
        self._last = [0.0]
        #: host time excluded so far (reference blocks of the speedometer)
        self._excluded = [0.0]
        self._t0 = self._t1 = 0.0
        self._fid = {}

    # -- installation ---------------------------------------------------
    def install(self):
        """Import every layer module and wrap what it defines."""
        import repro
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if layer_of(info.name):
                importlib.import_module(info.name)
        self._hook_resources()
        self._hook_recorders()
        originals = {}
        for mod_name, module in sorted(sys.modules.items()):
            if not layer_of(mod_name) or module is None:
                continue
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != mod_name:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj)
                    originals[id(obj)] = (obj, wrapped)
                    setattr(module, name, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                    self._wrap_class(obj)
        # names bound by ``from x import f`` still point at the originals
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for name, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])

    def _wrap_class(self, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name != "__init__":
                continue
            kind = type(attr) if isinstance(
                attr, (staticmethod, classmethod)) else None
            fn = attr.__func__ if kind else attr
            if inspect.isfunction(fn) and fn.__module__ == cls.__module__:
                wrapped = self._wrap(fn)
                setattr(cls, name, kind(wrapped) if kind else wrapped)

    def _register(self, fn):
        key = f"{fn.__module__}.{fn.__qualname__}"
        fid = self._fid.get(key)
        if fid is None:
            fid = self._fid[key] = len(self.names)
            self.names.append(key)
            self.layers.append(layer_of(fn.__module__))
            self.self_t.append(0.0)
            self.incl_t.append(0.0)
            self.calls.append(0)
        return key, fid

    def _wrap(self, fn):
        key, fid = self._register(fn)
        stack, last, self_t, incl_t, calls, excl = (
            self._stack, self._last, self.self_t, self.incl_t, self.calls,
            self._excluded)
        clock = perf_counter

        if not inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                now = clock()
                self_t[stack[-1]] += now - last[0]
                stack.append(fid)
                calls[fid] += 1
                last[0] = t0 = now
                x0 = excl[0]
                try:
                    return fn(*args, **kwargs)
                finally:
                    now = clock()
                    self_t[stack.pop()] += now - last[0]
                    incl_t[fid] += now - t0 - (excl[0] - x0)
                    last[0] = now
            return call

        probe = self.virtual[VIRTUAL_PROBES[key]] \
            if key in VIRTUAL_PROBES else None

        @functools.wraps(fn)
        def gen(*args, **kwargs):
            inner = fn(*args, **kwargs)
            calls[fid] += 1
            sim = args[0].sim if probe is not None else None
            v0 = sim.now if sim is not None else 0.0
            value = exc = None
            while True:
                now = clock()
                self_t[stack[-1]] += now - last[0]
                stack.append(fid)
                last[0] = t0 = now
                x0 = excl[0]
                try:
                    if exc is None:
                        step = [0, inner.send(value)]
                    else:
                        step = [0, inner.throw(exc)]
                except StopIteration as stop:
                    step = [1, stop.value]
                except BaseException as err:  # re-raised below
                    step = [2, err]
                now = clock()
                self_t[stack.pop()] += now - last[0]
                incl_t[fid] += now - t0 - (excl[0] - x0)
                last[0] = now
                if step[0] == 1:
                    if sim is not None:
                        probe.append(sim.now - v0)
                    return step[1]
                if step[0] == 2:
                    raise step[1]
                try:
                    # yield straight out of the list so no local keeps the
                    # event alive (the kernel recycles unreferenced Timeouts)
                    value, exc = (yield step.pop()), None
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as err:  # delivered into the inner
                    value, exc = None, err
        return gen

    def _hook_resources(self):
        """Record virtual wait (request to grant) and hold (grant to
        release) per owning module of every ``Resource``."""
        from repro.sim.resources import Resource
        init, acquire, release = (Resource.__init__, Resource.acquire,
                                  Resource.release)
        resources, waits, holds = self.resources, self.waits, self.holds
        granted = {}

        @functools.wraps(init)
        def res_init(res, *args, **kwargs):
            init(res, *args, **kwargs)
            resources[id(res)] = (res, _caller_module())

        @functools.wraps(acquire)
        def res_acquire(res):
            evt = acquire(res)
            owner = resources.get(id(res), (None, None))[1]
            if owner is not None:
                sim, t_req = res.sim, res.sim.now

                def on_grant(_evt):
                    waits[owner].append(sim.now - t_req)
                    granted[id(res)] = sim.now
                evt.callbacks.insert(0, on_grant)
            return evt

        @functools.wraps(release)
        def res_release(res):
            t_grant = granted.pop(id(res), None)
            if t_grant is not None:
                holds[resources[id(res)][1]] += res.sim.now - t_grant
            return release(res)

        Resource.__init__ = res_init
        Resource.acquire = res_acquire
        Resource.release = res_release

    def _hook_recorders(self):
        """Keep every Recorder with the module that created it."""
        from repro.metrics.recorder import Recorder
        init, recorders = Recorder.__init__, self.recorders

        @functools.wraps(init)
        def rec_init(rec, *args, **kwargs):
            init(rec, *args, **kwargs)
            recorders.append((_caller_module(), rec))
        Recorder.__init__ = rec_init

    # -- running --------------------------------------------------------
    def start(self):
        self._t0 = self._last[0] = perf_counter()

    def stop(self):
        now = perf_counter()
        self.self_t[self._stack[-1]] += now - self._last[0]
        self._last[0] = self._t1 = now

    def exclude(self, start, end):
        """Drop the host interval ``[start, end]`` (which ran inside the
        current innermost wrapper) from every self and inclusive time."""
        self.self_t[self._stack[-1]] += start - self._last[0]
        self._last[0] = end
        self._excluded[0] += end - start

    @property
    def wall_s(self):
        """Traced host wall time, excluding :meth:`exclude` intervals."""
        return self._t1 - self._t0 - self._excluded[0]

    # -- results --------------------------------------------------------
    def layer_self(self):
        out = dict.fromkeys(LAYERS + ("other",), 0.0)
        for fid, t in enumerate(self.self_t):
            out[self.layers[fid]] += t
        return out

    def calls_of(self, *names):
        return sum(self.calls[self._fid[n]] for n in names if n in self._fid)

    def incl_of(self, name):
        fid = self._fid.get(name)
        return self.incl_t[fid] if fid is not None else 0.0

    def counter(self, module, key):
        return sum(rec.count(key) for owner, rec in self.recorders
                   if owner == module)

    def sample_sum(self, module, key):
        return sum(sum(rec.samples(key)) for owner, rec in self.recorders
                   if owner == module)

    def dump(self):
        """JSON-safe per-function profile (functions that ran)."""
        rows = [{"fn": self.names[i], "layer": self.layers[i],
                 "calls": self.calls[i], "self_s": self.self_t[i],
                 "incl_s": self.incl_t[i]}
                for i in range(len(self.names))
                if self.calls[i] or self.self_t[i]]
        rows.sort(key=lambda r: -r["self_s"])
        return {"wall_s": self.wall_s, "layers": self.layer_self(),
                "functions": rows}


def _caller_module():
    """Name of the innermost ``repro`` module on the stack above the
    constructor hook that called this: the module creating the object
    (the constructor itself has returned; wrapper frames are skipped)."""
    frame = sys._getframe(2)
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name.startswith("repro."):
            return name
        frame = frame.f_back
    return None
