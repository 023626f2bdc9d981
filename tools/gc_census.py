#!/usr/bin/env python
"""Census of CPython's cyclic garbage collector over one experiment run.

Runs one of the benchmark's four workloads through its ``repro.exp``
driver and reports what the cyclic collector did during the call:

* collections per generation and host seconds spent collecting, from a
  normal run (``gc.callbacks``; allocation and freeing untouched);
* objects the collector reclaimed, i.e. objects that only died because
  they sat in a reference cycle — refcounting frees everything else;
* the top types among that cyclic garbage, from a second run in a
  fresh process under ``gc.DEBUG_SAVEALL`` (which keeps the garbage
  for inspection, so its collection counts are not reported).

Both passes count only collections that ran during the driver call;
the simulation the driver leaves behind (its object graph is cyclic
and dies once, at the end) is collected afterwards and not counted.
Each pass gets its own process because a second driver call in the
same process would also reclaim the first call's simulation.

A simulator whose per-event objects are acyclic reclaims almost nothing
here; a type that shows up by the thousand names a reference cycle to
break (see docs/PERFORMANCE.md §1).  Run from the repository root::

    PYTHONPATH=src python tools/gc_census.py scale-2000

Each workload runs at its benchmark default seed
(``perfbench/workloads.py``).
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import subprocess
import sys
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS  # noqa: E402  (names and default seeds)

#: how many garbage types the table lists
TOP = 10


def _scale(seed):
    from repro.exp.scale import run_scale
    run_scale(n_hosts=2000, seed=seed)


def _serve(seed):
    from repro.exp.serving import run_serving
    run_serving(n_shards=4, seed=seed)


def _lu(seed):
    from repro.exp.fig7 import run_lu
    run_lu("udp", scale=1 / 64, seed=seed)


def _cache(seed):
    from repro.exp.cache import run_cache
    run_cache(policy="cost-aware", migration=True, workload="nondedicated",
              seed=seed)


#: workload -> the driver call its benchmark workload makes, without the
#: benchmark's instrumentation hooks (they would add allocations)
DRIVERS = {
    "scale-2000": _scale,
    "serve-4shard": _serve,
    "lu-fig7": _lu,
    "churn-cache": _cache,
}
assert set(DRIVERS) == set(WORKLOADS), "census and benchmark disagree"


def type_name(obj) -> str:
    """A readable name for one garbage object: functions and bound
    methods carry the qualified name of the code they wrap."""
    if isinstance(obj, types.FunctionType):
        return f"function {obj.__module__}.{obj.__qualname__}"
    if isinstance(obj, types.MethodType):
        return f"method {obj.__func__.__qualname__}"
    cls = type(obj)
    if cls.__module__ == "builtins":
        return cls.__qualname__
    return f"{cls.__module__}.{cls.__qualname__}"


def count_collections(run) -> dict:
    """Run ``run()`` with the collector on; collection counts, objects
    reclaimed and seconds spent collecting, per generation."""
    collections_ = [0, 0, 0]
    collected = [0, 0, 0]
    spent = [0.0, 0.0, 0.0]
    started = [0.0]

    def callback(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
            return
        gen = info["generation"]
        collections_[gen] += 1
        collected[gen] += info["collected"]
        spent[gen] += time.perf_counter() - started[0]

    gc.collect()
    gc.callbacks.append(callback)
    try:
        run()
    finally:
        gc.callbacks.remove(callback)
    return {"collections": collections_, "collected": collected,
            "gc_s": [round(s, 4) for s in spent]}


def garbage_types(run, top: int) -> list:
    """Run ``run()`` under ``DEBUG_SAVEALL``; the ``top`` most common
    types among the objects the collector found unreachable."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        # no final collect: like count_collections, census only what
        # the collector reclaimed while the driver ran, not the teardown
        tally = collections.Counter(type_name(o) for o in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        gc.collect()
    return tally.most_common(top)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(DRIVERS))
    ap.add_argument("--types-only", action="store_true",
                    help=argparse.SUPPRESS)  # the second pass's child
    args = ap.parse_args(argv)

    driver = DRIVERS[args.workload]
    seed = WORKLOADS[args.workload]["seed"]
    if args.types_only:
        print(json.dumps(garbage_types(lambda: driver(seed), TOP)))
        return 0
    counts = count_collections(lambda: driver(seed))
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), args.workload,
         "--types-only"],
        check=True, capture_output=True, text=True)
    top_types = json.loads(child.stdout.splitlines()[-1])

    print(f"{args.workload} (seed {seed})")
    for gen in range(3):
        print(f"  gen{gen}: {counts['collections'][gen]:6d} collections "
              f"{counts['collected'][gen]:9d} objects reclaimed "
              f"{counts['gc_s'][gen]:8.3f} s")
    print(f"  total objects reclaimed by the cyclic collector: "
          f"{sum(counts['collected'])}")
    for name, n in top_types:
        print(f"  {n:9d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
