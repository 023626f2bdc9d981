"""The exact-compare bench gates must notice a dropped row or point.

``benchmarks/test_bench_{cache,serving,scaling}.py`` gate a fresh run
against a checked-in baseline.  A gate that silently skipped rows it
could not match would let an ablation row or series point vanish
without failing CI, so each gate is fed its own baseline (which must
pass) and then a copy with one entry removed (which must fail).  The
gate modules are plain scripts, imported here by path.
"""

import copy
import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "benchmarks")


def _load(name):
    path = os.path.join(BENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"_gate_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _baseline(name):
    with open(os.path.join(BENCH, name)) as fp:
        return json.load(fp)


def test_cache_gate_reports_dropped_and_unbaselined_rows():
    gate = _load("test_bench_cache")
    baseline = _baseline("BENCH_cache.json")
    assert gate.check_cache(copy.deepcopy(baseline), baseline) == []

    fresh = copy.deepcopy(baseline)
    dropped = fresh["rows"].pop(1)
    failures = gate.check_cache(fresh, baseline)
    assert failures == [f"{gate._variant(dropped)} missing from the "
                        f"fresh run"]

    # the same drop seen from the other side: a fresh row the baseline
    # never recorded
    failures = gate.check_cache(baseline, fresh)
    assert failures == [f"{gate._variant(dropped)} has no baseline row"]


def test_serving_gate_reports_a_dropped_point():
    gate = _load("test_bench_serving")
    baseline = _baseline("BENCH_serving.json")
    assert gate.check_serving(copy.deepcopy(baseline), baseline) == []

    fresh = copy.deepcopy(baseline)
    dropped = fresh["points"].pop(1)
    failures = gate.check_serving(fresh, baseline)
    assert (f"{dropped['shards']}-shard point missing from the fresh "
            f"series") in failures


def test_scaling_gate_reports_a_dropped_point():
    gate = _load("test_bench_scaling")
    baseline = _baseline("BENCH_scaling.json")
    assert gate.check_scaling(copy.deepcopy(baseline), baseline) == []

    fresh = copy.deepcopy(baseline)
    dropped = fresh["points"].pop(0)
    failures = gate.check_scaling(fresh, baseline)
    assert failures == [f"{dropped['hosts']}-host point missing from the "
                        f"fresh series"]
