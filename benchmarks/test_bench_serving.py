"""Serve-bench checks: shard-count scaling of the serving tier.

The serving benchmark (:mod:`repro.exp.serving`) drives the Zipfian
open-loop workload against a directory sharded across 1/2/4/8
replicated managers.  Unlike the wall-clock benches, every reported
number here is virtual-time-only and byte-identical per seed, so the
gate compares the baseline exactly — no machine normalization.

The pytest tests run a scaled-down series and check the shape that
makes the benchmark meaningful: a saturated single shard (inflated
tail, admission rejections) that more shards relieve.  Run as a script
this file emits/gates the ``BENCH_serving.json`` artifact::

    PYTHONPATH=src python benchmarks/test_bench_serving.py \
        --out benchmarks/BENCH_serving.json       # refresh baseline
    PYTHONPATH=src python benchmarks/test_bench_serving.py \
        --check benchmarks/BENCH_serving.json     # CI gate

The gate also enforces the scaling claim itself: the widest point must
sustain at least the single-shard throughput at equal-or-better p99.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.exp.serving import SHARD_COUNTS, format_serving, run_serve_bench

#: scaled-down series knobs shared by the pytest checks (fast, but still
#: saturating one shard: ~50% descriptor-cache misses at 600 rps against
#: a 250-lookups/sec manager)
_QUICK = dict(duration_s=3.0, arrival_rate=600.0, n_keys=128,
              mgr_service_s=0.004)


def collect_serving(shard_counts: tuple = SHARD_COUNTS, jobs: int = 1,
                    **kwargs) -> dict:
    """The BENCH_serving payload: the shard-count series.

    Everything in it is deterministic simulation outcome — the gate
    compares against the baseline exactly.
    """
    return {
        "points": run_serve_bench(shard_counts, jobs=jobs, **kwargs),
        "python": sys.version.split()[0],
    }


#: per-point fields that must match the baseline exactly (all are
#: virtual-time simulation outcomes, not wall-clock measurements)
_EXACT = ("shards", "seed", "offered", "completed", "rejected", "failed",
          "writes", "disk_fallbacks", "p50_ms", "p99_ms", "p999_ms",
          "good_fraction", "audit_findings")


def check_serving(metrics: dict, baseline: dict) -> list[str]:
    """Gate a fresh series against a baseline; returns failure strings.

    A baseline point missing from the fresh series fails the gate.
    """
    failures = []
    base_points = {p["shards"]: p for p in baseline.get("points", ())}
    fresh = {p["shards"] for p in metrics["points"]}
    failures.extend(f"{n}-shard point missing from the fresh series"
                    for n in base_points if n not in fresh)
    for p in metrics["points"]:
        old = base_points.get(p["shards"])
        if old is None:
            continue
        for key in _EXACT:
            if p.get(key) != old.get(key):
                failures.append(
                    f"{p['shards']}-shard {key} changed: "
                    f"{p.get(key)!r} vs baseline {old.get(key)!r}")
    failures.extend(check_scaling_claim(metrics["points"]))
    return failures


def check_scaling_claim(points: list[dict]) -> list[str]:
    """The acceptance criterion: widest point beats the single shard."""
    by_shards = {p["shards"]: p for p in points}
    if 1 not in by_shards or len(by_shards) < 2:
        return ["series must include a 1-shard point and a wider one"]
    one = by_shards[1]
    wide = by_shards[max(by_shards)]
    failures = []
    if wide["throughput_rps"] < one["throughput_rps"]:
        failures.append(
            f"{wide['shards']}-shard throughput "
            f"{wide['throughput_rps']} rps below 1-shard "
            f"{one['throughput_rps']} rps")
    if wide["p99_ms"] > one["p99_ms"]:
        failures.append(
            f"{wide['shards']}-shard p99 {wide['p99_ms']} ms worse than "
            f"1-shard {one['p99_ms']} ms")
    for p in points:
        if p["audit_findings"]:
            failures.append(f"{p['shards']}-shard run ended with "
                            f"{p['audit_findings']} audit findings")
    return failures


# -- pytest checks (scaled down) ----------------------------------------------

def test_bench_serving_shard_relief(once):
    """One saturated shard vs two: the tail and rejections must drop."""
    results = once(run_serve_bench, (1, 2), **_QUICK)
    one, two = results
    print(f"\n{format_serving(results)}")
    assert one["offered"] == two["offered"]  # same arrival process
    for r in results:
        assert r["completed"] + r["rejected"] == r["offered"]
        assert r["audit_findings"] == 0
    # the single shard is saturated; the second shard relieves it
    assert two["throughput_rps"] >= one["throughput_rps"]
    assert two["p99_ms"] <= one["p99_ms"]
    assert two["good_fraction"] > one["good_fraction"]


def test_bench_serving_deterministic(once):
    """Same seed, same series — byte-identical, jobs-independent."""
    def run_twice():
        a = run_serve_bench((1,), jobs=1, duration_s=2.0,
                            arrival_rate=300.0, n_keys=64)
        b = run_serve_bench((1,), jobs=2, duration_s=2.0,
                            arrival_rate=300.0, n_keys=64)
        return a, b

    a, b = once(run_twice)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def main(argv=None) -> int:
    """Emit and/or gate the BENCH_serving artifact (see module docs)."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=None,
                    help="write the serving metrics JSON here")
    ap.add_argument("--check", type=Path, default=None,
                    help="baseline JSON to gate against")
    ap.add_argument("--shards", type=int, nargs="+",
                    default=list(SHARD_COUNTS))
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)

    metrics = collect_serving(tuple(args.shards), jobs=args.jobs)
    print(format_serving(metrics["points"]))

    if args.out:
        args.out.write_text(json.dumps(metrics, indent=2, sort_keys=True)
                            + "\n")
        print(f"wrote {args.out}")

    if args.check:
        baseline = json.loads(args.check.read_text())
        failures = check_serving(metrics, baseline)
        if failures:
            for f in failures:
                print(f"SERVING REGRESSION: {f}", file=sys.stderr)
            return 1
        print(f"serving gate passed against {args.check}")
    else:
        for f in check_scaling_claim(metrics["points"]):
            print(f"SERVING REGRESSION: {f}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
