#!/usr/bin/env python
"""Perf smoke harness: measure the simulator's hot paths, emit a JSON
artifact, and optionally gate against a checked-in baseline.

Measures three things:

* ``events_per_sec`` — raw DES-kernel dispatch throughput (timeout
  ping-pong, no network);
* the bulk data path — one large lossless transfer through the blast
  protocol, once with the flow-level fast path and once forced through
  the packet-by-packet path, each timed in CPU seconds per transfer
  over samples of at least 50 ms (``bulk_fast_speedup_x`` is the
  ratio; ``BENCH`` acceptance requires at least 5x);
* ``fig7_lu_runtime_s`` — wall time of an end-to-end experiment driver
  (lu over UDP at 1/64 scale), the realistic mixed workload.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py \
        --out benchmarks/BENCH_primitives.json            # refresh baseline
    PYTHONPATH=src python benchmarks/perf_smoke.py \
        --check benchmarks/BENCH_primitives.json          # CI gate

The ``--check`` gate compares machine-independent metrics (fast-path
event count, fast-vs-packet speedup) directly, and host-time metrics
only after normalizing by the measured kernel throughput, so a slower CI
runner does not fail the gate — only a real regression in work-per-event
or event-count does.  Tolerance is 30% (``--tolerance`` to override).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

MB = 1024 * 1024

#: default transfer size; --full raises it to a full GB
BULK_BYTES = 256 * MB
BULK_BYTES_FULL = 1024 * MB


def bench_events_per_sec(n_events: int = 300_000, repeats: int = 3) -> dict:
    """Kernel dispatch throughput: a chain of bare timeouts.

    Best of ``repeats`` runs — on shared/virtualized CPUs, steal time
    can halve a single run's wall clock, and the best run is the least
    contaminated estimate of what the kernel actually costs.  The
    per-run CPU-time figure is reported alongside as a noise-immune
    cross-check (``events_per_cpu_sec``).
    """
    from repro.sim import Simulator

    best = None
    for _ in range(max(1, repeats)):
        sim = Simulator(seed=0)

        def ticker():
            for _ in range(n_events):
                yield sim.timeout(1e-7)

        sim.process(ticker())
        t0 = time.perf_counter()
        c0 = time.process_time()
        sim.run()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        run = {"events_per_sec": sim.events_processed / wall,
               "events_per_cpu_sec": sim.events_processed / cpu,
               "kernel_events": sim.events_processed,
               "kernel_wall_s": wall}
        if best is None or run["events_per_sec"] > best["events_per_sec"]:
            best = run
    return best


#: CPU seconds one bulk timing sample must last at least: a fast-path
#: transfer costs well under a millisecond, so one is timed alone only
#: to the resolution that a shared CPU's scheduling noise allows
MIN_SAMPLE_CPU_S = 0.05


def _bulk_setup(size: int, fastpath: bool):
    """Build a two-host network with a receiver parked in ``recv_bulk``;
    returns a function that runs one ``size``-byte transfer to the end."""
    from repro.net import (NIC, Network, TransportEndpoint, recv_bulk,
                           send_bulk, transport_params)
    from repro.net.bulk import BulkParams
    from repro.sim import Simulator

    sim = Simulator(seed=1)
    network = Network(sim)
    eps = {}
    for host in ("a", "b"):
        nic = NIC(sim, host)
        network.attach(nic)
        eps[host] = TransportEndpoint(sim, nic, network,
                                      transport_params("udp"))
    tx = eps["a"].socket()
    rx = eps["b"].socket(port=7, recvbuf=256 * 1024)
    params = BulkParams(fastpath=fastpath)

    def sender():
        yield sim.process(send_bulk(tx, ("b", 7), size, params=params))
        return sim.now

    sim.process(recv_bulk(rx, params=params))

    def run() -> dict:
        t_virtual = sim.run(until=sim.process(sender()))
        return {"virtual_s": t_virtual, "events": sim.events_processed,
                "engaged": network.stats.count("fastpath.transfers")}
    return run


def _bulk_sample(size: int, fastpath: bool, n: int) -> tuple:
    """CPU seconds per transfer over ``n`` back-to-back transfers (each
    on its own network, built before the clock starts), and the results
    of the transfers.  The cyclic collector is off while the clock runs."""
    runs = [_bulk_setup(size, fastpath) for _ in range(n)]
    gc.collect()  # as timeit does: no collector pause from set-up garbage
    gc.disable()
    try:
        c0 = time.process_time()
        results = [run() for run in runs]
        cpu = time.process_time() - c0
    finally:
        gc.enable()
    return cpu / n, results


def _transfers_per_sample(size: int, fastpath: bool) -> int:
    """How many back-to-back transfers make a sample of at least
    :data:`MIN_SAMPLE_CPU_S`."""
    n = 1
    per, _ = _bulk_sample(size, fastpath, n)
    while per * n < MIN_SAMPLE_CPU_S:
        n = max(2 * n, int(1.2 * MIN_SAMPLE_CPU_S / max(per, 1e-9)))
        per, _ = _bulk_sample(size, fastpath, n)
    return n


def bench_bulk(size: int, repeats: int = 3) -> dict:
    """Bulk transfer CPU time per transfer, best of ``repeats`` samples
    per path.

    The fast-path transfer is sub-millisecond: timed alone, a single
    steal burst or timer tick on a shared CPU can triple it.  Each
    sample therefore times enough back-to-back transfers in
    ``process_time`` to last :data:`MIN_SAMPLE_CPU_S`; the two paths'
    samples alternate, so a slow spell of the machine hits both, and,
    as with :func:`bench_events_per_sec`, the best sample is the least
    contaminated estimate.  The speedup is the ratio of the two bests.
    The ``*_wall_s`` names are kept for the baseline's schema.
    """
    transfers = {path: _transfers_per_sample(size, path)
                 for path in (True, False)}
    best = {True: float("inf"), False: float("inf")}
    last = {}
    for _ in range(max(1, repeats)):
        for path, n in transfers.items():
            per, results = _bulk_sample(size, path, n)
            best[path] = min(best[path], per)
            last[path] = results[-1]
    fast, pkt = last[True], last[False]
    fast_s, pkt_s = best[True], best[False]
    assert fast["engaged"] == 1, "fast path failed to engage"
    assert fast["virtual_s"] == pkt["virtual_s"], \
        "fast path changed simulated time — this is a correctness bug"
    return {
        "bulk_bytes": size,
        "bulk_fast_wall_s": fast_s,
        "bulk_packet_wall_s": pkt_s,
        "bulk_fast_speedup_x": pkt_s / fast_s,
        "bulk_fast_events": fast["events"],
        "bulk_packet_events": pkt["events"],
        "bulk_mb_per_wall_s": size / MB / fast_s,
        "bulk_virtual_s": fast["virtual_s"],
    }


def bench_fig7() -> dict:
    from repro.exp.fig7 import run_lu
    from repro.net.bulk import BulkParams

    t0 = time.perf_counter()
    res = run_lu("udp", scale=1 / 64)
    wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    res_pkt = run_lu("udp", scale=1 / 64,
                     bulk=BulkParams(fastpath=False))
    wall_pkt = time.perf_counter() - t0
    assert res == res_pkt, \
        "fast path changed fig7 results — this is a correctness bug"
    return {"fig7_lu_runtime_s": wall,
            "fig7_lu_packet_runtime_s": wall_pkt,
            "fig7_fastpath_speedup_x": wall_pkt / wall,
            "fig7_lu_speedup": res["speedup"]}


def collect(full: bool = False) -> dict:
    metrics = {}
    metrics.update(bench_events_per_sec())
    metrics.update(bench_bulk(BULK_BYTES_FULL if full else BULK_BYTES))
    metrics.update(bench_fig7())
    metrics["python"] = sys.version.split()[0]
    metrics["full"] = full
    return metrics


#: metrics compared directly: value, lower-is-better.  ``events_per_sec``
#: is the one machine-sensitive entry (the calendar-queue kernel's raw
#: dispatch trajectory must not slide back); best-of-N sampling plus the
#: 30% tolerance absorbs ordinary runner variance, and ``--tolerance``
#: widens it for known-slower machines.
_DIRECT_CHECKS = {
    "bulk_fast_events": True,          # event count is deterministic
    "bulk_fast_speedup_x": False,      # ratio of two CPU times, one run
    "events_per_sec": False,           # kernel throughput trajectory
}
#: host-time metrics (the bulk one in CPU seconds per transfer),
#: normalized by kernel throughput before comparing
_NORMALIZED_CHECKS = ["bulk_fast_wall_s", "fig7_lu_runtime_s"]

#: the acceptance floor: the fast path must beat the packet path by 5x
#: on the large lossless transfer no matter what the baseline says
MIN_SPEEDUP = 5.0

#: absolute kernel-throughput floor — a backstop that catches an
#: event-dispatch regression even when the baseline file is stale
MIN_EVENTS_PER_SEC = 400_000.0


def check(metrics: dict, baseline: dict, tolerance: float) -> list[str]:
    failures = []
    if metrics["bulk_fast_speedup_x"] < MIN_SPEEDUP:
        failures.append(
            f"bulk_fast_speedup_x {metrics['bulk_fast_speedup_x']:.1f} "
            f"below the {MIN_SPEEDUP}x floor")
    if metrics["events_per_sec"] < MIN_EVENTS_PER_SEC:
        failures.append(
            f"events_per_sec {metrics['events_per_sec']:,.0f} below the "
            f"{MIN_EVENTS_PER_SEC:,.0f} floor")
    for name, lower_better in _DIRECT_CHECKS.items():
        if name not in baseline:
            continue
        new, old = metrics[name], baseline[name]
        if lower_better and new > old * (1 + tolerance):
            failures.append(f"{name} regressed: {new:.4g} vs {old:.4g}")
        if not lower_better and new < old * (1 - tolerance):
            failures.append(f"{name} regressed: {new:.4g} vs {old:.4g}")
    # normalize host times by kernel throughput: work = time * events/sec
    # measures "kernel-event-equivalents of work", which transfers across
    # machines of different speed
    for name in _NORMALIZED_CHECKS:
        if name not in baseline or "events_per_sec" not in baseline:
            continue
        new = metrics[name] * metrics["events_per_sec"]
        old = baseline[name] * baseline["events_per_sec"]
        if new > old * (1 + tolerance):
            failures.append(
                f"{name} regressed (normalized): {new:.4g} vs {old:.4g} "
                f"kernel-event-equivalents")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=None,
                    help="write the metrics JSON here")
    ap.add_argument("--check", type=Path, default=None,
                    help="baseline JSON to gate against")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional regression (default 0.30)")
    ap.add_argument("--full", action="store_true",
                    help="GB-scale bulk transfer instead of 256 MB")
    args = ap.parse_args(argv)

    metrics = collect(full=args.full)
    for key in ("events_per_sec", "events_per_cpu_sec",
                "bulk_fast_wall_s", "bulk_packet_wall_s",
                "bulk_fast_speedup_x", "bulk_fast_events",
                "bulk_mb_per_wall_s", "fig7_lu_runtime_s",
                "fig7_fastpath_speedup_x"):
        value = metrics[key]
        shown = f"{value:,.2f}" if isinstance(value, float) else str(value)
        print(f"{key:>24}: {shown}")

    if args.out:
        args.out.write_text(json.dumps(metrics, indent=2, sort_keys=True)
                            + "\n")
        print(f"wrote {args.out}")

    if args.check:
        baseline = json.loads(args.check.read_text())
        failures = check(metrics, baseline, args.tolerance)
        if failures:
            for f in failures:
                print(f"PERF REGRESSION: {f}", file=sys.stderr)
            return 1
        print(f"perf gate passed against {args.check} "
              f"(tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
