"""The repository benchmark: end-to-end and per-layer metrics per workload.

Run from the repository root::

    python3 perfbench/run.py --workload scale-2000 --seed 3 --trace 0
    python3 perfbench/run.py --workload lu-fig7 --trace 1      # per-layer run
    python3 perfbench/run.py --steady 10                       # spread report
    python3 perfbench/run.py --workload churn-cache --holdout  # held-out seed

A run simulates the workload at the workload's default seed and at seeds
derived from ``--seed`` (``workloads.sub_seeds``), each in a fresh
process (``perfbench/rep.py``): as many as the workload's nominal cost
fits in ``--seconds``, and at least two.  Each metric is the median over these simulations.  Every
simulation's outputs are checked: the default seed against the values
the repository pins, every other seed against conservation and audit
invariants only (``--seed`` is the held-out seed).  A failed check makes
the run incorrect and is never reported as a number.

End-to-end metrics: ``run_s`` and ``setup_s`` are the host CPU seconds
of the driver call outside and inside platform/workload construction,
expressed at the reference machine speed (``calib.Speedometer``);
``peak_rss_mb`` is the simulation process's peak RSS; ``sim_elapsed_s``
is the virtual time the application needed; ``req_tail_ms`` is the
virtual request latency at the highest percentile with at least ten
requests beyond it.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs each sub-seed twice, untraced and traced (order
alternating), requires the two to agree bit for bit in virtual outputs
and event count, and reports the per-layer metrics; the per-function
profile is written to ``.perfbench/``.

``--steady R`` runs the benchmark R times per workload with seeds
``seed .. seed+R-1``, alternating the workload order between rounds, and
reports each end-to-end metric's median, quartiles and quartile spread
against the bound in ``BENCHMARK.json``; the raw values are written to
``.perfbench/steady-<seed>.json``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted`` (simulations run), ``failed`` (simulations that crashed
or failed a check) and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

#: a single simulation may not run longer than this (host seconds)
REP_TIMEOUT_S = 150.0
#: ``--seconds`` beyond this buys no more simulations (a run must end
#: within 180 s)
BUDGET_S = 120.0
#: a traced simulation and its untraced twin cost this many untraced ones
TRACE_COST = 3.5


def simulate(name, seed, traced, dump=None):
    """Run one simulation in a fresh process; its result dict, or an
    ``{"errors": [...]}`` dict when the process failed."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), name, str(seed),
           "1" if traced else "0"] + ([dump] if dump else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"errors": [f"seed {seed}: timed out after {REP_TIMEOUT_S}s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"errors": [f"seed {seed}: exit {proc.returncode}: "
                           f"{tail[0]}"]}
    return json.loads(lines[-1])


def end_to_end(rep):
    """The end-to-end metric values of one untraced simulation."""
    out = rep["out"]
    return {
        "run_s": rep["run_s"],
        "setup_s": rep["setup_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "sim_elapsed_s": out["sim_elapsed_s"],
        "req_tail_ms": out["req_tail_ms"],
    }


def per_layer(plain, traced):
    """The per-layer metric values of one untraced/traced pair."""
    lay, out = traced["layers"], traced["out"]
    self_s = lay["self_s"]
    wall = lay["wall_s"]
    events = out["events"]

    def ratio(num, den):
        return num / den if den else 0.0

    served = lay["core.local_hits"] + lay["core.remote_hits"] \
        + lay["core.disk_reads"]
    m = {f"{layer}.self_s": t for layer, t in self_s.items()}
    m.update({
        "trace.wall_s": wall,
        "trace.overhead_x": ratio(traced["run_s"], plain["run_s"]),
        "sim.events": events,
        "sim.processes": lay["sim.processes"],
        "sim.ns_per_event": ratio(plain["run_s"], events) * 1e9,
        "net.dgrams": lay["net.dgrams"],
        "net.dgram_fast_ratio": ratio(lay["net.fast_dgrams"],
                                      lay["net.dgrams"]),
        "net.dgram_fallbacks": lay["net.dgram_fallbacks"],
        "net.bulk_transfers": lay["net.bulk_transfers"],
        "net.bulk_fast_ratio": ratio(lay["net.fast_bulk"],
                                     lay["net.bulk_transfers"]),
        "net.sockets": lay["net.sockets"],
        "net.rpc_clients": lay["net.rpc_clients"],
        "net.rpc_calls": lay["net.rpc_calls"],
        "net.rpc_retries": lay["net.rpc_retries"],
        "net.rpc_p99_ms": lay["net.rpc_p99_ms"],
        "core.alloc_calls": lay["core.alloc_calls"],
        "core.alloc_host_us": ratio(lay["core.alloc_host_s"],
                                    lay["core.alloc_calls"]) * 1e6,
        "core.mread_calls": lay["core.mread_calls"],
        "core.mwrite_calls": lay["core.mwrite_calls"],
        "core.mread_p99_ms": lay["core.mread_p99_ms"],
        "core.mgr_busy_s": lay["core.mgr_busy_s"],
        "core.mgr_wait_ms": lay["core.mgr_wait_ms"],
        "core.shard_redirects": lay["core.shard_redirects"],
        "core.repl_flushes": lay["core.repl_flushes"],
        "core.local_hit_ratio": ratio(lay["core.local_hits"], served),
        "core.remote_hit_ratio": ratio(lay["core.remote_hits"], served),
        "core.evictions": lay["core.evictions"],
        "core.read_rejects": lay["core.read_rejects"],
        "core.migrated_regions": lay["core.migrated_regions"],
        "core.migrated_rehit_ratio": ratio(lay["core.migrated_hits"],
                                           lay["core.migrated_regions"]),
        "storage.disk_ops": lay["storage.disk_ops"],
        "storage.disk_busy_s": lay["storage.disk_busy_s"],
        "storage.disk_wait_s": lay["storage.disk_wait_s"],
        "storage.disk_batch_ratio": ratio(lay["storage.disk_batches"],
                                          lay["storage.disk_requests"]),
        "storage.pagecache_hit_ratio": ratio(
            lay["storage.pc_hits"],
            lay["storage.pc_hits"] + lay["storage.pc_misses"]),
        "storage.disk_reads": lay["core.disk_reads"],
        "cluster.recruits": lay["cluster.recruits"],
        "cluster.reclaims": lay["cluster.reclaims"],
        "workloads.requests": _requests(out),
        "workloads.req_p50_ms": out["req_p50_ms"],
        "workloads.req_p99_ms": out["req_p99_ms"],
        "workloads.req_count": out["req_count"],
        "metrics.recorders": lay["metrics.recorders"],
        "exp.setup_per_host_us": ratio(plain["setup_s"],
                                       plain["hosts_built"]) * 1e6,
    })
    return m


def _requests(out):
    """Application requests issued, over every run of the simulation."""
    if "offered" in out:
        return out["offered"]
    reqs = out["requests"]
    return sum(reqs) if isinstance(reqs, list) else reqs


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(name, seed, seconds, trace):
    """One benchmark run; returns the result object (last stdout line).

    Simulates the first seeds of :func:`workloads.sub_seeds` -- as many
    as the workload's nominal cost fits in ``seconds``, and at least the
    default seed and ``seed`` -- so the same arguments always simulate
    the same inputs.
    """
    units = {m["name"]: m["unit"] for m in load_spec()[
        "per_layer" if trace else "end_to_end"]}
    cost = wl.WORKLOADS[name]["sim_s"] * (TRACE_COST if trace else 1)
    count = max(2, int(min(seconds, BUDGET_S) / cost))
    rows, errors, attempted = [], [], 0
    seeds = itertools.islice(wl.sub_seeds(name, seed), count)
    for i, s in enumerate(seeds):
        if errors:
            break
        if trace:
            dump = os.path.join(ROOT, ".perfbench",
                                f"profile-{name}-{s}.json")
            os.makedirs(os.path.dirname(dump), exist_ok=True)
            order = (False, True) if i % 2 == 0 else (True, False)
            pair = {t: simulate(name, s, t, dump if t else None)
                    for t in order}
            attempted += 2
            errs = pair[False]["errors"] + pair[True]["errors"]
            if not errs and pair[False]["fingerprint"] != \
                    pair[True]["fingerprint"]:
                errs.append(f"seed {s}: traced outputs differ from "
                            f"untraced")
            if not errs:
                rows.append(per_layer(pair[False], pair[True]))
        else:
            rep = simulate(name, s, False)
            attempted += 1
            errs = rep["errors"]
            if not errs:
                rows.append(end_to_end(rep))
                _describe(rep)
        errors += errs
        for e in errs:
            print(f"FAILED {name}: {e}")
    failed = attempted - len(rows) * (2 if trace else 1)
    correct = not errors
    metrics = {}
    if correct:
        for metric, unit in units.items():
            value = statistics.median(r[metric] for r in rows)
            metrics[metric] = {"value": value, "unit": unit}
            print(f"  {metric:30s} {value:14.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _describe(rep):
    """One human-readable line per simulation (not part of the result)."""
    out = rep["out"]
    extras = " ".join(f"{k}={out[k]:.6g}" for k in
                      ("speedup", "good_frac", "fail_frac") if k in out)
    print(f"  seed {rep['seed']}: run {rep['run_s']:.3f}s (cpu "
          f"{rep['run_cpu_s']:.3f}s, speed {rep['speed']:.2f}) setup "
          f"{rep['setup_s']:.4f}s rss {rep['peak_rss_mb']:.1f}MB "
          f"virtual {out['sim_elapsed_s']:.4f}s latency p50 "
          f"{out['req_p50_ms']:.4f} p99 {out['req_p99_ms']:.4f} tail "
          f"{out['req_tail_ms']:.4f} ms (n={out['req_count']}) "
          f"events {out['events']} {extras}")


def steady(names, rounds, seed, seconds):
    """Repeated runs, alternating workload order; spread vs bound."""
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    values = {n: {m: [] for m in bounds} for n in names}
    for r in range(rounds):
        order = names if r % 2 == 0 else names[::-1]
        for name in order:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(seed + r), "--seconds", str(seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"round {r} {name}: INCORRECT")
                return 1
            for m in bounds:
                values[name][m].append(res["metrics"][m]["value"])
            print(f"round {r} {name}: " + " ".join(
                f"{m}={res['metrics'][m]['value']:.6g}" for m in bounds),
                flush=True)
    summary = os.path.join(ROOT, ".perfbench", f"steady-{seed}.json")
    os.makedirs(os.path.dirname(summary), exist_ok=True)
    with open(summary, "w") as f:
        json.dump(values, f, indent=1)
    worst = 0.0
    for name in names:
        print(f"\n{name} ({rounds} runs)")
        for m, bound in bounds.items():
            vals = values[name][m]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if m != "setup_s":
                worst = max(worst, spread / bound)
            verdict = ("ok" if spread < bound / 3 else
                       "within bound" if spread <= bound else "OVER BOUND")
            print(f"  {m:14s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.4f}  bound {bound}  "
                  f"{verdict}")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--holdout", action="store_true",
                    help="use the workload's held-out seed")
    ap.add_argument("--seconds", type=float,
                    help="measuring time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="ROUNDS")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    names = args.workload or list(wl.WORKLOADS)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.steady:
        seed = 1 if args.seed is None else args.seed
        return steady(names, args.steady, seed, args.seconds)
    if len(names) != 1:
        ap.error("give exactly one --workload (or --steady)")
    name = names[0]
    seed = args.seed
    if args.holdout:
        seed = wl.WORKLOADS[name]["holdout"]
    elif seed is None:
        seed = wl.WORKLOADS[name]["seed"]
    t0 = time.perf_counter()
    print(f"{name} seed {seed} trace {args.trace}")
    result = run_workload(name, seed, args.seconds, args.trace == 1)
    print(f"  ({time.perf_counter() - t0:.1f}s)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
