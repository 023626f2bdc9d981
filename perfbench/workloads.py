"""The benchmark's workloads: one driver call each, plus its output checks.

Every workload calls one existing experiment driver of ``src/repro/exp``
with the seed it is given and reduces the driver's result to a flat dict
of *virtual* outputs (simulated quantities that repeat exactly per
seed).  Two kinds of checks run on that dict:

* the workload's ``check`` — conservation and audit invariants that hold
  at any seed (the held-out seed runs only these; the invariant auditor
  itself runs after the timed driver call);
* ``PINNED`` — the values the repository already pins for the workload's
  default seed (``benchmarks/BENCH_*.json`` and the driver docstrings).

A failed check is reported as a string and makes the run incorrect; it
is never turned into a metric.
"""

from __future__ import annotations

import itertools

#: spacing of the extra seeds one run derives from its ``--seed``
SEED_STRIDE = 100_003


def _run_scale(seed, hooks):
    from repro.exp.scale import run_scale
    r = run_scale(n_hosts=2000, seed=seed)
    return {
        "sim_elapsed_s": r["elapsed_s"],
        "virtual_s": r["virtual_s"],
        "requests": r["requests"],
        "fast_dgrams": r["fastpath"]["dgrams"],
        "fast_bulk": r["fastpath"]["bulk_transfers"],
        "fast_disk_batches": r["fastpath"]["disk_batches"],
    }


def _check_scale(out):
    errs = []
    if out["requests"] != 6144:
        errs.append(f"requests {out['requests']} != 6144")
    if not out["virtual_s"] >= out["sim_elapsed_s"] > 0:
        errs.append("virtual time does not cover the application run")
    return errs


def _run_serve(seed, hooks):
    from repro.exp.serving import run_serving
    r = run_serving(n_shards=4, seed=seed)
    tier = hooks.tiers[-1]
    return {
        "sim_elapsed_s": r["virtual_s"],
        "offered": r["offered"],
        "completed": r["completed"],
        "rejected": r["rejected"],
        "failed": r["failed"],
        "writes": r["writes"],
        "disk_fallbacks": r["disk_fallbacks"],
        "outcomes": r["outcomes"],
        "tier_p99_ms": r["p99_ms"],
        "good_frac": tier.good / r["offered"] if r["offered"] else 0.0,
        "fail_frac": ((r["rejected"] + r["failed"]) / r["offered"]
                      if r["offered"] else 0.0),
        "audit_findings": r["audit_findings"],
    }


def _check_serve(out):
    errs = []
    if out["offered"] != out["completed"] + out["rejected"]:
        errs.append(f"offered {out['offered']} != completed "
                    f"{out['completed']} + rejected {out['rejected']}")
    if sum(out["outcomes"].values()) != out["offered"]:
        errs.append("outcome classes do not sum to offered")
    if not out["offered"]:
        errs.append("no requests offered")
    return errs


def _run_lu(seed, hooks):
    from repro.exp.fig7 import run_lu
    r = run_lu("udp", scale=1 / 64, seed=seed)
    return {
        "sim_elapsed_s": r["dodo_s"],
        "baseline_s": r["baseline_s"],
        "speedup": r["speedup"],
        "requests": hooks.trace_lengths,
    }


def _check_lu(out):
    errs = []
    reqs = out["requests"]
    if len(reqs) != 3 or reqs[1] != reqs[2]:
        errs.append(f"baseline and Dodo replayed different traces {reqs}")
    if not out["speedup"] > 1.0:
        errs.append(f"speedup {out['speedup']} <= 1")
    return errs


def _run_cache(seed, hooks):
    from repro.exp.cache import run_cache
    r = run_cache(policy="cost-aware", migration=True,
                  workload="nondedicated", seed=seed)
    mig = r["migrations"]
    return {
        "sim_elapsed_s": r["elapsed_s"],
        "requests": r["requests"],
        "local_hits": r["local_hits"],
        "remote_hits": r["remote_hits"],
        "disk_reads": r["disk_reads"],
        "remote_lost": r["remote_lost"],
        "migrated_hits": r["migrated_hits"],
        "evictions": r["evictions"],
        "migrations": mig,
        "reclaims": r["reclaims"],
        "recruits": r["recruits"],
    }


def _check_cache(out):
    errs = []
    served = out["local_hits"] + out["remote_hits"] + out["disk_reads"]
    if served != out["requests"]:
        errs.append(f"local+remote+disk {served} != requests "
                    f"{out['requests']}")
    mig = out["migrations"]
    # a migration may still be in flight when the application finishes;
    # the auditor checks the settled accounting
    if mig["ok"] + mig["failed"] > mig["attempted"]:
        errs.append("more migrations settled than attempted")
    if out["migrated_hits"] > out["remote_hits"]:
        errs.append("more migrated hits than remote hits")
    return errs


#: name -> workload definition.  ``seed`` is the default (pinned) seed,
#: ``holdout`` a second seed no claim was tuned on, ``sim_s`` the nominal
#: wall seconds of one fresh-process simulation (2-vCPU Xeon VM under
#: load, CPython 3.11), which fixes how many seeds a run simulates.
WORKLOADS = {
    "scale-2000": dict(run=_run_scale, check=_check_scale, seed=11,
                       holdout=1011, sim_s=10.0),
    "serve-4shard": dict(run=_run_serve, check=_check_serve, seed=21,
                         holdout=1021, sim_s=10.0),
    "lu-fig7": dict(run=_run_lu, check=_check_lu, seed=7, holdout=1007,
                    sim_s=6.5),
    "churn-cache": dict(run=_run_cache, check=_check_cache, seed=9,
                        holdout=1009, sim_s=4.0),
}

#: values pinned at each workload's default seed: key -> expected, with
#: floats compared at the precision the repository records them
PINNED = {
    "scale-2000": {"events": 476390, "virtual_s": (88.1483, 4)},
    "serve-4shard": {"completed": 7884, "tier_p99_ms": (75.0098, 4),
                     "audit_findings": 0},
    "lu-fig7": {"speedup": 1.1765166877633835},
    "churn-cache": {"disk_reads": 369, "migrated_hits": 24},
}


def check(name, seed, out):
    """All failed checks of one simulation's outputs, as strings."""
    errs = list(WORKLOADS[name]["check"](out))
    if out["audit_findings"]:
        errs.append(f"{out['audit_findings']} invariant-audit findings")
    if seed == WORKLOADS[name]["seed"]:
        for key, want in PINNED[name].items():
            got = out[key]
            if isinstance(want, tuple):
                want, digits = want
                got = round(got, digits)
            if got != want:
                errs.append(f"pinned {key}: got {got!r}, want {want!r}")
    return errs


def sub_seeds(name, seed):
    """The seeds one run with ``--seed seed`` simulates, in order: the
    workload's default seed (so every run checks the pinned values),
    then ``seed``, ``seed + SEED_STRIDE``, ... (held-out checks only)."""
    default = WORKLOADS[name]["seed"]
    yield default
    for i in itertools.count():
        if seed + i * SEED_STRIDE != default:
            yield seed + i * SEED_STRIDE
