"""End-to-end chaos-run tests: replayability and the nemesis sweep.

The acceptance bar for the fault subsystem:

* same seed + same plan => byte-identical event-log JSONL across runs;
* a plan exported to JSON replays the run bit-for-bit on its own;
* a 10-seed randomized sweep over both scenarios passes with the
  invariant auditor in ``raise`` mode;
* a deliberately corrupted run *fails* the audit (the oracle bites).
"""

import io

import pytest

from repro.faults.chaos import EXPERIMENTS, format_chaos, run_chaos
from repro.faults.plan import FaultPlan
from repro.obs.audit import AuditError, Auditor
from repro.sweep import SweepPoint, SweepSpec, run_sweep

SWEEP_SEEDS = range(10)


def jsonl_bytes(eventlog) -> str:
    buf = io.StringIO()
    eventlog.dump_jsonl(buf)
    return buf.getvalue()


# -- determinism --------------------------------------------------------------

@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_same_seed_gives_byte_identical_eventlog(experiment):
    a = run_chaos(experiment, seed=4)
    b = run_chaos(experiment, seed=4)
    text = jsonl_bytes(a["eventlog"])
    assert text == jsonl_bytes(b["eventlog"])
    assert text.count("\n") == len(a["eventlog"].events) > 0
    assert a["plan"] == b["plan"]
    assert a["result"].elapsed_s == b["result"].elapsed_s
    # every request is served locally, remotely, from disk or degraded
    r = a["runner"]
    assert r.local_reads + r.remote_reads + r.disk_reads + r.degraded \
        == a["result"].requests == len(r.latencies_s)


def test_exported_plan_replays_bit_for_bit(tmp_path):
    first = run_chaos("fig7", seed=6)
    path = tmp_path / "plan.json"
    first["plan"].write(str(path))
    # the JSON artifact alone (its embedded seed included) replays the run
    replay = run_chaos("fig7", plan=FaultPlan.read(str(path)))
    assert replay["seed"] == 6
    assert jsonl_bytes(replay["eventlog"]) == jsonl_bytes(first["eventlog"])


def test_different_seeds_give_different_runs():
    logs = {jsonl_bytes(run_chaos("fig7", seed=s)["eventlog"])
            for s in (0, 1)}
    assert len(logs) == 2


# -- the sweep ---------------------------------------------------------------
# The multi-seed sweeps route through the parallel sweep engine
# (repro.sweep): each seed is one cacheable point, executed with the
# invariant auditor in raise mode inside the worker, so an audit
# violation surfaces as a failed point.

def _chaos_sweep(scenario):
    spec = SweepSpec(f"chaos-{scenario}", [
        SweepPoint("chaos", seed=seed, overrides={"scenario": scenario})
        for seed in SWEEP_SEEDS])
    return run_sweep(spec, jobs=2)


@pytest.mark.parametrize("scenario", EXPERIMENTS)
def test_nemesis_sweep_passes_audit(scenario):
    result = _chaos_sweep(scenario)
    failures = [f"{r.point.label()}: {r.error}"
                for r in result.runs if r.status == "failed"]
    assert not failures, failures
    for run in result.runs:
        assert run.result["audit_findings"] == 0
        assert run.result["audit_passes"] > 0
        assert run.result["injected"] == run.result["scheduled"]
        assert run.result["requests"] > 0


def test_sweep_actually_injects_faults():
    """Guard against a vacuous sweep: across the seeds the nemesis must
    exercise every fault kind at least once."""
    kinds = set()
    for run in _chaos_sweep("fig7").runs:
        kinds |= set(run.result["fault_kinds"])
    assert kinds == {"host_crash", "nic_flap", "loss_burst", "partition",
                     "reclaim_storm", "disk_slowdown", "manager_crash"}


# -- the oracle must bite -----------------------------------------------------

def test_corrupted_run_fails_the_audit():
    """A clean run whose state is then corrupted must fail: this is the
    canary proving the sweep above could ever catch anything."""
    run = run_chaos("fig7", seed=2, audit="raise")
    platform = run["platform"]
    healthy = next(ws for ws in platform.cluster.workstations.values()
                   if not ws.crashed and ws.guest_memory > 0)
    healthy.guest_memory -= 1
    with pytest.raises(AuditError, match="donation.accounting"):
        platform.audit(Auditor(mode="raise"), teardown=False)


def test_corrupted_directory_fails_the_audit():
    run = run_chaos("fig7", seed=2, audit="raise")
    platform = run["platform"]
    imd = next(i for i in platform.imds if not i.exited)
    imd._regions[999999999] = object()  # hosted but not in any directory
    with pytest.raises(AuditError):
        platform.audit(Auditor(mode="raise"), teardown=True)


# -- ergonomics ---------------------------------------------------------------

def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown chaos experiment"):
        run_chaos("fig9", seed=0)


def test_format_chaos_summarizes_the_run():
    run = run_chaos("fig7", seed=1)
    text = format_chaos(run)
    assert "seed=1" in text
    assert "injected" in text and "healed" in text
    assert "audit" in text
