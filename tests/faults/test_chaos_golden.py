"""Chaos golden: one seeded run of every scenario, pinned across commits.

``test_chaos.py`` proves that a chaos run replays byte-for-byte on the
same code; this file proves the run itself does not drift from one
commit to the next.  For seed 3 of each scenario the event log's JSONL
digest and record count are pinned, together with the workload's
request and degraded counts and the nemesis' injected and healed
counts.  The constants were recorded before the scenarios were merged
into one table-driven builder and must never be regenerated to make a
refactor pass: a change that moves them changes what the harness does.
"""

import hashlib
import io

import pytest

from repro.faults.chaos import run_chaos

#: scenario -> (jsonl sha256, records, requests, degraded, injected, healed)
GOLDEN = {
    "fig7": (
        "257031bb729cd4210ab1589a60c9f138400ed7466955ea7898fbbc61206c1f4d",
        519, 768, 0, 8, 7),
    "nondedicated": (
        "80ea9aa12bb09b5b4f8f825a32cdc9c715a594ef50d838201b35520557dcbc70",
        3838, 3072, 0, 8, 7),
    "failover": (
        "adc3e2fcc0dab123f5c8955385bcc1b9b263435d36e7933cbc7fea8d10386819",
        519, 768, 0, 9, 9),
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_seed3_run_matches_golden(scenario):
    run = run_chaos(scenario, seed=3)
    buf = io.StringIO()
    run["eventlog"].dump_jsonl(buf)
    got = (hashlib.sha256(buf.getvalue().encode()).hexdigest(),
           len(run["eventlog"].events), run["result"].requests,
           run["degraded"], run["injected"], run["healed"])
    assert got == GOLDEN[scenario]
