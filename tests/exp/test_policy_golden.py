"""Client-policy golden: the paper's replacement-policy ablation, pinned.

``run_policy_ablation`` drives the region-management library's LRU, MRU
and first-in policies end to end over a cyclic multi-scan (dataset ~4x
the local cache, one small imd).  Its virtual elapsed time and the
local/remote hit counts are a pure function of the policy's victim
order, so they are pinned exactly.  The constants were recorded before
the client and donor policies were merged onto one interface and must
never be regenerated to make a policy change pass.
"""

from repro.exp.ablations import run_policy_ablation

GOLDEN = {
    "lru": {"elapsed_s": 4.40756972865665,
            "local_hits": 0, "remote_hits": 120},
    "mru": {"elapsed_s": 4.170314845550615,
            "local_hits": 240, "remote_hits": 120},
    "first-in": {"elapsed_s": 4.096377595717239,
                 "local_hits": 240, "remote_hits": 120},
}


def test_policy_ablation_matches_golden():
    got = run_policy_ablation(scale=1 / 128)
    assert list(got) == list(GOLDEN)
    for policy, want in GOLDEN.items():
        assert got[policy] == want, policy
