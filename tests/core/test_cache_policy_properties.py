"""Property tests: cache policies under randomized pinned streams.

Hypothesis drives every registered :mod:`repro.core.policy` policy
through arbitrary insert/access/remove/evict interleavings and checks
the invariants the imd and the region cache rely on:

* a victim is always a currently-held, never-pinned key (in-flight
  migration sources stay put no matter the policy), or None — and None
  only when nothing is eligible or the policy refuses to evict
  (first-in);
* victim order is a pure function of the history: two fresh instances
  fed the same stream pick the same victims, and equal-rank ties break
  toward the smallest key;
* LRU evicts exactly what an ``OrderedDict`` recency model predicts.

test_policy_properties.py models the paper's client-side policies
(LRU/MRU/first-in) without pins.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import POLICIES, make_policy

REGION = 64 * 1024  # one logical region; sizes vary around it below

POLICY_NAMES = sorted(POLICIES)

#: policies whose reclamation procedure always refuses to evict
REFUSES = {"first-in"}


@st.composite
def policy_ops(draw):
    """(kind, key, size) ops over a small key space; ``evict`` asks for
    a victim with a randomly drawn pinned set and removes it."""
    n = draw(st.integers(1, 80))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["insert", "access", "access", "remove", "evict"]))
        key = draw(st.integers(0, 9))
        size = draw(st.sampled_from([REGION // 4, REGION, 4 * REGION]))
        ops.append((kind, key, size))
    return ops


def drive(policy, ops, on_evict=None):
    """Run ops against a policy, tracking the live-key ground truth."""
    refuses = policy.name in REFUSES
    live: dict[int, int] = {}
    for kind, key, size in ops:
        if kind == "insert":
            if key not in live:
                policy.on_insert(key, size)
                live[key] = size
        elif kind == "access":
            policy.on_access(key)
        elif kind == "remove":
            policy.on_remove(key)
            live.pop(key, None)
        else:  # evict
            pinned = {k for k in live if k % 3 == key % 3}
            victim = policy.victim(pinned)
            eligible = set(live) - pinned
            if eligible and not refuses:
                assert victim in eligible, \
                    f"victim {victim} not a live unpinned key {eligible}"
            else:
                assert victim is None
            if on_evict is not None:
                on_evict(victim, pinned)
            if victim is not None:
                policy.on_remove(victim)
                live.pop(victim)
    return live


@pytest.mark.parametrize("name", POLICY_NAMES)
@given(ops=policy_ops())
@settings(max_examples=60, deadline=None)
def test_victim_is_live_and_never_pinned(name, ops):
    """Every policy: victims are held keys, pinned keys are immune,
    and the size books track the live set exactly."""
    policy = make_policy(name)
    live = drive(policy, ops)
    assert sorted(policy.keys()) == sorted(live)
    for key, size in live.items():
        assert policy.size_of(key) == size


@pytest.mark.parametrize("name", POLICY_NAMES)
@given(ops=policy_ops())
@settings(max_examples=40, deadline=None)
def test_victim_order_is_deterministic(name, ops):
    """Every policy: the same history yields the same victims."""
    runs = []
    for _ in range(2):
        victims = []
        drive(make_policy(name), ops,
              on_evict=lambda victim, pinned: victims.append(victim))
        runs.append(victims)
    assert runs[0] == runs[1]


def test_equal_rank_tie_breaks_to_smallest_key():
    """Equal-size, untouched regions rank equally under cost-aware;
    the smallest key goes first whatever the insertion order."""
    policy = make_policy("cost-aware")
    for key in (5, 2, 7):
        policy.on_insert(key, REGION)
    assert policy.victim() == 2


@given(ops=policy_ops())
@settings(max_examples=60, deadline=None)
def test_lru_matches_recency_model(ops):
    """LRU's victim is the recency model's least-recent eligible key."""
    policy = make_policy("lru")
    model: OrderedDict[int, None] = OrderedDict()

    def check(victim, pinned):
        expected = next((k for k in model if k not in pinned), None)
        assert victim == expected
        if victim is not None:
            model.pop(victim)
            policy.on_remove(victim)

    for kind, key, size in ops:
        if kind == "insert":
            if key not in model:
                policy.on_insert(key, size)
                model[key] = None
        elif kind == "access":
            policy.on_access(key)
            if key in model:
                model.move_to_end(key)
        elif kind == "remove":
            policy.on_remove(key)
            model.pop(key, None)
        else:
            pinned = {k for k in model if k % 3 == key % 3}
            check(policy.victim(pinned), pinned)
    assert sorted(policy.keys()) == sorted(model)


def test_cost_aware_keeps_pinned_under_pressure():
    """The in-flight migration source is pinned: repeated evictions
    drain everything else but never touch it."""
    policy = make_policy("cost-aware")
    for key in range(6):
        policy.on_insert(key, REGION)
    policy.on_access(3)  # hot, but pinned matters more
    pinned = {3}
    evicted = []
    while True:
        victim = policy.victim(pinned)
        if victim is None:
            break
        assert victim != 3
        evicted.append(victim)
        policy.on_remove(victim)
    assert sorted(evicted) == [0, 1, 2, 4, 5]
    assert 3 in policy
