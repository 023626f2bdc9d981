"""Unit tests for the paper's client-side replacement policies.

The region cache reports both ``cread`` and ``cwrite`` touches through
the single ``on_access`` hook of :class:`repro.core.policy.CachePolicy`.
"""

import pytest

from repro.core.policy import (FirstInPolicy, LruPolicy, MruPolicy,
                               make_policy)

SIZE = 8192  # one region; the paper's policies ignore sizes


def test_lru_evicts_least_recent():
    p = LruPolicy()
    for crd in (1, 2, 3):
        p.on_insert(crd, SIZE)
    p.on_access(1)  # a read: 2 is now the oldest
    assert p.victim() == 2


def test_lru_write_also_refreshes():
    p = LruPolicy()
    for crd in (1, 2):
        p.on_insert(crd, SIZE)
    p.on_access(1)  # a write refreshes recency through the same hook
    assert p.victim() == 2


def test_lru_remove_clears_entry():
    p = LruPolicy()
    p.on_insert(1, SIZE)
    p.on_remove(1)
    assert p.victim() is None
    p.on_remove(1)  # idempotent


def test_mru_evicts_most_recent():
    p = MruPolicy()
    for crd in (1, 2, 3):
        p.on_insert(crd, SIZE)
    p.on_access(1)
    assert p.victim() == 1


def test_first_in_never_evicts():
    p = FirstInPolicy()
    for crd in (1, 2, 3):
        p.on_insert(crd, SIZE)
    p.on_access(3)
    p.on_access(2)
    assert p.victim() is None


def test_first_in_reinsert_keeps_original_order():
    p = FirstInPolicy()
    p.on_insert(1, SIZE)
    p.on_insert(2, SIZE)
    p.on_insert(1, SIZE)  # keeps its first place
    assert list(p.keys()) == [1, 2]


def test_touch_of_unknown_crd_is_noop():
    p = LruPolicy()
    p.on_access(99)  # never inserted: must not appear in the order
    assert p.victim() is None


def test_make_policy_factory():
    assert isinstance(make_policy("lru"), LruPolicy)
    assert isinstance(make_policy("mru"), MruPolicy)
    assert isinstance(make_policy("first-in"), FirstInPolicy)
    with pytest.raises(ValueError):
        make_policy("random")
