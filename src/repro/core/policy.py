"""Replacement policies for every region cache in the system.

Section 3.3/4.5: a replacement policy is a module — a pair of
state-management hooks invoked on every touch, plus a reclamation
procedure that picks a victim.  One :class:`CachePolicy` interface
serves both caches that need one:

* the client-side local region cache of the region-management library
  (:class:`~repro.core.regionlib.RegionCache`, paper Figure 5) — keys
  are region descriptors;
* the imd's guest-memory pools when elastic caching is on
  (docs/CACHING.md) — keys are pool offsets, and regions with an
  in-flight transfer are *pinned* so they are never victims.

Four implementations, all registered in :data:`POLICIES`:

* **lru** — evict the least recently used region (the paper's default);
* **mru** — evict the most recently used (good for cyclic scans larger
  than the cache);
* **first-in** — cache regions in first-access order and *never replace
  them*; motivated by Uysal et al.'s finding that data-intensive
  applications overwhelmingly do sequential/triangle scans, where LRU
  flushes the whole cache every pass and first-in keeps a stable prefix;
* **cost-aware** — GreedyDual-Size-Frequency: refetch-cost-weighted, so
  small regions (whose refetch is dominated by the disk seek) and hot
  regions are kept over large cold streaming ones.  The imd pools accept
  only this policy (:class:`~repro.core.config.CacheConfig`).

Everything here is deterministic: no wall clock, no RNG — victim order
is a pure function of the access history, so identically-seeded runs
evict identically.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional

#: fixed per-refetch cost (the disk seek+rotation share) relative to the
#: per-byte transfer share, in bytes: a refetch of ``size`` bytes costs
#: ``SEEK_COST_BYTES + size`` cost units.  Small regions therefore have
#: the highest cost *density* (cost/byte), matching the disk model where
#: positioning dominates small transfers.
SEEK_COST_BYTES = 256 * 1024


class CachePolicy:
    """Eviction-order interface for one region cache.

    Keys are region descriptors (client cache) or pool offsets (imd
    pools); ``size`` is the region's logical length in bytes.
    Implementations must be fully deterministic: ties break toward the
    smallest key.

    Lifecycle: :meth:`on_insert` when a region is cached,
    :meth:`on_access` on every read/write touch, :meth:`on_remove` when
    it is freed, evicted or migrated away.  :meth:`victim` returns the
    next region to evict (skipping ``pinned`` keys), or None to refuse
    eviction — the caller then bypasses the cache or rejects the
    allocation.  :meth:`heat` counts accesses since insertion.
    """

    name = "?"

    def __init__(self) -> None:
        self._sizes: dict[int, int] = {}
        self._heat: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._sizes)

    def __contains__(self, key: int) -> bool:
        return key in self._sizes

    def keys(self) -> Iterable[int]:
        return self._sizes.keys()

    def size_of(self, key: int) -> int:
        return self._sizes.get(key, 0)

    def heat(self, key: int) -> int:
        """Access count since insertion (the manager's migration
        ordering signal); 0 for unknown keys."""
        return self._heat.get(key, 0)

    def on_insert(self, key: int, size: int) -> None:
        self._sizes[key] = size
        self._heat[key] = 0

    def on_access(self, key: int) -> None:
        if key in self._heat:
            self._heat[key] += 1

    def on_remove(self, key: int) -> None:
        self._sizes.pop(key, None)
        self._heat.pop(key, None)

    def victim(self, pinned: Optional[set] = None) -> Optional[int]:
        raise NotImplementedError


class _RecencyPolicy(CachePolicy):
    """Shared machinery for recency-ordered policies."""

    def __init__(self) -> None:
        super().__init__()
        self._order: OrderedDict[int, None] = OrderedDict()

    def on_insert(self, key: int, size: int) -> None:
        super().on_insert(key, size)
        self._order[key] = None
        self._order.move_to_end(key)

    def on_access(self, key: int) -> None:
        if key in self._order:
            self._order.move_to_end(key)
            super().on_access(key)

    def on_remove(self, key: int) -> None:
        super().on_remove(key)
        self._order.pop(key, None)


class LruPolicy(_RecencyPolicy):
    """Least-recently-used: evict the region touched longest ago."""

    name = "lru"

    def victim(self, pinned: Optional[set] = None) -> Optional[int]:
        pinned = pinned or ()
        for key in self._order:  # oldest first
            if key not in pinned:
                return key
        return None


class MruPolicy(_RecencyPolicy):
    """Evict the most-recently-used region first (good for scans)."""

    name = "mru"

    def victim(self, pinned: Optional[set] = None) -> Optional[int]:
        pinned = pinned or ()
        for key in reversed(self._order):  # newest first
            if key not in pinned:
                return key
        return None


class FirstInPolicy(CachePolicy):
    """Cache in first-access order; once cached, never replaced (the
    order is :meth:`keys`: re-inserting a held key keeps its place)."""

    name = "first-in"

    def victim(self, pinned: Optional[set] = None) -> Optional[int]:
        return None  # refuse: newcomers bypass the cache instead


class CostAwarePolicy(CachePolicy):
    """GreedyDual-Size-Frequency: evict the region with the lowest
    ``clock + frequency * refetch_cost / size``.

    ``refetch_cost`` models what a miss costs: a disk refetch pays a
    positioning charge (:data:`SEEK_COST_BYTES`) plus the bytes.  The
    aging ``clock`` rises to each evicted victim's priority, so regions
    that stop being touched eventually drain no matter how hot they
    once were.  Ties break toward the smallest key.
    """

    name = "cost-aware"

    def __init__(self) -> None:
        super().__init__()
        self._prio: dict[int, float] = {}
        self._clock = 0.0

    def _priority(self, key: int) -> float:
        size = max(1, self._sizes.get(key, 1))
        cost = SEEK_COST_BYTES + size
        return self._clock + (1 + self._heat.get(key, 0)) * cost / size

    def on_insert(self, key: int, size: int) -> None:
        super().on_insert(key, size)
        self._prio[key] = self._priority(key)

    def on_access(self, key: int) -> None:
        if key in self._prio:
            super().on_access(key)
            self._prio[key] = self._priority(key)

    def on_remove(self, key: int) -> None:
        super().on_remove(key)
        self._prio.pop(key, None)

    def victim(self, pinned: Optional[set] = None) -> Optional[int]:
        pinned = pinned or ()
        best = None
        for key, prio in self._prio.items():
            if key in pinned:
                continue
            rank = (prio, key)
            if best is None or rank < best[0]:
                best = (rank, key)
        if best is None:
            return None
        self._clock = max(self._clock, best[0][0])  # age the cache
        return best[1]


#: every replacement policy, by config/CLI name
POLICIES: dict[str, type[CachePolicy]] = {
    cls.name: cls for cls in (LruPolicy, MruPolicy, FirstInPolicy,
                              CostAwarePolicy)
}


def make_policy(name: str) -> CachePolicy:
    """Instantiate a registered policy; ``ValueError`` for unknown names
    (listing the accepted ones, so the CLI error is self-explanatory)."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown cache policy {name!r}; choose from "
            f"{sorted(POLICIES)}") from None
    return cls()
