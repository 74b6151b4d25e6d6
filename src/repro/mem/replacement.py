"""Replacement policies for set-associative caches.

A policy instance is attached to one cache and tracks recency state per
(set, way).  The cache calls :meth:`on_access` on every hit or fill and
:meth:`victim` when it needs to evict.  ``victim`` only ever chooses among
the *eligible* ways the cache passes in — this is how DDIO way partitioning
and CAT-style way masks are enforced without the policy knowing about them.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple


class ReplacementPolicy:
    """Interface for replacement policies."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        self.num_sets = num_sets
        self.assoc = assoc

    def on_access(self, set_idx: int, way: int) -> None:
        """Note that (set, way) was touched (hit or fill)."""
        raise NotImplementedError

    def on_evict(self, set_idx: int, way: int) -> None:
        """Note that (set, way) was emptied."""

    def victim(self, set_idx: int, eligible_ways: Sequence[int]) -> int:
        """Choose a way to evict from ``eligible_ways`` (all occupied)."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """True least-recently-used, via a global access counter per way.

    Recency is a flat per-set list of access ticks (0 = never touched),
    and the victim scan is a plain comparison loop.  This is the hot path
    of every cache fill; see :class:`ReferenceLRUPolicy` for the original
    ``min()``-over-a-dict formulation it must stay equivalent to (the
    property test in ``tests/test_mem_replacement_property.py`` checks
    the equivalence on random traces).
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__(num_sets, assoc)
        self._tick = 0
        self._last_use: List[List[int]] = [[0] * assoc for _ in range(num_sets)]

    def on_access(self, set_idx: int, way: int) -> None:
        self._tick += 1
        self._last_use[set_idx][way] = self._tick

    def on_evict(self, set_idx: int, way: int) -> None:
        self._last_use[set_idx][way] = 0

    def victim(self, set_idx: int, eligible_ways: Sequence[int]) -> int:
        row = self._last_use[set_idx]
        best_way = -1
        best_tick = -1
        for w in eligible_ways:
            t = row[w]
            if best_tick < 0 or t < best_tick:
                best_way = w
                best_tick = t
        if best_way < 0:
            raise ValueError("no eligible ways to evict")
        return best_way


class ReferenceLRUPolicy(ReplacementPolicy):
    """The original dict + ``min()`` LRU implementation.

    Kept as the behavioral reference for :class:`LRUPolicy`: ties (never-
    touched ways) break toward the first eligible way, exactly like the
    optimized comparison loop.
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__(num_sets, assoc)
        self._tick = 0
        self._last_use: Dict[Tuple[int, int], int] = {}

    def on_access(self, set_idx: int, way: int) -> None:
        self._tick += 1
        self._last_use[(set_idx, way)] = self._tick

    def on_evict(self, set_idx: int, way: int) -> None:
        self._last_use.pop((set_idx, way), None)

    def victim(self, set_idx: int, eligible_ways: Sequence[int]) -> int:
        if not eligible_ways:
            raise ValueError("no eligible ways to evict")
        return min(eligible_ways, key=lambda w: self._last_use.get((set_idx, w), 0))


class TreePLRUPolicy(ReplacementPolicy):
    """Tree pseudo-LRU (the common hardware approximation).

    The tree is kept per set as a flat list of internal-node bits.  With a
    way mask in play the tree walk is re-run until it lands on an eligible
    way, falling back to the first eligible way after ``assoc`` attempts —
    this mirrors how masked PLRU is typically implemented.
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__(num_sets, assoc)
        if assoc & (assoc - 1):
            # Round up to a power of two; ways beyond assoc are never used.
            self._tree_ways = 1 << (assoc - 1).bit_length()
        else:
            self._tree_ways = assoc
        self._bits: Dict[int, List[int]] = {}

    def _tree(self, set_idx: int) -> List[int]:
        tree = self._bits.get(set_idx)
        if tree is None:
            tree = [0] * max(1, self._tree_ways - 1)
            self._bits[set_idx] = tree
        return tree

    def on_access(self, set_idx: int, way: int) -> None:
        tree = self._tree(set_idx)
        node = 0
        lo, hi = 0, self._tree_ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                tree[node] = 1  # point away from the accessed half
                node = 2 * node + 1
                hi = mid
            else:
                tree[node] = 0
                node = 2 * node + 2
                lo = mid
        # node walk complete; leaf reached

    def victim(self, set_idx: int, eligible_ways: Sequence[int]) -> int:
        if not eligible_ways:
            raise ValueError("no eligible ways to evict")
        eligible = set(eligible_ways)
        tree = self._tree(set_idx)
        node = 0
        lo, hi = 0, self._tree_ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if tree[node] == 1:
                node = 2 * node + 2
                lo = mid
            else:
                node = 2 * node + 1
                hi = mid
        candidate = lo
        if candidate in eligible:
            return candidate
        return min(eligible)


class RandomPolicy(ReplacementPolicy):
    """Seeded random replacement (useful for tie-break experiments)."""

    def __init__(self, num_sets: int, assoc: int, seed: int = 0) -> None:
        super().__init__(num_sets, assoc)
        self._rng = random.Random(seed)

    def on_access(self, set_idx: int, way: int) -> None:
        pass

    def victim(self, set_idx: int, eligible_ways: Sequence[int]) -> int:
        if not eligible_ways:
            raise ValueError("no eligible ways to evict")
        return self._rng.choice(list(eligible_ways))


_POLICIES = {
    "lru": LRUPolicy,
    "lru-ref": ReferenceLRUPolicy,
    "plru": TreePLRUPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, num_sets: int, assoc: int) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (``lru``/``plru``/``random``)."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(num_sets, assoc)
