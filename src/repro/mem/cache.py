"""Generic set-associative cache with way masks.

This is the building block for both the private MLC and the shared LLC.
Way masks are how the two partitioning features of the paper are modeled:

* DDIO write-allocates may only land in the first ``ddio_ways`` ways of the
  LLC (the "DDIO ways" of Fig. 1);
* CAT-style partitioning restricts a core's fills to a subset of ways
  (the ``_1way`` configurations of Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .line import DIRTY, IO, LINE_SIZE, NO_LINE, _LINE_MASK
from .replacement import LRUPolicy, ReplacementPolicy, make_policy


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    ``latency`` is in simulator ticks and charged per access by the caller
    (the hierarchy), not inside the cache container itself.
    """

    name: str
    size_bytes: int
    assoc: int
    latency: int
    mshrs: int = 32
    replacement: str = "lru"
    line_size: int = LINE_SIZE

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.assoc * self.line_size)
        if sets <= 0:
            raise ValueError(f"{self.name}: size too small for geometry")
        return sets

    def validate(self) -> None:
        if self.size_bytes % (self.assoc * self.line_size):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"assoc*line_size ({self.assoc}*{self.line_size})"
            )
        if self.assoc <= 0:
            raise ValueError(f"{self.name}: associativity must be positive")


class SetAssociativeCache:
    """A set-associative cache of line words (see :mod:`repro.mem.line`).

    The state is three flat structures indexed by *slot*
    (``set_idx * assoc + way``): ``words`` (the resident line word, or
    ``-1`` for an empty way), the replacement policy's recency state, and
    ``where``, an ``addr -> slot`` dict.  For the default ``lru`` policy
    the recency state is the flat ``ticks`` list the cache bumps inline;
    any other policy goes through the generic on_access/victim protocol.

    Lookup/insert/remove are O(assoc) and allocate nothing.  The container
    holds no timing; it is pure state plus replacement bookkeeping.
    """

    __slots__ = (
        "config",
        "num_sets",
        "assoc",
        "words",
        "where",
        "ticks",
        "policy",
        "_lru",
        "_all_ways",
        "_mask_cache",
        "_line_shift",
        "_set_mask",
    )

    def __init__(self, config: CacheConfig) -> None:
        config.validate()
        self.config = config
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self.words: List[int] = [NO_LINE] * (self.num_sets * self.assoc)
        self.where: Dict[int, int] = {}
        policy = make_policy(config.replacement, self.num_sets, self.assoc)
        self.policy: ReplacementPolicy = policy
        # The exact default LRU policy is run inline: the fill path bumps
        # its flat tick list directly and fuses the free-way scan with the
        # victim scan.  ``ticks`` is None for every other policy.
        self._lru: Optional[LRUPolicy] = None
        self.ticks: Optional[List[int]] = None
        if type(policy) is LRUPolicy:
            self._lru = policy
            self.ticks = policy.ticks
        self._all_ways: Tuple[int, ...] = tuple(range(self.assoc))
        #: Validated way masks keyed by their tuple form (masks repeat:
        #: the DDIO ways, the CPU fill order, per-core CAT masks).
        self._mask_cache: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        # Shift/mask fast path for set indexing, taken when the line size
        # and the set count are both powers of two (all shipped
        # geometries); ``_line_shift`` is -1 otherwise.
        line_size = config.line_size
        pow2 = not line_size & (line_size - 1) and not self.num_sets & (self.num_sets - 1)
        self._line_shift = line_size.bit_length() - 1 if pow2 else -1
        self._set_mask = self.num_sets - 1

    # -- addressing ---------------------------------------------------

    def set_index(self, addr: int) -> int:
        if self._line_shift >= 0:
            return (addr >> self._line_shift) & self._set_mask
        return (addr // self.config.line_size) % self.num_sets

    def way_mask(self, ways: Sequence[int]) -> Tuple[int, ...]:
        """``ways`` as a validated tuple (the form :meth:`insert` takes
        without re-validating)."""
        key = tuple(ways)
        cached = self._mask_cache.get(key)
        if cached is not None:
            return cached
        if not key:
            raise ValueError(f"{self.config.name}: empty way mask")
        for w in key:
            if w < 0 or w >= self.assoc:
                raise ValueError(
                    f"{self.config.name}: way {w} outside 0..{self.assoc - 1}"
                )
        self._mask_cache[key] = key
        return key

    # -- queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.where)

    def __contains__(self, addr: int) -> bool:
        return addr & _LINE_MASK in self.where

    def peek(self, addr: int) -> int:
        """The resident line word (``-1`` if absent); recency untouched."""
        slot = self.where.get(addr & _LINE_MASK)
        return NO_LINE if slot is None else self.words[slot]

    def lookup(self, addr: int) -> int:
        """The resident line's slot (``-1`` if absent); a hit, so recency
        is updated.  Callers update the line through ``words[slot]``."""
        slot = self.where.get(addr & _LINE_MASK)
        if slot is None:
            return NO_LINE
        self.touch(slot)
        return slot

    def touch(self, slot: int) -> None:
        """Record a hit on the line in ``slot`` (recency update only).

        The hierarchy's hot paths probe ``where`` themselves and call this
        only on a hit, so a miss costs one dict lookup and no call.
        """
        lru = self._lru
        if lru is not None:
            tick = lru.tick + 1
            lru.tick = tick
            self.ticks[slot] = tick  # type: ignore[index]
        else:
            self.policy.on_access(*divmod(slot, self.assoc))

    def lines(self) -> Iterator[int]:
        """Iterate over the words of all resident lines (diagnostic use)."""
        for word in self.words:
            if word >= 0:
                yield word

    def occupancy_by_origin(self) -> Dict[str, int]:
        """Count resident lines by origin, ``io`` or ``cpu`` (DMA bloat stats)."""
        counts: Dict[str, int] = {}
        for word in self.lines():
            origin = "io" if word & IO else "cpu"
            counts[origin] = counts.get(origin, 0) + 1
        return counts

    # -- mutation -----------------------------------------------------

    def insert(self, word: int, ways: Optional[Sequence[int]] = None) -> int:
        """Insert the line ``word``; return the evicted victim's word or ``-1``.

        ``ways`` restricts which ways the fill may use (and therefore which
        resident lines may be evicted), in preference order for empty
        ways.  If the line is already resident this degenerates to an
        in-place update (dirty OR-ed in, origin replaced, recency touched)
        and returns ``-1``.
        """
        addr = word & _LINE_MASK
        where = self.where
        words = self.words
        lru = self._lru
        slot = where.get(addr)
        if slot is not None:
            words[slot] = word | (words[slot] & DIRTY)
            self.touch(slot)
            return NO_LINE

        shift = self._line_shift
        if shift >= 0:
            set_idx = (addr >> shift) & self._set_mask
        else:
            set_idx = (addr // self.config.line_size) % self.num_sets
        if ways is None:
            ways = self._all_ways
        else:
            validated = self._mask_cache.get(ways) if type(ways) is tuple else None
            ways = validated or self.way_mask(ways)
        base = set_idx * self.assoc
        victim = NO_LINE

        if lru is not None:
            # Fused scan: one pass finds the first free way *and* tracks
            # the LRU victim among occupied ways.  Tie-break (first
            # eligible among never-touched ways) matches LRUPolicy.victim.
            ticks = self.ticks
            target = -1
            best = -1
            best_tick = -1
            for w in ways:
                s = base + w
                if words[s] < 0:
                    target = s
                    break
                t = ticks[s]  # type: ignore[index]
                if best_tick < 0 or t < best_tick:
                    best = s
                    best_tick = t
            if target < 0:
                target = best
                victim = words[target]
                del where[victim & _LINE_MASK]
            tick = lru.tick + 1
            lru.tick = tick
            words[target] = word
            where[addr] = target
            ticks[target] = tick  # type: ignore[index]
            return victim

        target = -1
        for w in ways:
            if words[base + w] < 0:
                target = base + w
                break
        policy = self.policy
        if target < 0:
            way = policy.victim(set_idx, ways)
            target = base + way
            victim = words[target]
            del where[victim & _LINE_MASK]
            policy.on_evict(set_idx, way)
        words[target] = word
        where[addr] = target
        policy.on_access(set_idx, target - base)
        return victim

    def remove(self, addr: int) -> int:
        """Remove the line at ``addr``; return its word or ``-1`` (no
        writeback implied)."""
        slot = self.where.pop(addr & _LINE_MASK, None)
        if slot is None:
            return NO_LINE
        words = self.words
        word = words[slot]
        words[slot] = NO_LINE
        if self._lru is not None:
            self.ticks[slot] = 0  # type: ignore[index]
        else:
            self.policy.on_evict(*divmod(slot, self.assoc))
        return word

    def clear(self) -> None:
        for addr in list(self.where):
            self.remove(addr)
