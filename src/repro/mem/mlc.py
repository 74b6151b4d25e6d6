"""Private per-core caches (L1 data cache and mid-level cache).

Both levels are plain set-associative caches owned by one core; the
interesting policy lives in :mod:`repro.mem.hierarchy`, which decides what
happens to victims (non-inclusive victim fill into the LLC, writeback,
silent drop ...).
"""

from __future__ import annotations

from .cache import CacheConfig, SetAssociativeCache
from .stats import StatsBundle


class PrivateCache:
    """A private cache level (L1D or MLC) belonging to ``core``."""

    def __init__(self, config: CacheConfig, core: int, stats: StatsBundle) -> None:
        self.config = config
        self.core = core
        self.stats = stats
        self.data = SetAssociativeCache(config)
        #: Eviction counter name, pre-formatted once: the hierarchy bumps
        #: it on every fill that evicts a victim.
        self._evict_counter = f"{config.name}_evictions"

    def __contains__(self, addr: int) -> bool:
        return addr in self.data

    def __len__(self) -> int:
        return len(self.data)

    @property
    def capacity_lines(self) -> int:
        return self.config.num_sets * self.config.assoc

    def peek(self, addr: int) -> int:
        """The resident line word (``-1`` if absent)."""
        return self.data.peek(addr)

    def remove(self, addr: int) -> int:
        return self.data.remove(addr)
