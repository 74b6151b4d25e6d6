"""Memory-hierarchy substrate: caches, DRAM, and the non-inclusive data paths."""

from .cache import CacheConfig, SetAssociativeCache
from .dram import DRAM, BankedDRAM
from .hierarchy import (
    AccessResult,
    HierarchyConfig,
    MemoryHierarchy,
    default_l1_config,
    default_llc_config,
    default_mlc_config,
)
from .line import DIRTY, IO, LINE_SIZE, line_address, line_word, lines_spanning, num_lines
from .llc import NonInclusiveLLC, SnoopFilterDirectory
from .mlc import PrivateCache
from .replacement import LRUPolicy, RandomPolicy, TreePLRUPolicy, make_policy
from .stats import Counter, EventLog, HierarchyStatsSubscriber, StatsBundle
from .transaction import (
    CPU_LOAD,
    CPU_STORE,
    DMA_READ,
    DMA_WRITE,
    INVALIDATE,
    KINDS,
    PREFETCH_FILL,
    Hop,
    MemoryTransaction,
    cpu_access_txn,
)

__all__ = [
    "AccessResult",
    "BankedDRAM",
    "CPU_LOAD",
    "CPU_STORE",
    "CacheConfig",
    "Counter",
    "DIRTY",
    "DMA_READ",
    "DMA_WRITE",
    "DRAM",
    "EventLog",
    "HierarchyConfig",
    "HierarchyStatsSubscriber",
    "Hop",
    "INVALIDATE",
    "IO",
    "KINDS",
    "LINE_SIZE",
    "LRUPolicy",
    "MemoryHierarchy",
    "MemoryTransaction",
    "NonInclusiveLLC",
    "PREFETCH_FILL",
    "PrivateCache",
    "RandomPolicy",
    "SetAssociativeCache",
    "SnoopFilterDirectory",
    "StatsBundle",
    "TreePLRUPolicy",
    "cpu_access_txn",
    "default_l1_config",
    "default_llc_config",
    "default_mlc_config",
    "line_address",
    "line_word",
    "lines_spanning",
    "make_policy",
    "num_lines",
]
