"""Cache-maintenance operations, including the paper's new instruction.

Modern ISAs already provide invalidate-without-flush operations (ARMv7's
DCIMVAC, PowerPC's dcbi); the paper extends this family with a
*multi-cacheline* invalidate that drops lines from the private dcache and
MLC without any writeback (§V-D), gated by the Invalidatable PTE bit.

:class:`MaintenanceUnit` is the per-core execution facade the software
stack calls.  It charges a small per-line cost (the instruction retires
like a store) and enforces the PTE permission check.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from ..mem.hierarchy import MemoryHierarchy
from ..mem.line import DIRTY, lines_spanning
from ..mem.transaction import INVALIDATE, MemoryTransaction
from ..sim import units
from .pagetable import PAGE_SIZE, PageTable


class MaintenanceUnit:
    """Executes cache-maintenance operations for one core."""

    #: Per-line issue cost of the invalidate instruction (~1 cycle at 3 GHz;
    #: the operation carries no data so it retires quickly).
    INVALIDATE_LINE_COST = units.cycles(1)

    def __init__(
        self,
        core: int,
        hierarchy: MemoryHierarchy,
        page_table: Optional[PageTable] = None,
        scope: str = "all",
    ) -> None:
        self.core = core
        self.hierarchy = hierarchy
        self.page_table = page_table
        self.scope = scope
        self.invalidated_lines = 0
        # Scratch transaction for the invalidate loop (IDIO issues one
        # invalidate per consumed buffer line): reused when no hop
        # recording or transaction subscriber would retain it.
        self._scratch_txn = MemoryTransaction(INVALIDATE, 0, 0, core=core)

    def invalidate_range(self, base: int, num_bytes: int, now: int) -> int:
        """Invalidate-without-writeback over ``[base, base+num_bytes)``.

        Returns the instruction cost in ticks.  Raises
        :class:`~repro.cpu.pagetable.InvalidatePermissionError` when the
        page table is attached and any page lacks the Invalidatable bit;
        the lines of the pages before it are invalidated by then.  The
        bit is per 4 KB page, so it is checked once per page, not per line.
        """
        hierarchy = self.hierarchy
        page_table = self.page_table
        retained = hierarchy.record_hops or hierarchy._txn_subs
        access = hierarchy.access
        run = hierarchy._run_invalidate
        txn = self._scratch_txn
        txn.now = now
        txn.scope = self.scope
        lines = 0
        for start, length in _page_spans(base, num_bytes):
            if page_table is not None:
                page_table.check_invalidate(start)
            if retained:
                for addr in lines_spanning(start, length):
                    access(
                        MemoryTransaction(
                            INVALIDATE, addr, now, core=self.core, scope=self.scope
                        )
                    )
                    lines += 1
            else:
                # Nothing retains the transaction: reuse the scratch one
                # and call the handler directly.
                for addr in lines_spanning(start, length):
                    txn.addr = addr
                    run(txn)
                    lines += 1
        self.invalidated_lines += lines
        return lines * self.INVALIDATE_LINE_COST

    def flush_range(self, base: int, num_bytes: int, now: int) -> int:
        """Conventional clean+invalidate (clflush-style): writes dirty data
        back to DRAM.  Used by the kernel when preparing Invalidatable
        buffers; provided for completeness and for ablation experiments.
        """
        cost = 0
        for addr in lines_spanning(base, num_bytes):
            dirty = any(
                word >= 0 and word & DIRTY
                for word in (
                    self.hierarchy.mlc[self.core].peek(addr),
                    self.hierarchy.llc.peek(addr),
                )
            )
            # Drop all cached copies; dirty data goes to DRAM.
            self.hierarchy.access(
                MemoryTransaction(INVALIDATE, addr, now, core=self.core, scope="all")
            )
            if dirty:
                self.hierarchy.dram.write(addr, now)
            cost += self.INVALIDATE_LINE_COST
        return cost


def _page_spans(base: int, num_bytes: int) -> Iterator[Tuple[int, int]]:
    """Split ``[base, base+num_bytes)`` at page boundaries into
    ``(start, length)`` spans."""
    end = base + num_bytes
    start = base
    while start < end:
        stop = min(end, (start // PAGE_SIZE + 1) * PAGE_SIZE)
        yield start, stop - start
        start = stop
