"""Cacheline primitives: address helpers and line words.

All caches operate on 64-byte lines.  Addresses are plain integers in an
abstract physical address space; helpers convert between byte addresses and
line addresses.  A resident line's state is one int, its line word (see
``DIRTY``/``IO`` below), so the caches hold no per-line objects.
"""

from __future__ import annotations

#: Cacheline size in bytes (fixed, matching the evaluated platforms).
LINE_SIZE = 64
_LINE_SHIFT = LINE_SIZE.bit_length() - 1
_LINE_MASK = ~(LINE_SIZE - 1)


def line_address(byte_address: int) -> int:
    """The line-aligned address containing ``byte_address``."""
    return byte_address & _LINE_MASK


def line_index(byte_address: int) -> int:
    """The line number (address divided by the line size)."""
    return byte_address >> _LINE_SHIFT


def lines_spanning(byte_address: int, num_bytes: int) -> range:
    """The line-aligned addresses covering ``[addr, addr+num_bytes)``.

    A 1514-byte Ethernet frame starting on a line boundary spans 24 lines.
    A ``range``, so iterating it costs no Python-level call per line.
    """
    if num_bytes <= 0:
        return range(0)
    first = line_address(byte_address)
    last = line_address(byte_address + num_bytes - 1)
    return range(first, last + 1, LINE_SIZE)


def num_lines(num_bytes: int) -> int:
    """Number of lines needed for ``num_bytes`` starting on a line boundary."""
    return -(-num_bytes // LINE_SIZE)


#: Line-word flag bits.  A resident line is one int, its *line word*:
#: the line-aligned address with ``DIRTY`` and ``IO`` or-ed into the low
#: bits, which line alignment leaves free.  ``IO`` marks a line whose
#: data came from inbound DMA (a DDIO write-allocate or in-place update)
#: rather than from DRAM; it survives migrations between levels and only
#: feeds occupancy accounting (the DMA-bloat statistics), never
#: replacement.
DIRTY = 1
IO = 2
#: The "no line" sentinel returned by cache queries (every word is >= 0).
NO_LINE = -1


def line_word(addr: int, dirty: bool = False, io: bool = False) -> int:
    """The line word of a line at ``addr`` with the given state bits."""
    if addr != line_address(addr):
        raise ValueError(f"address {addr:#x} is not line-aligned")
    return addr | (DIRTY if dirty else 0) | (IO if io else 0)
