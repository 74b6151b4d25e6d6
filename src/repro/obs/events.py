"""Typed events published on the observability bus.

Transaction completions are published as the
:class:`~repro.mem.transaction.MemoryTransaction` object itself (its
class is the topic); the events here cover everything else the memory
path and the software stack announce.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class MlcWritebackEvent:
    """A dirty-or-clean MLC victim moved to the LLC (``mlcWB`` in Alg. 1).

    This is the signal the IDIO controller's control plane samples every
    interval, and the per-core pressure statistic of Figs. 5/9/11.
    """

    core: int
    now: int


@dataclass(frozen=True, slots=True)
class LlcWritebackEvent:
    """A dirty LLC victim written back to DRAM (the DMA-leak signal)."""

    addr: int
    now: int


@dataclass(frozen=True, slots=True)
class PmdBatchEvent:
    """A poll-mode driver picked up a batch of RX descriptors."""

    core: int
    size: int
    now: int


@dataclass(frozen=True, slots=True)
class ServerLaneSeries:
    """One server's timeline for one event stream, published rack-level.

    The rack tier runs its servers in worker processes, so per-hop
    tracing cannot ride home in a summary; instead each finished server
    contributes its binned ``(time_us, MTPS)`` series per summary stream.
    A :class:`~repro.obs.trace.RackTraceRecorder` subscribed to the
    rack's bus renders these as per-server counter lanes in the Chrome
    trace (one process per server).
    """

    server: int
    stream: str
    #: ``((time_us, mtps), ...)`` — binned throughput samples.
    points: tuple


@dataclass(frozen=True, slots=True)
class TenantDmaEvent:
    """An inbound DMA write attributed to a tenant's buffer range.

    Published by the memory hierarchy (only when someone subscribes —
    the hot path stays allocation-free otherwise) so a partitioning
    controller such as :class:`~repro.core.ioca.IOCAController` can
    sample per-tenant I/O rates without touching the data plane.
    """

    tenant: int
    now: int


@dataclass(frozen=True, slots=True)
class TenantLaneSeries:
    """One tenant's timeline for one event stream, published sweep-level.

    The tenant-tier analogue of :class:`ServerLaneSeries`: each finished
    tenants-sweep cell contributes binned ``(time_us, value)`` samples
    per tenant so recorders can render per-tenant lanes.
    """

    tenant: int
    stream: str
    #: ``((time_us, value), ...)`` — binned samples.
    points: tuple


@dataclass(frozen=True, slots=True)
class ServerCompletedEvent:
    """A rack server's experiment finished (one per server per sweep)."""

    server: int
    flows: int
    completed: int
    drops: int
    fingerprint: str
    #: Whether the lane was served from the result cache (no simulation).
    cached: bool = False
