"""Observability: the typed event bus and its subscribers.

``repro.obs`` is the control/telemetry plane of the memory path.  The
:class:`~repro.obs.bus.EventBus` replaces the ad-hoc callback lists the
hierarchy used to expose (``mlc_wb_listeners``/``llc_wb_listeners``);
every interested party — the statistics bundle, the IDIO controller's
control plane, the IAT baseline, the optional trace recorder — is now a
subscriber to typed events published by the hierarchy and the software
stack.  The rack tier publishes per-server lane events on a rack-level
bus; :class:`~repro.obs.trace.RackTraceRecorder` renders them as one
Chrome-trace process per server.
"""

from .bus import EventBus
from .events import (
    LlcWritebackEvent,
    MlcWritebackEvent,
    PmdBatchEvent,
    ServerCompletedEvent,
    ServerLaneSeries,
)
from .trace import RackTraceRecorder, TraceRecorder

__all__ = [
    "EventBus",
    "LlcWritebackEvent",
    "MlcWritebackEvent",
    "PmdBatchEvent",
    "RackTraceRecorder",
    "ServerCompletedEvent",
    "ServerLaneSeries",
    "TraceRecorder",
]
