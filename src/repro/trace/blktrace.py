"""The event collector (blktrace stand-in).

A bounded-memory ring of :class:`~repro.trace.events.TraceEvent` records.
The paper re-runs blktrace per injection; campaigns here need no trace at
all (the Analyzer classifies each cycle from the IO generator's ledgers),
so a block layer records only once a reader attaches a collector, e.g.
:meth:`repro.host.system.HostSystem.attach_tracer` for forensics or trace
capture.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from repro.errors import TraceError
from repro.sim.kernel import Kernel
from repro.trace.events import Action, TraceEvent


class BlockTracer:
    """Collects block-layer events.

    Example
    -------
    >>> from repro.sim import Kernel
    >>> tracer = BlockTracer(Kernel())
    >>> tracer.record(Action.QUEUE, request_id=1, lpn=0, page_count=1, is_write=True)
    >>> tracer.event_count
    1
    """

    def __init__(self, kernel: Kernel, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise TraceError("tracer capacity must be positive")
        self.kernel = kernel
        self.capacity = capacity
        self._events: List[TraceEvent] = []
        self._sequence = 0
        self.dropped = 0
        self._sinks: List[Callable[[TraceEvent], None]] = []

    def add_sink(self, sink: Callable[[TraceEvent], None]) -> None:
        """Stream events to a live consumer as they are recorded."""
        self._sinks.append(sink)

    def record(
        self,
        action: Action,
        request_id: int,
        lpn: int,
        page_count: int,
        is_write: bool,
    ) -> TraceEvent:
        """Append one event at the current simulation time."""
        event = TraceEvent(
            sequence=self._sequence,
            time_us=self.kernel.now,
            action=action,
            request_id=request_id,
            lpn=lpn,
            page_count=page_count,
            is_write=is_write,
        )
        self._sequence += 1
        if self.capacity is not None and len(self._events) >= self.capacity:
            self.dropped += 1
        else:
            self._events.append(event)
        for sink in self._sinks:
            sink(event)
        return event

    # -- access -------------------------------------------------------------------

    @property
    def event_count(self) -> int:
        """Events currently buffered."""
        return len(self._events)

    def events(self) -> Iterator[TraceEvent]:
        """Iterate buffered events in record order."""
        return iter(self._events)

    def events_for(self, request_id: int) -> List[TraceEvent]:
        """All buffered events of one request."""
        return [e for e in self._events if e.request_id == request_id]

    def reset(self) -> int:
        """Drop the buffer (per-injection restart).  Returns events dropped."""
        count = len(self._events)
        self._events.clear()
        return count
