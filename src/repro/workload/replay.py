"""Workload trace capture and replay.

The paper synthesises workloads; downstream users usually want to test with
*their* IO patterns.  This module closes that gap:

- :func:`capture_trace` lifts the request stream out of a
  :class:`~repro.trace.blktrace.BlockTracer` buffer (every QUEUE event);
- :class:`WorkloadTrace` persists it as JSON lines;
- :class:`TraceReplayer` re-issues the stream against any host system with
  the original inter-arrival timing (optionally time-scaled), generating
  fresh data packets so the Analyzer can verify the replayed writes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Union

from repro.errors import ConfigurationError
from repro.host.system import HostSystem
from repro.trace.blktrace import BlockTracer
from repro.trace.events import Action
from repro.workload.packet import DataPacket


@dataclass(frozen=True)
class TraceRecord:
    """One request of a captured workload."""

    offset_us: int
    lpn: int
    page_count: int
    is_write: bool

    def to_json(self) -> str:
        """One JSON line."""
        return json.dumps(
            {
                "t": self.offset_us,
                "lpn": self.lpn,
                "pages": self.page_count,
                "w": self.is_write,
            }
        )

    @classmethod
    def from_json(cls, line: str) -> "TraceRecord":
        """Parse one JSON line."""
        data = json.loads(line)
        return cls(
            offset_us=data["t"],
            lpn=data["lpn"],
            page_count=data["pages"],
            is_write=data["w"],
        )


class WorkloadTrace:
    """An ordered, time-offset request stream."""

    def __init__(self, records: List[TraceRecord]) -> None:
        self.records = sorted(records, key=lambda r: r.offset_us)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    @property
    def duration_us(self) -> int:
        """Offset of the last request."""
        return self.records[-1].offset_us if self.records else 0

    @property
    def write_fraction(self) -> float:
        """Share of write requests."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.is_write) / len(self.records)

    def scaled(self, time_scale: float) -> "WorkloadTrace":
        """A copy with all offsets multiplied by ``time_scale``."""
        if time_scale <= 0:
            raise ConfigurationError("time scale must be positive")
        return WorkloadTrace(
            [
                TraceRecord(
                    offset_us=round(r.offset_us * time_scale),
                    lpn=r.lpn,
                    page_count=r.page_count,
                    is_write=r.is_write,
                )
                for r in self.records
            ]
        )

    # -- persistence --------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> int:
        """Write as JSON lines; returns record count."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(record.to_json())
                handle.write("\n")
        return len(self.records)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "WorkloadTrace":
        """Read a JSON-lines trace."""
        path = Path(path)
        records = []
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(TraceRecord.from_json(line))
        return cls(records)


_BLKPARSE_PATTERN = None


def parse_blkparse(lines, rebase: bool = True) -> WorkloadTrace:
    """Build a trace from blkparse-formatted text (Q events only).

    Accepts the output of :func:`repro.trace.blkparse.format_trace` as well
    as real ``blkparse`` stdout: lines shaped like::

        8,0    0      17     0.048731000  4211  Q   W 2048 + 16 [proc]

    Sector addresses are converted to 4 KiB LPNs (sector 8 alignment is
    required — block-device traces of page-cache IO satisfy this).
    Non-Q and unparsable lines are skipped.
    """
    import re

    global _BLKPARSE_PATTERN
    if _BLKPARSE_PATTERN is None:
        _BLKPARSE_PATTERN = re.compile(
            r"^\s*\d+,\d+\s+\d+\s+\d+\s+(?P<sec>\d+\.\d+)\s+\d+\s+"
            r"Q\s+(?P<rwbs>[RW]\S*)\s+(?P<sector>\d+)\s*\+\s*(?P<count>\d+)"
        )
    records = []
    for line in lines:
        match = _BLKPARSE_PATTERN.match(line)
        if match is None:
            continue
        sector = int(match.group("sector"))
        count = int(match.group("count"))
        if sector % 8 or count % 8 or count == 0:
            continue  # sub-page IO: not representable at 4 KiB granularity
        records.append(
            TraceRecord(
                offset_us=round(float(match.group("sec")) * 1_000_000),
                lpn=sector // 8,
                page_count=count // 8,
                is_write=match.group("rwbs").startswith("W"),
            )
        )
    trace = WorkloadTrace(records)
    if rebase and trace.records:
        base = trace.records[0].offset_us
        trace = WorkloadTrace(
            [
                TraceRecord(r.offset_us - base, r.lpn, r.page_count, r.is_write)
                for r in trace.records
            ]
        )
    return trace


def capture_trace(tracer: BlockTracer, rebase: bool = True) -> WorkloadTrace:
    """Extract the request stream from a tracer buffer (QUEUE events).

    Attach the tracer before the traffic starts, e.g.
    ``tracer = host.attach_tracer()``: block layers record nothing without one.
    """
    queues = [e for e in tracer.events() if e.action is Action.QUEUE]
    base = queues[0].time_us if (queues and rebase) else 0
    return WorkloadTrace(
        [
            TraceRecord(
                offset_us=e.time_us - base,
                lpn=e.lpn,
                page_count=e.page_count,
                is_write=e.is_write,
            )
            for e in queues
        ]
    )


class TraceReplayer:
    """Issues a captured trace against a host system.

    Writes carry fresh data packets (new tokens), so a replay can be
    verified by the Analyzer exactly like generated traffic.
    """

    def __init__(
        self,
        host: HostSystem,
        trace: WorkloadTrace,
        first_packet_id: int = 1,
    ) -> None:
        self.host = host
        self.trace = trace
        self._next_packet_id = first_packet_id
        self.packets: List[DataPacket] = []
        self.submitted = 0
        self.started = False

    def start(self) -> None:
        """Schedule every request at its original offset from now."""
        if self.started:
            raise ConfigurationError("replayer already started")
        self.started = True
        for record in self.trace:
            self.host.kernel.schedule(record.offset_us, self._issue, record)

    def _issue(self, record: TraceRecord) -> None:
        packet = DataPacket(
            packet_id=self._next_packet_id,
            address_lpn=record.lpn,
            page_count=record.page_count,
            is_write=record.is_write,
            queue_time=self.host.kernel.now,
        )
        self._next_packet_id += 1
        self.packets.append(packet)
        self.submitted += 1

        def stamp(request, packet=packet):
            packet.complete_time = request.complete_time

        if record.is_write:
            self.host.write(record.lpn, packet.data_checksums, on_done=stamp)
        else:
            self.host.read(record.lpn, record.page_count, on_done=stamp)

    @property
    def acked_writes(self) -> List[DataPacket]:
        """Write packets acknowledged so far."""
        return [p for p in self.packets if p.is_write and p.acked]
