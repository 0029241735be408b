"""Tests for trace capture, persistence, and replay."""

import pytest

from repro.errors import ConfigurationError
from repro.host import HostSystem
from repro.rand import RandomStreams
from repro.ssd.device import SsdConfig
from repro.units import GIB, MSEC
from repro.workload import IOGenerator, WorkloadSpec
from repro.workload.replay import (
    TraceRecord,
    TraceReplayer,
    WorkloadTrace,
    capture_trace,
)


def make_host(seed=12):
    host = HostSystem(
        config=SsdConfig(capacity_bytes=1 * GIB, init_time_us=30 * MSEC), seed=seed
    )
    host.boot()
    return host


class TestTraceRecord:
    def test_json_roundtrip(self):
        record = TraceRecord(offset_us=123, lpn=5, page_count=8, is_write=True)
        assert TraceRecord.from_json(record.to_json()) == record


class TestWorkloadTrace:
    def sample(self):
        return WorkloadTrace(
            [
                TraceRecord(200, 10, 1, True),
                TraceRecord(0, 0, 2, False),
                TraceRecord(100, 5, 4, True),
            ]
        )

    def test_sorted_by_offset(self):
        trace = self.sample()
        assert [r.offset_us for r in trace] == [0, 100, 200]

    def test_duration_and_mix(self):
        trace = self.sample()
        assert trace.duration_us == 200
        assert trace.write_fraction == pytest.approx(2 / 3)

    def test_empty_trace(self):
        trace = WorkloadTrace([])
        assert len(trace) == 0
        assert trace.duration_us == 0
        assert trace.write_fraction == 0.0

    def test_scaled(self):
        slow = self.sample().scaled(2.0)
        assert slow.duration_us == 400
        with pytest.raises(ConfigurationError):
            self.sample().scaled(0)

    def test_save_load(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert self.sample().save(path) == 3
        loaded = WorkloadTrace.load(path)
        assert len(loaded) == 3
        assert loaded.records == self.sample().records


class TestCaptureAndReplay:
    def test_capture_from_generated_workload(self):
        host = make_host()
        tracer = host.attach_tracer()
        spec = WorkloadSpec(wss_bytes=256 * 1024 * 1024, outstanding=4)
        generator = IOGenerator(host, spec, RandomStreams(3))
        generator.start()
        host.run_for_ms(100)
        generator.stop()
        trace = capture_trace(tracer)
        assert len(trace) > 10
        assert trace.records[0].offset_us == 0  # rebased
        assert trace.write_fraction == 1.0

    def test_replay_reissues_same_stream(self):
        # Capture on one host...
        source = make_host(seed=21)
        tracer = source.attach_tracer()
        spec = WorkloadSpec(wss_bytes=256 * 1024 * 1024, outstanding=4)
        generator = IOGenerator(source, spec, RandomStreams(4))
        generator.start()
        source.run_for_ms(80)
        generator.stop()
        trace = capture_trace(tracer)

        # ...replay on a fresh one.
        target = make_host(seed=22)
        replayer = TraceReplayer(target, trace)
        replayer.start()
        target.run_for_ms(500)
        assert replayer.submitted == len(trace)
        # Same addresses and sizes, in order.
        replayed = [(p.address_lpn, p.page_count) for p in replayer.packets]
        original = [(r.lpn, r.page_count) for r in trace]
        assert replayed == original
        # The replayed writes verified: ACKed, and the device holds each
        # address's LAST writer (overlapping random requests overwrite).
        assert len(replayer.acked_writes) == len(trace)
        final = {}
        for packet in sorted(replayer.acked_writes, key=lambda p: p.complete_time):
            for lpn in packet.lpns():
                final[lpn] = packet.token_for(lpn)
        for lpn in list(final)[:20]:
            assert target.ssd.peek(lpn) == final[lpn]

    def test_double_start_rejected(self):
        host = make_host()
        replayer = TraceReplayer(host, WorkloadTrace([]))
        replayer.start()
        with pytest.raises(ConfigurationError):
            replayer.start()


class TestBlkparseImport:
    def test_parses_blkparse_lines(self):
        from repro.workload.replay import parse_blkparse

        lines = [
            "  8,0    0      17     0.048731000  4211  Q   W 2048 + 16 [io-gen]",
            "  8,0    0      18     0.048731000  4211  G   W 2048 + 16 [io-gen]",  # skipped
            "  8,0    0      19     0.050000000  4211  Q   R 4096 + 8 [io-gen]",
            "garbage line",
        ]
        trace = parse_blkparse(lines)
        assert len(trace) == 2
        first, second = trace.records
        assert first.lpn == 256 and first.page_count == 2 and first.is_write
        assert second.lpn == 512 and second.page_count == 1 and not second.is_write
        # Rebased: first record at offset 0.
        assert first.offset_us == 0
        assert second.offset_us == round((0.050000 - 0.048731) * 1e6)

    def test_round_trip_with_our_formatter(self):
        """format_trace output must parse back into the same request stream."""
        from repro.trace.blkparse import format_trace
        from repro.workload.replay import parse_blkparse

        host = make_host(seed=41)
        tracer = host.attach_tracer()
        spec = WorkloadSpec(wss_bytes=256 * 1024 * 1024, outstanding=4)
        generator = IOGenerator(host, spec, RandomStreams(6))
        generator.start()
        host.run_for_ms(60)
        generator.stop()
        captured = capture_trace(tracer)
        text = format_trace(tracer.events())
        reparsed = parse_blkparse(text)
        assert [(r.lpn, r.page_count, r.is_write) for r in reparsed] == [
            (r.lpn, r.page_count, r.is_write) for r in captured.records
        ]

    def test_sub_page_io_skipped(self):
        from repro.workload.replay import parse_blkparse

        lines = ["  8,0 0 1 0.001000000 1 Q W 2049 + 8 [x]",  # unaligned sector
                 "  8,0 0 2 0.002000000 1 Q W 2048 + 4 [x]"]  # sub-page count
        assert len(parse_blkparse(lines)) == 0
