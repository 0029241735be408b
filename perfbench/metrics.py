"""Per-layer metrics of one traced plan execution.

``PER_LAYER`` lists every metric the traced run prints, with its unit,
the direction that is better, and whether it is a deterministic count
(``det``) that must repeat exactly for a fixed seed.  Ratios whose base is
zero in a workload (a layer it never calls) read 0.
"""

from __future__ import annotations

from typing import Dict, Tuple

from tracing import LAYERS

# name -> (unit, better, det)
PER_LAYER: Dict[str, Tuple[str, str, bool]] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_ms_per_cycle"] = ("ms/cycle", "lower", False)
PER_LAYER.update(
    {
        "sim.events_per_io": ("count/io", "lower", True),
        "sim.cancelled_frac": ("ratio", "lower", True),
        "host.commands_per_request": ("count/request", "lower", True),
        "host.timed_out": ("count", "lower", True),
        "host.build_ms_per_cycle": ("ms/cycle", "lower", False),
        "trace.records_per_io": ("count/io", "lower", True),
        "trace.records_read_frac": ("ratio", "higher", True),
        "workload.ios_per_cycle": ("count/cycle", "higher", True),
        "ssd.commands_per_cycle": ("count/cycle", "higher", True),
        "ssd.commands_errored_frac": ("ratio", "lower", True),
        "cache.read_hit_frac": ("ratio", "higher", True),
        "cache.coalesce_frac": ("ratio", "higher", True),
        "ftl.recover_ms_per_cycle": ("ms/cycle", "lower", False),
        "ftl.lookups_per_cycle": ("count/cycle", "lower", True),
        "ftl.journal_pages_per_host_page": ("count/page", "lower", True),
        "ftl.gc_relocated_per_host_page": ("count/page", "lower", True),
        "nand.programs_per_cycle": ("count/cycle", "lower", True),
        "nand.reads_per_cycle": ("count/cycle", "lower", True),
        "nand.erases_per_cycle": ("count/cycle", "lower", True),
        "nand.read_uncorrectable_frac": ("ratio", "lower", True),
        "core.verify_ms_per_cycle": ("ms/cycle", "lower", False),
        "core.pages_checked_per_cycle": ("count/cycle", "lower", True),
        "raid.repaired_pages_per_cycle": ("count/cycle", "lower", True),
        "fs.fsyncs_per_cycle": ("count/cycle", "lower", True),
        "apps.recover_ms_per_cycle": ("ms/cycle", "lower", False),
        "engine.overhead_ms": ("ms", "lower", False),
        "engine.shards": ("count", "lower", True),
        "engine.retries": ("count", "lower", True),
        "bench.traced_ms_per_cycle": ("ms/cycle", "lower", False),
        "bench.unattributed_ms_per_cycle": ("ms/cycle", "lower", False),
        "bench.tracing_overhead_frac": ("ratio", "lower", False),
    }
)


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def layer_metrics(outcome) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced pass except the tracing overhead,
    which needs the untraced passes too."""
    recorder, ledger, tracer = outcome.recorder, outcome.ledger, outcome.tracer
    stats = recorder.stats
    cycles = ledger.cycles

    def calls(name: str) -> int:
        stat = stats.get(name)
        return stat[1] if stat else 0

    def inclusive_ns(*names: str, suffix: str = "", layer: str = "") -> int:
        return sum(
            stat[2]
            for name, stat in stats.items()
            if name in names or (suffix and name.endswith(suffix) and (not layer or stat[0] == layer))
        )

    def per_cycle(value: float) -> float:
        return _ratio(value, cycles)

    def ms_per_cycle(ns: float) -> float:
        return per_cycle(ns / 1e6)

    ios = ledger.total("SsdDevice.commands_ok")
    scheduled = calls("repro.sim.kernel.Kernel.schedule_at")
    commands = calls("repro.ssd.device.SsdDevice.submit")
    records = calls("repro.trace.blktrace.BlockTracer.record")
    host_pages = ledger.total("Ftl.host_pages_written")
    errored = ledger.total("SsdDevice.commands_errored")
    hits, misses = ledger.total("WriteCache.read_hits"), ledger.total("WriteCache.read_misses")
    nand_reads = ledger.total("FlashChip.reads_served")
    self_ns = recorder.self_ns_by_layer()
    execution = getattr(outcome.result, "execution", None)  # None if run_plan raised

    values = {f"{layer}.self_ms_per_cycle": ms_per_cycle(ns) for layer, ns in self_ns.items()}
    values.update(
        {
            "sim.events_per_io": _ratio(scheduled, ios),
            "sim.cancelled_frac": _ratio(tracer.cancels, scheduled),
            "host.commands_per_request": _ratio(
                commands, calls("repro.host.block_layer.BlockLayer.submit")
            ),
            "host.timed_out": ledger.total("BlockLayer.timed_out"),
            "host.build_ms_per_cycle": ms_per_cycle(
                inclusive_ns("repro.host.system.HostSystem.__init__", "repro.host.system.HostSystem.boot")
            ),
            "trace.records_per_io": _ratio(records, ios),
            "trace.records_read_frac": _ratio(tracer.records_read, records),
            "workload.ios_per_cycle": per_cycle(ios),
            "ssd.commands_per_cycle": per_cycle(commands),
            "ssd.commands_errored_frac": _ratio(errored, ios + errored),
            "cache.read_hit_frac": _ratio(hits, hits + misses),
            "cache.coalesce_frac": _ratio(
                ledger.total("WriteCache.coalesces"), ledger.total("WriteCache.inserts")
            ),
            "ftl.recover_ms_per_cycle": ms_per_cycle(inclusive_ns("repro.ftl.ftl.Ftl.power_on_recover")),
            "ftl.lookups_per_cycle": per_cycle(calls("repro.ftl.ftl.Ftl.lookup")),
            "ftl.journal_pages_per_host_page": _ratio(ledger.total("Ftl.journal_pages_written"), host_pages),
            "ftl.gc_relocated_per_host_page": _ratio(ledger.total("GarbageCollector.pages_relocated"), host_pages),
            "nand.programs_per_cycle": per_cycle(ledger.total("FlashChip.programs_committed")),
            "nand.reads_per_cycle": per_cycle(nand_reads),
            "nand.erases_per_cycle": per_cycle(ledger.total("FlashChip.erases_committed")),
            "nand.read_uncorrectable_frac": _ratio(ledger.total("FlashChip.uncorrectable_reads"), nand_reads),
            "core.verify_ms_per_cycle": ms_per_cycle(inclusive_ns("repro.core.analyzer.Analyzer.verify_cycle")),
            "core.pages_checked_per_cycle": per_cycle(tracer.pages_checked),
            "raid.repaired_pages_per_cycle": per_cycle(ledger.total("MirrorPair.repaired_pages")),
            "fs.fsyncs_per_cycle": per_cycle(calls("repro.fs.filesystem.FileSystem.fsync")),
            "apps.recover_ms_per_cycle": ms_per_cycle(inclusive_ns(suffix=".recover", layer="apps")),
            "engine.overhead_ms": (
                inclusive_ns("repro.engine.run_plan") - inclusive_ns(suffix=".run_shard")
            ) / 1e6,
            "engine.shards": execution.shards_completed if execution else 0,
            "engine.retries": execution.retries if execution else 0,
            "bench.traced_ms_per_cycle": ms_per_cycle(outcome.wall_ns),
            "bench.unattributed_ms_per_cycle": ms_per_cycle(outcome.wall_ns - sum(self_ns.values())),
        }
    )
    return {name: (value, PER_LAYER[name][0]) for name, value in values.items()}


def deterministic(row: Dict[str, Tuple[float, str]]) -> Dict[str, float]:
    """The ``[det]`` counts of one metrics row."""
    return {name: value for name, (value, _) in row.items() if PER_LAYER[name][2]}


def ledger_counts(outcome) -> Dict[str, int]:
    """The raw instance-counter totals of one pass (traced or not)."""
    return dict(outcome.ledger.totals, cycles=outcome.ledger.cycles)
