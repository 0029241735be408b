"""Campaign runner: thousands of injection cycles.

One *cycle* reproduces the paper's experimental loop:

1. traffic runs against the READY device;
2. at a Scheduler-drawn random instant the Off command fires — the rail
   begins its discharge, the device detaches at 4.5 V (~40 ms), internals
   brown out (~120 ms), the rail settles (~900 ms);
3. power is restored; the device boots and runs FTL recovery;
4. the Analyzer reads back every address the cycle's ACKed writes touched
   and classifies failures (data failure / FWA / IO error);
5. ledgers reset and the next cycle begins.

Per-fault statistics depend on the traffic running longer than the map
journal's commit interval before the fault (steady-state stranded-update
population), which is why ``calibration.CYCLE_MIN_US`` exceeds the interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core import calibration
from repro.core.analyzer import FailureKind
from repro.core.platform import TestPlatform
from repro.core.results import CampaignResult, FaultCycleResult
from repro.errors import CampaignError
from repro.units import MSEC, SEC


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of a campaign.

    ``faults`` is the number of injection cycles; the fault instant within
    each cycle is drawn uniformly from the Scheduler's window.
    """

    faults: int = 20
    settle_us: int = calibration.RECOVERY_SETTLE_US
    ready_timeout_us: int = 10 * SEC
    warmup_us: int = 200 * MSEC

    def __post_init__(self) -> None:
        if self.faults <= 0:
            raise CampaignError("campaign needs at least one fault")
        if self.settle_us < 0 or self.warmup_us < 0:
            raise CampaignError("negative campaign timing")


class Campaign:
    """Runs injection cycles against a :class:`TestPlatform`.

    Example
    -------
    See ``examples/quickstart.py`` and the benches; minimal use::

        platform = TestPlatform(WorkloadSpec(), seed=3)
        result = Campaign(platform, CampaignConfig(faults=5)).run()
        print(result.summary())
    """

    def __init__(self, platform: TestPlatform, config: Optional[CampaignConfig] = None) -> None:
        self.platform = platform
        self.config = config or CampaignConfig()
        self._traffic_time = 0

    def run(self, label: Optional[str] = None) -> CampaignResult:
        """Execute the full campaign and return aggregated results."""
        platform = self.platform
        host = platform.host
        result = CampaignResult(label=label or platform.describe())
        platform.boot()
        self._traffic_time = 0
        for cycle_index in range(self.config.faults):
            result.add_cycle(self._run_cycle(cycle_index))
        result.requests_issued = platform.generator.issued
        result.traffic_time_us = self._traffic_time
        return result

    # -- one injection cycle --------------------------------------------------------------

    def _run_cycle(self, cycle_index: int) -> FaultCycleResult:
        platform = self.platform
        host = platform.host
        generator = platform.generator
        scheduler = platform.scheduler

        # 1. Traffic.
        traffic_start = host.kernel.now
        generator.start()
        fault_delay = scheduler.draw_fault_delay()
        host.run_for(fault_delay)

        # 2. Fault injection and full discharge.
        fault_time = scheduler.inject_now()
        host.wait_until_dead()
        generator.stop()
        host.run_for(self.config.settle_us)

        # 3. Restore and recover.
        host.restore_power()
        host.wait_until_ready(self.config.ready_timeout_us)

        # 4. Verification.
        writes, reads, failed = generator.drain_ledgers()
        # Packets still in flight at the fault never completed: IO errors in
        # the btt sense (completed=0), unless they were never submitted.
        inflight = list(generator.packets.values())
        generator.packets.clear()
        outcome = platform.analyzer.verify_cycle(cycle_index, writes, list(failed) + inflight)

        # 5. Housekeeping for the next cycle.
        host.block.flush_queue_as_errors()
        damage = host.ssd.last_damage

        cycle = FaultCycleResult(
            cycle_index=cycle_index,
            fault_time_us=fault_time,
            requests_completed=len(writes) + len(reads),
            writes_completed=len(writes),
            reads_completed=len(reads),
            data_failures=outcome.count(FailureKind.DATA_FAILURE),
            fwa_failures=outcome.count(FailureKind.FWA),
            io_errors=outcome.count(FailureKind.IO_ERROR),
            stranded_map_updates=damage.stranded_map_updates if damage else 0,
            dirty_pages_lost=damage.dirty_pages_lost if damage else 0,
            collateral_pages=damage.collateral_pages_corrupted if damage else 0,
            supercap_pages_saved=damage.supercap_pages_saved if damage else 0,
        )
        self._accumulate_traffic_time(fault_time - traffic_start)
        return cycle

    def _accumulate_traffic_time(self, duration_us: int) -> None:
        self._traffic_time += max(0, duration_us)
