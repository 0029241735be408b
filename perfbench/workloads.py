"""The four fault-campaign workloads the benchmark runs.

Each workload builds an engine plan from a seed and a cycle count, knows
how to build and boot its first platform on its own (the set-up the
benchmark times), and checks the per-cycle audit partition of its plan
type.  The plans go through the public engine entry point
(``repro.engine.run_plan``, serial) like any other campaign.

Every ``repro`` import happens inside a function, so importing this module
costs nothing and the set-up probe can time the ``repro`` import itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Callable, List

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
MSEC = 1000


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``plan(seed, faults)`` builds the engine plan.  ``chunk_cycles`` is
    the fault budget of one timed plan; ``reference_cycles`` the budget of
    the default-seed plan whose digest every run re-checks;
    ``traced_cycles`` the budget of the plan the traced run executes with
    and without tracing.
    """

    name: str
    kind: str  # "campaign" | "topology" | "apps"
    plan: Callable[[int, int], object]
    chunk_cycles: int
    reference_cycles: int
    traced_cycles: int

    def setup_platform(self, plan) -> None:
        """Build and boot the plan's first platform, as its first shard would."""
        seed = plan.shards()[0].seed
        if self.kind == "campaign":
            plan.build_platform(seed).boot()
        elif self.kind == "topology":
            plan.build_topology(seed).boot(plan.ready_timeout_us)
        else:
            from repro.engine import derive_shard_seed
            from repro.host.system import HostSystem

            host = HostSystem(
                config=plan.device,
                seed=derive_shard_seed(seed, 1),
                max_segment_pages=plan.max_segment_pages,
            )
            host.boot(plan.ready_timeout_us)

    def partition_errors(self, result) -> List[str]:
        """Cycles whose audit partition does not add up (empty when sound)."""
        return [
            f"{self.name} cycle {cycle.cycle_index}: {problem}"
            for cycle in result.cycles
            for problem in _partition_problems(self.kind, cycle)
        ]


def _partition_problems(kind: str, cycle) -> List[str]:
    if kind == "campaign":
        # A plain campaign records failures, not intact writes: intact is
        # the remainder, so the partition holds iff no count is negative.
        intact = cycle.writes_completed - cycle.fwa_failures - cycle.data_failures
        problems = []
        if min(intact, cycle.fwa_failures, cycle.data_failures) < 0:
            problems.append("intact + FWA + data != acked writes")
        if cycle.requests_completed != cycle.writes_completed + cycle.reads_completed:
            problems.append("completed requests != writes + reads")
        return problems
    if kind == "topology":
        parts = cycle.intact_writes + cycle.topology_recovered + cycle.fwa_failures
        if parts != cycle.writes_completed:
            return ["intact + recovered + app-loss != acked writes"]
        return []
    parts = (
        cycle.app_intact
        + cycle.app_torn_recovered
        + cycle.app_committed_loss
        + cycle.app_silent_corruption
        + cycle.app_recovery_failed
    )
    if parts != cycle.app_promises:
        return ["five-way promise partition != promises"]
    return []


def summary_digest(result) -> str:
    """Content hash of every simulated outcome of a merged result.

    Covers each cycle record, the traffic time and the request count; the
    host-time execution accounting is left out because it differs between
    any two runs.
    """
    blob = json.dumps(
        {
            "label": result.label,
            "cycles": [asdict(cycle) for cycle in result.cycles],
            "traffic_time_us": result.traffic_time_us,
            "requests_issued": result.requests_issued,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _zero_luck_device(name: str, capacity_bytes: int, init_time_us: int):
    """A device whose FTL never recovers by luck: long journal interval,
    zero page/extent recovery probability."""
    from repro.ftl import FtlConfig
    from repro.ssd.device import SsdConfig

    return SsdConfig(
        name=name,
        capacity_bytes=capacity_bytes,
        init_time_us=init_time_us,
        ftl=FtlConfig(
            journal_commit_interval_us=10_000 * MSEC,
            page_recovery_prob=0.0,
            extent_recovery_prob=0.0,
        ),
    )


def _randwrite_4k(seed: int, faults: int):
    from repro.engine import CampaignPlan
    from repro.workload.spec import WorkloadSpec

    spec = WorkloadSpec(
        wss_bytes=32 * GIB,
        read_fraction=0.0,
        size_min_bytes=4 * KIB,
        size_max_bytes=4 * KIB,
        requested_iops=12000.0,
    )
    return CampaignPlan(spec=spec, faults=faults, base_seed=seed, label="randwrite_4k")


def _mixed_large(seed: int, faults: int):
    from repro.engine import CampaignPlan
    from repro.workload.spec import WorkloadSpec

    spec = WorkloadSpec(
        wss_bytes=8 * GIB,
        read_fraction=0.5,
        size_min_bytes=64 * KIB,
        size_max_bytes=1 * MIB,
        outstanding=32,
    )
    return CampaignPlan(spec=spec, faults=faults, base_seed=seed, label="mixed_large")


def _topology_wb_mirror(seed: int, faults: int):
    from repro.topology import TopologyPlan
    from repro.workload.spec import WorkloadSpec

    spec = WorkloadSpec(
        wss_bytes=1 * GIB,
        read_fraction=0.0,
        size_min_bytes=4 * KIB,
        size_max_bytes=64 * KIB,
    )
    return TopologyPlan(
        spec=spec,
        faults=faults,
        device=_zero_luck_device("cache-leg", 2 * GIB, 50 * MSEC),
        base_seed=seed,
        label="topology_wb_mirror",
        policy="wb",
        mirror_cache=True,
        shared_power=False,
        fault_window_us=100 * MSEC,
    )


def _apps_wal(seed: int, faults: int):
    from repro.apps import AppPlan
    from repro.workload.spec import WorkloadSpec

    return AppPlan(
        spec=WorkloadSpec(),
        faults=faults,
        device=_zero_luck_device("hostile", 1 * GIB, 30 * MSEC),
        base_seed=seed,
        label="apps_wal",
        warmup_us=40 * MSEC,
        fault_window_us=150 * MSEC,
        app="wal",
        app_fsync=True,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("randwrite_4k", "campaign", _randwrite_4k, 2, 2, 1),
        Workload("mixed_large", "campaign", _mixed_large, 4, 3, 2),
        Workload("topology_wb_mirror", "topology", _topology_wb_mirror, 4, 3, 2),
        Workload("apps_wal", "apps", _apps_wal, 40, 20, 20),
    )
}
