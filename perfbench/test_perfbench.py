"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracing import LAYERS, LayerTracer, Patcher, SpanRecorder  # noqa: E402
from workloads import WORKLOADS, summary_digest  # noqa: E402


# -- self-time arithmetic on synthetic span trees ------------------------------------


def replay(tree):
    """Drive a recorder through ``(name, start, end, children)`` trees.

    Each span's start and end are read from a fake clock, so the recorder
    sees exactly the synthetic times.
    """
    times = []

    def walk(node):
        name, start, end, children = node
        times.append(start)
        for child in children:
            walk(child)
        times.append(end)

    for node in tree:
        walk(node)
    clock = iter(times)
    recorder = SpanRecorder(clock=lambda: next(clock))

    def play(node):
        name, _, _, children = node
        frame = recorder.enter()
        for child in children:
            play(child)
        recorder.leave(frame, recorder.stat(name, name.split(".")[0]))

    for node in tree:
        play(node)
    return recorder


def self_of(recorder, name):
    return recorder.stats[name][3]


def test_span_without_children_is_all_self_time():
    recorder = replay([("sim.run", 10, 35, [])])
    assert self_of(recorder, "sim.run") == 25
    assert recorder.stats["sim.run"][1:3] == [1, 25]
    assert recorder.top_level_ns() == 25


def test_nested_children_subtract_only_direct_children():
    tree = [
        ("core.cycle", 0, 100, [
            ("host.submit", 10, 60, [
                ("ssd.submit", 20, 50, [("nand.program", 25, 45, [])]),
            ]),
        ]),
    ]
    recorder = replay(tree)
    assert self_of(recorder, "core.cycle") == 100 - 50
    assert self_of(recorder, "host.submit") == 50 - 30
    assert self_of(recorder, "ssd.submit") == 30 - 20
    assert self_of(recorder, "nand.program") == 20
    layers = recorder.self_ns_by_layer()
    assert layers["core"] + layers["host"] + layers["ssd"] + layers["nand"] == 100


def test_back_to_back_children_cover_their_sum():
    tree = [
        ("ftl.write", 0, 50, [
            ("nand.program", 5, 15, []),
            ("nand.program", 15, 30, []),
            ("nand.read", 30, 31, []),
        ]),
    ]
    recorder = replay(tree)
    assert self_of(recorder, "ftl.write") == 50 - 26
    assert self_of(recorder, "nand.program") == 25
    assert recorder.stats["nand.program"][1] == 2


def test_self_times_and_gaps_add_up_to_wall_time():
    tree = [("engine.run", 0, 40, [("sim.run", 5, 25, [])]), ("engine.run", 50, 60, [])]
    recorder = replay(tree)
    wall = 70  # the traced window, including the gaps between spans
    unattributed = wall - sum(recorder.self_ns_by_layer().values())
    assert unattributed == wall - recorder.top_level_ns() == 20


# -- attribution of Process resumes ----------------------------------------------------


def _local_generator(log):
    log.append("ran")
    yield 5
    log.append("resumed")


def traced(fn):
    patcher = Patcher()
    recorder = SpanRecorder()
    tracer = LayerTracer(recorder)
    try:
        tracer.install(patcher)
        fn()
    finally:
        patcher.restore()
    return recorder


def resume_stats(recorder, suffix):
    return [
        stat for name, stat in recorder.stats.items()
        if name.startswith("resume") and name.endswith(suffix)
    ]


def test_process_resume_belongs_to_the_generator_package():
    from repro.host.system import HostSystem

    def scenario():
        host = HostSystem(seed=3)
        host.boot()
        host.write(lpn=0, tokens=[7, 8])
        host.run_for_ms(20)

    recorder = traced(scenario)
    dispatcher = resume_stats(recorder, "_dispatcher_body")
    assert dispatcher and all(stat[0] == "ssd" for stat in dispatcher)
    assert sum(stat[1] for stat in dispatcher) > 0
    assert recorder.self_ns_by_layer()["ssd"] > 0


def test_resume_of_a_generator_outside_the_layers_has_no_layer():
    from repro.sim import Kernel, Process

    log = []

    def scenario():
        kernel = Kernel()
        Process(kernel, _local_generator(log))
        kernel.run()

    recorder = traced(scenario)
    assert log == ["ran", "resumed"]
    (stat,) = resume_stats(recorder, "outside the layers")
    assert stat[0] is None and stat[1] == 2


# -- wrappers leave no trace -----------------------------------------------------------


def namespace_snapshot():
    """Identity of every attribute of every ``repro`` module and class."""
    snapshot = {}
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            snapshot[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for attr, raw in list(vars(value).items()):
                    snapshot[(module.__name__, name, attr)] = raw
    return snapshot


def test_traced_run_restores_every_original_object():
    LayerTracer.layer_modules()  # import everything the tracer will wrap
    before = namespace_snapshot()
    workload = WORKLOADS["apps_wal"]
    outcome = run.execute(workload, workload.plan(5, 2), traced=True)
    assert outcome.error is None
    after = namespace_snapshot()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
    assert len(outcome.recorder.stats) > 500  # the tracer really wrapped the layers


def test_traced_and_untraced_runs_agree_and_count_the_same_work():
    workload = WORKLOADS["apps_wal"]
    plan = workload.plan(11, 3)
    plain = run.execute(workload, plan)
    first = run.execute(workload, plan, traced=True)
    second = run.execute(workload, plan, traced=True)
    assert plain.digest() == first.digest() == second.digest()
    assert metrics.ledger_counts(plain) == metrics.ledger_counts(first)
    rows = [metrics.layer_metrics(o) for o in (first, second)]
    assert metrics.deterministic(rows[0]) == metrics.deterministic(rows[1])
    row = rows[0]
    layer_sum = sum(row[f"{layer}.self_ms_per_cycle"][0] for layer in LAYERS)
    total = layer_sum + row["bench.unattributed_ms_per_cycle"][0]
    assert total == pytest.approx(row["bench.traced_ms_per_cycle"][0], rel=1e-9)


def test_ledger_counts_platforms_dropped_inside_a_cycle():
    workload = WORKLOADS["apps_wal"]
    outcome = run.execute(workload, workload.plan(4, 3))
    assert outcome.ledger.cycles == 3
    assert outcome.ledger.total("SsdDevice.commands_ok") > 0
    assert outcome.ledger.total("FlashChip.programs_committed") > 0


# -- host-speed calibration -------------------------------------------------------------


def test_calibrated_time_removes_probe_time_and_scales_by_probe_speed():
    nominal_ns = int(speed.NOMINAL_UNIT_S * 1e9)
    start = speed.Mark(wall_ns=1_000, units=3, probe_ns=7)
    # 10 units at twice the nominal time inside 1 s of wall: 0.96 s of
    # program work on a host running at half the reference speed.
    end = speed.Mark(wall_ns=1_000 + 10**9, units=13, probe_ns=7 + 10 * 2 * nominal_ns)
    work_s = (10**9 - 10 * 2 * nominal_ns) / 1e9
    assert speed.SpeedProbe.calibrated_s(start, end) == pytest.approx(work_s / 2, rel=1e-12)
    assert speed.SpeedProbe.slowdown(start, end) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        speed.SpeedProbe.calibrated_s(start, start)


def test_probe_interrupts_without_perturbing_the_program():
    import signal

    workload = WORKLOADS["apps_wal"]
    plan = workload.plan(13, 4)
    plain = run.execute(workload, plan)
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(period_s=0.005) as probe:
        start = probe.mark()
        probed = run.execute(workload, plan)
        end = probe.mark()
    assert end.units > start.units
    assert probed.digest() == plain.digest()
    assert metrics.ledger_counts(probed) == metrics.ledger_counts(plain)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- correctness checks ----------------------------------------------------------------


def test_partition_checks_flag_a_broken_cycle():
    from repro.core.results import CampaignResult, FaultCycleResult

    def result(**fields):
        base = dict(
            cycle_index=0, fault_time_us=0, requests_completed=10, writes_completed=10,
            reads_completed=0, data_failures=0, fwa_failures=0, io_errors=0,
        )
        base.update(fields)
        return CampaignResult(label="x", cycles=[FaultCycleResult(**base)])

    campaign, topology, apps = (
        WORKLOADS["randwrite_4k"], WORKLOADS["topology_wb_mirror"], WORKLOADS["apps_wal"]
    )
    assert campaign.partition_errors(result(fwa_failures=4, data_failures=6)) == []
    assert campaign.partition_errors(result(fwa_failures=5, data_failures=6))
    assert topology.partition_errors(result(intact_writes=7, topology_recovered=3)) == []
    assert topology.partition_errors(result(intact_writes=7, topology_recovered=2))
    good = dict(app_promises=5, app_intact=2, app_torn_recovered=1, app_committed_loss=1,
                app_silent_corruption=0, app_recovery_failed=1)
    assert apps.partition_errors(result(**good)) == []
    assert apps.partition_errors(result(**dict(good, app_intact=3)))


def test_digest_ignores_host_time_accounting():
    workload = WORKLOADS["apps_wal"]
    one = run.execute(workload, workload.plan(9, 2)).result
    two = run.execute(workload, workload.plan(9, 2)).result
    assert one.execution.timings != [] and summary_digest(one) == summary_digest(two)
    two.cycles[0].app_intact += 1
    assert summary_digest(one) != summary_digest(two)


# -- the benchmark definition ------------------------------------------------------------


def benchmark_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in metrics.PER_LAYER.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END


def test_reference_names_seeds_digests_and_counts_for_every_workload():
    reference = run.load_reference()["workloads"]
    assert set(reference) == set(WORKLOADS)
    det = {name for name, (_, _, is_det) in metrics.PER_LAYER.items() if is_det}
    for entry in reference.values():
        assert entry["default_seed"] != entry["held_out_seed"]
        assert len(entry["digest"]) == 16
        assert set(entry["counters"]) == det
