"""Run one benchmark workload and print its metrics as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload randwrite_4k --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics from untraced runs, with times
in reference seconds (``speed.py``); ``--trace 1`` prints the per-layer
metrics from a traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Progress notes and findings go
to standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402
from tracing import LayerTracer, Ledger, Patcher, SpanRecorder  # noqa: E402
from workloads import WORKLOADS, summary_digest  # noqa: E402
import metrics  # noqa: E402

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "cycles_per_s": ("1/s", "higher"),
    "ios_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
"""End-to-end metrics of an untraced run: name -> (unit, better)."""


def note(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def load_reference() -> Dict:
    return json.loads((HERE / "reference.json").read_text())


def chunk_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th timed plan of a run (counting from 1)."""
    return seed * 1_000_003 + index


# -- one instrumented plan execution --------------------------------------------------


class Outcome:
    """What one ``run_plan`` call produced and what the hooks counted."""

    def __init__(self, workload, plan, traced: bool) -> None:
        self.workload = workload
        self.plan = plan
        self.traced = traced
        self.result = None
        self.error: Optional[str] = None
        self.start_ns = self.end_ns = 0
        self.ledger = Ledger()
        self.recorder = SpanRecorder() if traced else None
        self.tracer = LayerTracer(self.recorder) if traced else None

    @property
    def cycles(self) -> int:
        return self.plan.faults

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.start_ns

    def failed_cycles(self) -> int:
        """Cycles whose shard raised, was retried or quarantined, or whose
        audit partition does not add up."""
        if self.result is None:
            return self.plan.faults
        shards = self.plan.shards()
        failed = sum(
            shards[timing.shard_index].faults
            for timing in self.result.execution.timings
            if timing.attempts > 1 or timing.status == "quarantined"
        )
        broken = self.workload.partition_errors(self.result)
        for problem in broken:
            note(f"audit partition broken: {problem}")
        return min(self.plan.faults, failed + len(broken))

    def digest(self) -> Optional[str]:
        return summary_digest(self.result) if self.result is not None else None


def execute(workload, plan, traced: bool = False) -> Outcome:
    """Run one plan serially through ``repro.engine.run_plan`` with hooks."""
    import repro.engine as engine

    outcome = Outcome(workload, plan, traced)
    patcher = Patcher()
    try:
        outcome.ledger.install(patcher)
        if traced:
            outcome.tracer.install(patcher)
        outcome.start_ns = time.perf_counter_ns()
        try:
            outcome.result = engine.run_plan(plan, jobs=1)
        except Exception as exc:  # a failed campaign is a counted failure
            outcome.error = f"{type(exc).__name__}: {exc}"
            note(f"{workload.name}: run_plan raised\n{traceback.format_exc()}")
        outcome.end_ns = time.perf_counter_ns()
        outcome.ledger.harvest()
    finally:
        patcher.restore()
    return outcome


# -- set-up probe ---------------------------------------------------------------------


def setup_probe(workload_name: str, seed: int) -> None:
    """Time the ``repro`` import, plan construction and the first boot."""
    with SpeedProbe() as probe:
        start = probe.mark()
        sys.path.insert(0, str(SRC))
        import repro.engine  # noqa: F401

        workload = WORKLOADS[workload_name]
        plan = workload.plan(chunk_seed(seed, 1), workload.chunk_cycles)
        workload.setup_platform(plan)
        end = probe.mark()
    print(json.dumps({"setup_s": probe.calibrated_s(start, end)}))


def measure_setup(workload_name: str, seed: int) -> List[float]:
    """Set-up time (reference seconds) of ``SETUP_REPEATS`` fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# -- the two run modes ----------------------------------------------------------------


class Tally:
    """Correctness bookkeeping shared by both run modes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_cycles = 0
        self.digest_mismatch = False
        self.problems: List[str] = []

    def add(self, outcome: Outcome) -> None:
        self.attempted += outcome.cycles
        self.failed_cycles += outcome.failed_cycles()

    def problem(self, message: str) -> None:
        note(f"CHECK FAILED: {message}")
        self.problems.append(message)

    @property
    def failed(self) -> int:
        """A default-seed digest mismatch fails every cycle of the run."""
        return self.attempted if self.digest_mismatch else self.failed_cycles

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def check_reference(workload, reference: Dict, tally: Tally) -> Outcome:
    """Run the default-seed plan and compare its digest with the recorded one."""
    entry = reference[workload.name]
    outcome = execute(workload, workload.plan(entry["default_seed"], workload.reference_cycles))
    tally.add(outcome)
    if outcome.digest() != entry["digest"]:
        tally.problem(
            f"{workload.name}: default-seed digest {outcome.digest()} "
            f"!= recorded {entry['digest']}"
        )
        tally.digest_mismatch = True
    return outcome


def untraced_run(workload, seed: int, seconds: float, reference: Dict, tally: Tally) -> Dict:
    setup = measure_setup(workload.name, seed)
    # The reference plan also warms the process (lazy tables, allocator
    # pools), so the timed plans that follow measure steady state.  Memory
    # is read here, over the same default-seed input in every run.
    check_reference(workload, reference, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # New plans, each from its own seed, until the budget is used; the
    # probe converts their wall time to reference seconds (speed.py).
    timed: List[Outcome] = []
    with SpeedProbe() as probe:
        begin = probe.mark()
        while probe.mark().wall_ns - begin.wall_ns < seconds * 1e9:
            plan = workload.plan(chunk_seed(seed, len(timed) + 1), workload.chunk_cycles)
            timed.append(execute(workload, plan))
        end = probe.mark()
    for outcome in timed:
        tally.add(outcome)
    wall_s = probe.calibrated_s(begin, end)
    cycles = sum(o.cycles for o in timed)
    ios = sum(o.ledger.total("SsdDevice.commands_ok") for o in timed)
    note(
        f"{workload.name}: {cycles} cycles, {ios} IOs in {len(timed)} plans, "
        f"{(end.wall_ns - begin.wall_ns) / 1e9:.2f} s wall = {wall_s:.2f} reference s "
        f"(host {SpeedProbe.slowdown(begin, end):.2f}x reference); "
        f"set-up samples {[round(s, 3) for s in setup]}"
    )
    values = {
        "cycles_per_s": cycles / wall_s,
        "ios_per_s": ios / wall_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: (value, END_TO_END[name][0]) for name, value in values.items()}


def traced_run(workload, seed: int, seconds: float, reference: Dict, tally: Tally) -> Dict:
    deadline = time.perf_counter() + seconds
    check_reference(workload, reference, tally)
    plan = workload.plan(seed, workload.traced_cycles)
    plain: List[Outcome] = []
    traced: List[Outcome] = []
    while len(traced) < 2 or (
        time.perf_counter() + (plain[-1].wall_ns + traced[-1].wall_ns) / 1e9 <= deadline
    ):
        for outcome in (execute(workload, plan), execute(workload, plan, traced=True)):
            tally.add(outcome)
            (traced if outcome.traced else plain).append(outcome)
    digests = {o.digest() for o in plain + traced}
    if len(digests) != 1:
        tally.problem(f"{workload.name}: traced and untraced runs differ: {sorted(map(str, digests))}")
    rows = [metrics.layer_metrics(o) for o in traced]
    counts = [metrics.deterministic(row) for row in rows]
    ledgers = [metrics.ledger_counts(o) for o in plain + traced]
    for label, values in (("[det] counter", counts), ("instance counter", ledgers)):
        for name in values[0]:
            seen = {v[name] for v in values}
            if len(seen) > 1:
                tally.problem(f"nondeterminism: {label} {name} took values {sorted(seen)}")
    entry = reference[workload.name]
    if seed == entry["default_seed"]:
        for name, value in counts[0].items():
            recorded = entry["counters"].get(name)
            if recorded != value:
                note(f"baseline drift: {name} = {value}, recorded {recorded}")
    # Report every time from one pass (the median traced wall) so that the
    # layer self times and the unattributed time add up to its wall time.
    median_pass = sorted(range(len(traced)), key=lambda i: traced[i].wall_ns)[(len(traced) - 1) // 2]
    row = dict(rows[median_pass])
    plain_wall = statistics.median(o.wall_ns for o in plain)
    traced_wall = statistics.median(o.wall_ns for o in traced)
    row["bench.tracing_overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    note(
        f"{workload.name}: {len(plain)} untraced and {len(traced)} traced passes of "
        f"{plan.faults} cycles; tracing overhead {traced_wall / plain_wall - 1.0:.2f}"
    )
    return row


# -- entry point ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    sys.path.insert(0, str(SRC))
    import repro.engine  # noqa: F401  (compiles the package before timing)

    workload = WORKLOADS[args.workload]
    reference = load_reference()["workloads"]
    tally = Tally()
    run = traced_run if args.trace else untraced_run
    values = run(workload, args.seed, args.seconds, reference, tally)
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
