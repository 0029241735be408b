#!/usr/bin/env python
"""End-to-end resume-after-interrupt smoke test (used by CI).

Starts a checkpointed parallel campaign with artificially slow shards,
SIGTERMs it once the journal has committed at least one shard, resumes it,
and asserts the resumed summary table is byte-identical to an
uninterrupted serial run of the same plan — the engine's headline
crash-safety guarantee.

Both the interrupted and resumed phases run with ``--trace``; the traces
are schema-checked (every record carries the required fields, kinds are
known, capture timestamps are monotonic) and the resumed-phase trace must
show skipped shards whose cycles are excluded from the throughput rate.
A final torn-append phase cuts the finished journal mid-way through its
second record (as a SIGKILL mid-append would), resumes twice and then
compacts it: both resumed summaries must again match the serial run and
``repro checkpoint compact`` must succeed — a torn tail must stay
droppable after a writer has appended past it.

Set ``RESUME_SMOKE_TRACE_DIR`` to keep the trace files (CI uploads them
as artifacts); by default they live and die with the temp directory.

Exit code 0 on success, 1 on any mismatch.  Run from the repo root:

    PYTHONPATH=src python scripts/resume_smoke.py
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ARGS = [
    "campaign",
    "--faults", "6",
    "--shard-faults", "1",
    "--wss-gib", "4",
]
FAULT_ENV = "REPRO_ENGINE_TEST_FAULT"
TRACE_DIR_ENV = "RESUME_SMOKE_TRACE_DIR"


def cli_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(args, env):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )


def summary_table(stdout):
    return [
        line
        for line in stdout.splitlines()
        if line.strip() and not line.startswith("running ")
    ]


def check_trace_schema(path, expect_skips=False):
    """Validate one trace file against the engine's published schema.

    Returns an error string, or None when the trace is sound.  A missing
    or empty file is an error: both phases run with ``--trace``, so a
    silent no-trace run means the flag quietly stopped working.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    if src not in sys.path:  # tolerate being run without PYTHONPATH=src
        sys.path.insert(0, src)
    from repro.engine.trace import EVENT_KINDS, REQUIRED_FIELDS, TRACE_VERSION

    if not path.exists():
        return f"trace file was not written: {path}"
    records = []
    for index, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            return f"{path.name}:{index}: unparseable trace line"
    if not records:
        return f"{path.name}: trace contains no records"
    last_mono = None
    for index, record in enumerate(records, start=1):
        missing = [name for name in REQUIRED_FIELDS if name not in record]
        if missing:
            return f"{path.name}:{index}: missing required fields {missing}"
        if record["v"] != TRACE_VERSION:
            return f"{path.name}:{index}: unknown trace version {record['v']!r}"
        if record["kind"] not in EVENT_KINDS:
            return f"{path.name}:{index}: unknown event kind {record['kind']!r}"
        if last_mono is not None and record["mono_time_s"] < last_mono:
            return f"{path.name}:{index}: monotonic timestamp went backwards"
        last_mono = record["mono_time_s"]
    if expect_skips:
        skips = [r for r in records if r["kind"] == "shard-skipped"]
        if not skips:
            return f"{path.name}: resumed run recorded no shard-skipped events"
        if any(r["cycles_skipped"] <= 0 for r in skips):
            return f"{path.name}: shard-skipped record with no skipped cycles"
        # The bugfix under test: checkpoint-loaded cycles must not feed
        # the throughput rate (executed = done - skipped drives it).
        bogus = [
            r for r in records
            if r["cycles_done"] == r["cycles_skipped"]
            and r["cycles_done"] > 0
            and r["cycles_per_sec"] > 0.0
        ]
        if bogus:
            return (
                f"{path.name}: throughput credited for checkpoint-loaded "
                f"cycles ({bogus[0]['cycles_per_sec']:.2f} cycles/s with "
                "nothing executed)"
            )
    print(f"trace ok: {path.name} ({len(records)} records)")
    return None


def torn_append_phase(checkpoint, baseline_table, env):
    """Tear the journal's 2nd record, resume twice, compact.

    Returns an error string, or None when every step matches.
    """
    data = checkpoint.read_bytes()
    second = data.index(b"\n") + 1
    end = data.index(b"\n", second)
    checkpoint.write_bytes(data[: second + (end - second) // 2])
    for attempt in (1, 2):
        resumed = run_cli(
            ARGS + ["--jobs", "2", "--checkpoint", str(checkpoint), "--resume"],
            env,
        )
        if resumed.returncode != 0:
            return (
                f"resume {attempt} after a torn append exited "
                f"{resumed.returncode}\n{resumed.stderr}"
            )
        if summary_table(resumed.stdout) != baseline_table:
            return f"resume {attempt} after a torn append differs from the serial run"
        print(f"torn-append resume {attempt}: {resumed.stderr.strip()}")
    compact = run_cli(["checkpoint", "compact", str(checkpoint)], env)
    if compact.returncode != 0:
        return f"compact after torn appends exited {compact.returncode}\n{compact.stderr}"
    print(f"torn-append compact: {compact.stdout.strip()}")
    return None


def main():
    env = cli_env()
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "ck.jsonl"
        trace_dir = Path(os.environ.get(TRACE_DIR_ENV) or tmp)
        trace_dir.mkdir(parents=True, exist_ok=True)
        interrupted_trace = trace_dir / "interrupted.trace.jsonl"
        resumed_trace = trace_dir / "resumed.trace.jsonl"

        slow_env = dict(env)
        slow_env[FAULT_ENV] = "slow:*:*:0.8"  # widen the interrupt window
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *ARGS,
             "--jobs", "2", "--checkpoint", str(checkpoint),
             "--trace", str(interrupted_trace)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=slow_env,
        )
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline and proc.poll() is None:
            if checkpoint.exists() and checkpoint.stat().st_size > 0:
                break
            time.sleep(0.1)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            _, err = proc.communicate(timeout=300)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print("FAIL: interrupted campaign did not exit after SIGTERM")
            return 1

        if proc.returncode == 130:
            print(f"interrupted mid-run (exit 130): {err.strip().splitlines()[-1]}")
        elif proc.returncode == 0:
            print("campaign finished before the signal landed; resume is a no-op run")
        else:
            print(f"FAIL: unexpected exit {proc.returncode}\n{err}")
            return 1

        resumed = run_cli(
            ARGS + ["--jobs", "2", "--checkpoint", str(checkpoint), "--resume",
                    "--trace", str(resumed_trace)],
            env,
        )
        if resumed.returncode != 0:
            print(f"FAIL: resume exited {resumed.returncode}\n{resumed.stderr}")
            return 1
        print(f"resume: {resumed.stderr.strip() or '(no shards needed resuming)'}")

        baseline = run_cli(ARGS + ["--jobs", "1"], env)
        if baseline.returncode != 0:
            print(f"FAIL: baseline exited {baseline.returncode}\n{baseline.stderr}")
            return 1

        if summary_table(resumed.stdout) != summary_table(baseline.stdout):
            print("FAIL: resumed summary differs from uninterrupted serial run")
            print("--- resumed ---")
            print(resumed.stdout)
            print("--- baseline ---")
            print(baseline.stdout)
            return 1

        # Schema-check the traces both phases wrote.  The interrupted
        # phase may have died before any event (SIGTERM can land before
        # the first pickup), in which case its trace never opened — that
        # is the writer's documented lazy-open behaviour, not a failure.
        resumed_from_journal = "resumed from checkpoint" in resumed.stderr
        if interrupted_trace.exists():
            error = check_trace_schema(interrupted_trace)
            if error:
                print(f"FAIL: {error}")
                return 1
        error = check_trace_schema(resumed_trace, expect_skips=resumed_from_journal)
        if error:
            print(f"FAIL: {error}")
            return 1

        error = torn_append_phase(checkpoint, summary_table(baseline.stdout), env)
        if error:
            print(f"FAIL: {error}")
            return 1

    print("OK: resumed campaigns match the uninterrupted run exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
