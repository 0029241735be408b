"""Failure-path tests for the fault-tolerant shard supervisor.

Faults are injected through the ``REPRO_ENGINE_TEST_FAULT`` fixture (see
``repro.engine.executors``), which reaches process-pool workers through
the inherited environment.  The invariant under test everywhere: however
a campaign's execution is perturbed — crashes, dead workers, timeouts,
kills, resumes — the merged result equals a clean serial run.
"""

import signal
import subprocess
import sys
import time

import pytest

from repro.engine import RetryPolicy, run_plan
from repro.engine.executors import TEST_FAULT_ENV
from repro.errors import CampaignError, ShardFailureError
from tests.engine_faults import (
    clean_summary,
    cli_env as _cli_env,
    Events,
    FAST,
    run_cli as _run_cli,
    small_plan,
    summary_table as _summary_table,
)


class TestRetryPaths:
    def test_crash_retry_success_parallel(self, monkeypatch):
        baseline = clean_summary()
        monkeypatch.setenv(TEST_FAULT_ENV, "crash:1:1")
        hook = Events()
        result = run_plan(
            small_plan(), jobs=2, retry_policy=FAST, progress=hook
        )
        assert result.summary() == baseline
        assert result.execution.retries == 1
        assert result.execution.attempts == [1, 2, 1, 1]
        assert result.execution.shards_completed == 4
        assert not result.execution.degraded
        assert "shard-retried" in hook.kinds()

    def test_crash_retry_success_serial(self, monkeypatch):
        baseline = clean_summary()
        monkeypatch.setenv(TEST_FAULT_ENV, "crash:0:1")
        result = run_plan(small_plan(), jobs=1, retry_policy=FAST)
        assert result.summary() == baseline
        assert result.execution.attempts == [2, 1, 1, 1]

    def test_timeout_kills_pool_and_retries(self, monkeypatch):
        # Attempt 1 of shard 1 wedges for 30s; the supervisor must cancel
        # it, rebuild the pool, and get the identical result on retry.
        baseline = clean_summary()
        monkeypatch.setenv(TEST_FAULT_ENV, "hang:1:1:30")
        started = time.monotonic()
        result = run_plan(
            small_plan(), jobs=2, shard_timeout_s=1.0, retry_policy=FAST
        )
        assert result.summary() == baseline
        assert result.execution.attempts[1] == 2
        assert time.monotonic() - started < 25.0  # nowhere near the 30s hang

    def test_worker_death_charges_only_the_culprit(self, monkeypatch):
        # Shard 2's worker dies outright (os._exit), breaking the shared
        # pool and losing innocent pending futures.  Isolation probing must
        # charge the retry budget only to the shard that fails alone.
        baseline = clean_summary()
        monkeypatch.setenv(TEST_FAULT_ENV, "exit:2:1")
        result = run_plan(small_plan(), jobs=2, retry_policy=FAST)
        assert result.summary() == baseline
        assert result.execution.attempts == [1, 1, 2, 1]


class TestQuarantine:
    def test_persistent_crash_quarantines_shard(self, monkeypatch):
        monkeypatch.setenv(TEST_FAULT_ENV, "crash:2:*")
        hook = Events()
        result = run_plan(
            small_plan(), jobs=1, quarantine=True, retry_policy=FAST, progress=hook
        )
        assert result.summary()["faults"] == 3  # campaign completed, minus shard 2
        assert result.execution.shards_quarantined == 1
        assert result.execution.quarantined == ["sup-test#s2"]
        assert result.execution.attempts[2] == FAST.max_attempts
        assert result.execution.degraded
        assert "shard-quarantined" in hook.kinds()

    def test_persistent_crash_raises_without_quarantine(self, monkeypatch):
        monkeypatch.setenv(TEST_FAULT_ENV, "crash:2:*")
        with pytest.raises(ShardFailureError, match="sup-test#s2"):
            run_plan(small_plan(), jobs=1, retry_policy=FAST)

    def test_parallel_quarantine_completes_remaining_shards(self, monkeypatch):
        monkeypatch.setenv(TEST_FAULT_ENV, "crash:0:*")
        result = run_plan(
            small_plan(), jobs=2, quarantine=True, retry_policy=FAST
        )
        assert result.summary()["faults"] == 3
        assert result.execution.quarantined == ["sup-test#s0"]


class TestCheckpointResume:
    def test_resume_skips_execution_entirely(self, tmp_path, monkeypatch):
        baseline = clean_summary()
        path = tmp_path / "ck.jsonl"
        first = run_plan(small_plan(), jobs=1, checkpoint=path)
        assert first.summary() == baseline
        # Any shard that actually executes now would crash — resuming must
        # therefore serve all four shards from the journal.
        monkeypatch.setenv(TEST_FAULT_ENV, "crash:*:*")
        hook = Events()
        resumed = run_plan(
            small_plan(), jobs=1, checkpoint=path, resume=True, progress=hook
        )
        assert resumed.summary() == baseline
        assert resumed.execution.shards_resumed == 4
        assert hook.kinds().count("shard-skipped") == 4
        assert "shard-started" not in hook.kinds()

    def test_partial_journal_resumes_missing_shards(self, tmp_path):
        baseline = clean_summary()
        path = tmp_path / "ck.jsonl"
        run_plan(small_plan(), jobs=1, checkpoint=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")  # as if killed after 2 shards
        hook = Events()
        resumed = run_plan(
            small_plan(), jobs=2, checkpoint=path, resume=True, progress=hook
        )
        assert resumed.summary() == baseline
        assert resumed.execution.shards_resumed == 2
        assert resumed.execution.shards_completed == 2
        assert hook.kinds().count("checkpoint-written") == 2

    def test_checkpoint_written_events(self, tmp_path):
        hook = Events()
        run_plan(small_plan(), jobs=1, checkpoint=tmp_path / "ck.jsonl", progress=hook)
        assert hook.kinds().count("checkpoint-written") == 4

    def test_resume_requires_checkpoint(self):
        with pytest.raises(CampaignError):
            run_plan(small_plan(), jobs=1, resume=True)


class TestBackoffPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.backoff_s(123, 1) == policy.backoff_s(123, 1)
        assert policy.backoff_s(123, 1) != policy.backoff_s(124, 1)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base_s=0.25, backoff_factor=2.0, backoff_max_s=5.0,
            jitter_fraction=0.0,
        )
        assert policy.backoff_s(7, 1) == 0.25
        assert policy.backoff_s(7, 2) == 0.5
        assert policy.backoff_s(7, 20) == 5.0

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(jitter_fraction=0.5)
        for seed in range(50):
            delay = policy.backoff_s(seed, 1)
            assert 0.125 <= delay <= 0.25

    def test_max_attempts(self):
        assert RetryPolicy(max_retries=0).max_attempts == 1
        assert RetryPolicy(max_retries=3).max_attempts == 4


class TestPoolTelemetry:
    def test_pool_emits_starts_at_pickup(self, monkeypatch):
        # shard-started fires when a worker picks a shard up, not at submit.
        # Commits happen in head-of-line order, so all six starts may still
        # precede the first finish; what pickup-time emission guarantees
        # is *when* they fire.  Two workers on 0.4 s shards
        # cannot pick shard 5 up before at least one earlier shard has
        # run to completion, so its start trails shard 0's by >= 0.4 s —
        # submit-time emission would put them together.
        monkeypatch.setenv(TEST_FAULT_ENV, "slow:*:*:0.4")
        hook = Events()
        result = run_plan(small_plan(faults=6), jobs=2, progress=hook)
        started = {
            event.shard_index: event.elapsed_s
            for event in hook.events
            if event.kind == "shard-started"
        }
        assert sorted(started) == list(range(6))
        assert started[5] - started[0] >= 0.4
        assert hook.kinds().count("shard-started") == 6
        assert result.summary()["faults"] == 6


class TestKillAndResumeCli:
    """The headline acceptance test: SIGTERM mid-campaign, then ``--resume``
    produces a merged result identical to an uninterrupted run."""

    ARGS = [
        "campaign",
        "--faults", "6",
        "--shard-faults", "1",
        "--wss-gib", "4",
    ]

    def test_sigterm_then_resume_matches_uninterrupted(self, tmp_path):
        env = _cli_env()
        checkpoint = tmp_path / "ck.jsonl"

        slow_env = dict(env)
        slow_env[TEST_FAULT_ENV] = "slow:*:*:0.8"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.ARGS,
             "--jobs", "2", "--checkpoint", str(checkpoint)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=slow_env,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and proc.poll() is None:
                if checkpoint.exists() and checkpoint.stat().st_size > 0:
                    break
                time.sleep(0.1)
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        interrupted = proc.returncode == 130
        if interrupted:
            assert "interrupted by SIGTERM" in err
            assert checkpoint.stat().st_size > 0
        else:
            # Very fast machine: the run completed before the signal landed.
            assert proc.returncode == 0

        resumed = _run_cli(
            self.ARGS + ["--jobs", "2", "--checkpoint", str(checkpoint), "--resume"],
            env,
        )
        assert resumed.returncode == 0, resumed.stderr
        baseline = _run_cli(self.ARGS + ["--jobs", "1"], env)
        assert baseline.returncode == 0, baseline.stderr
        assert _summary_table(resumed.stdout) == _summary_table(baseline.stdout)
        if interrupted:
            assert "resumed from checkpoint" in resumed.stderr
