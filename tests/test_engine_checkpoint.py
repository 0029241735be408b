"""Tests for the shard checkpoint journal (repro.engine.checkpoint).

Covers the lossless result codec, append/replay round trips, torn-tail
tolerance vs mid-file corruption, fingerprint filtering, and plan
fingerprint stability.
"""

import json

import pytest

from repro.core.results import CampaignResult, FaultCycleResult
from repro.engine import CampaignPlan, plans_fingerprint, run_plan
from repro.engine.checkpoint import (
    CheckpointJournal,
    compact_journal,
    load_resume_state,
    result_from_record,
    result_schema_version,
    result_to_record,
)
from repro.errors import CheckpointError
from repro.units import GIB
from repro.workload.spec import WorkloadSpec


def make_result(label="shard", cycles=2, loss=1):
    result = CampaignResult(label=label, traffic_time_us=123456, requests_issued=77)
    for index in range(cycles):
        result.add_cycle(
            FaultCycleResult(
                cycle_index=index,
                fault_time_us=1000 + index,
                requests_completed=50 + index,
                writes_completed=40,
                reads_completed=10 + index,
                data_failures=loss,
                fwa_failures=index,
                io_errors=3,
                stranded_map_updates=2,
                dirty_pages_lost=1,
                collateral_pages=4,
                supercap_pages_saved=5,
            )
        )
    return result


def make_plan(**kwargs):
    defaults = dict(
        spec=WorkloadSpec(wss_bytes=1 * GIB), faults=4, base_seed=9, shard_faults=2
    )
    defaults.update(kwargs)
    return CampaignPlan(**defaults)


class TestResultCodec:
    def test_round_trip_is_lossless(self):
        original = make_result()
        thawed = result_from_record(result_to_record(original))
        assert thawed.label == original.label
        assert thawed.traffic_time_us == original.traffic_time_us
        assert thawed.requests_issued == original.requests_issued
        assert thawed.cycles == original.cycles
        assert thawed.summary() == original.summary()

    def test_codec_carries_every_cycle_field(self):
        # Field-driven serialisation: collateral/supercap counters (absent
        # from the analysis export) must survive the journal.
        thawed = result_from_record(result_to_record(make_result()))
        assert thawed.cycles[0].collateral_pages == 4
        assert thawed.cycles[0].supercap_pages_saved == 5

    def test_malformed_record_raises(self):
        with pytest.raises(CheckpointError):
            result_from_record({"label": "x"})


class TestJournalReplay:
    def test_append_then_load(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path, "fp-1") as journal:
            journal.append_shard(0, 0, make_result("a"), attempts=1, label="a")
            journal.append_shard(0, 1, make_result("b", loss=2), attempts=3, label="b")
        state = load_resume_state(path, "fp-1")
        assert len(state) == 2
        assert state.results[(0, 0)].label == "a"
        assert state.attempts[(0, 1)] == 3
        assert not state.dropped_tail

    def test_missing_file_is_empty_state(self, tmp_path):
        state = load_resume_state(tmp_path / "nope.jsonl", "fp-1")
        assert len(state) == 0

    def test_torn_tail_is_discarded(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path, "fp-1") as journal:
            journal.append_shard(0, 0, make_result(), attempts=1)
            journal.append_shard(0, 1, make_result(), attempts=1)
        text = path.read_text()
        lines = text.splitlines()
        # Simulate a crash mid-append: final record only half-written.
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        state = load_resume_state(path, "fp-1")
        assert state.dropped_tail
        assert set(state.results) == {(0, 0)}

    def test_corrupt_final_record_counts_as_torn(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path, "fp-1") as journal:
            journal.append_shard(0, 0, make_result(), attempts=1)
            journal.append_shard(0, 1, make_result(), attempts=1)
        lines = path.read_text().splitlines()
        # Valid JSON, wrong checksum: flip a digit inside the last payload.
        record = json.loads(lines[-1])
        record["attempts"] = record["attempts"] + 7
        path.write_text("\n".join(lines[:-1]) + "\n" + json.dumps(record) + "\n")
        state = load_resume_state(path, "fp-1")
        assert state.dropped_tail
        assert set(state.results) == {(0, 0)}

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path, "fp-1") as journal:
            journal.append_shard(0, 0, make_result(), attempts=1)
            journal.append_shard(0, 1, make_result(), attempts=1)
        lines = path.read_text().splitlines()
        broken = lines[0][: len(lines[0]) // 2]
        path.write_text(broken + "\n" + lines[1] + "\n")
        with pytest.raises(CheckpointError):
            load_resume_state(path, "fp-1")

    def test_fingerprint_mismatch_is_skipped(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path, "fp-old") as journal:
            journal.append_shard(0, 0, make_result(), attempts=1)
        state = load_resume_state(path, "fp-new")
        assert len(state) == 0
        assert state.mismatched == 1

    def test_duplicate_key_keeps_latest(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path, "fp-1") as journal:
            journal.append_shard(0, 0, make_result(loss=1), attempts=1)
            journal.append_shard(0, 0, make_result(loss=9), attempts=2)
        state = load_resume_state(path, "fp-1")
        assert state.results[(0, 0)].data_failures == 2 * 9
        assert state.attempts[(0, 0)] == 2

    def test_quarantine_records_do_not_mark_done(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path, "fp-1") as journal:
            journal.append_quarantine(0, 0, attempts=3, reason="poison")
        state = load_resume_state(path, "fp-1")
        assert len(state) == 0
        assert state.quarantine_records == 1

    def test_resume_appends_to_same_file(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path, "fp-1") as journal:
            journal.append_shard(0, 0, make_result(), attempts=1)
        with CheckpointJournal(path, "fp-1") as journal:
            journal.append_shard(0, 1, make_result(), attempts=1)
        state = load_resume_state(path, "fp-1")
        assert set(state.results) == {(0, 0), (0, 1)}

    def test_appends_after_torn_tail_replay_cleanly(self, tmp_path):
        # The next writer must cut a torn final line off before appending:
        # glued onto its first record, the damage would sit mid-file and
        # make the second resume raise.
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path, "fp-1") as journal:
            journal.append_shard(0, 0, make_result(), attempts=1)
            journal.append_shard(0, 1, make_result(), attempts=1)
        data = path.read_bytes()
        second = data.index(b"\n") + 1
        path.write_bytes(data[: second + (len(data) - second) // 2])
        assert load_resume_state(path, "fp-1").dropped_tail
        with CheckpointJournal(path, "fp-1") as journal:
            journal.append_shard(0, 1, make_result(), attempts=2)
            journal.append_shard(0, 2, make_result(), attempts=1)
        state = load_resume_state(path, "fp-1")
        assert not state.dropped_tail
        assert set(state.results) == {(0, 0), (0, 1), (0, 2)}
        assert state.attempts[(0, 1)] == 2
        assert compact_journal(path).records_in == 3


class TestCompaction:
    def test_keeps_one_latest_record_per_shard(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path, "fp-1") as journal:
            journal.append_shard(0, 0, make_result(loss=1), attempts=1)
            journal.append_shard(0, 1, make_result(), attempts=1)
            journal.append_shard(0, 0, make_result(loss=9), attempts=2)
        stats = compact_journal(path)
        assert stats.records_in == 3
        assert stats.records_out == 2
        assert stats.duplicates_dropped == 1
        # Replay still sees the latest record for the duplicated shard.
        state = load_resume_state(path, "fp-1")
        assert state.results[(0, 0)].data_failures == 2 * 9
        assert state.attempts[(0, 0)] == 2

    def test_quarantine_records_dropped(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path, "fp-1") as journal:
            journal.append_shard(0, 0, make_result(), attempts=1)
            journal.append_quarantine(0, 1, attempts=3, reason="poison")
        stats = compact_journal(path)
        assert stats.quarantine_dropped == 1
        assert stats.records_out == 1
        assert load_resume_state(path, "fp-1").quarantine_records == 0

    def test_other_fingerprints_survive(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path, "fp-old") as journal:
            journal.append_shard(0, 0, make_result("old"), attempts=1)
        with CheckpointJournal(path, "fp-new") as journal:
            journal.append_shard(0, 0, make_result("new"), attempts=1)
        stats = compact_journal(path)
        # Distinct fingerprints are distinct shards; neither is a duplicate.
        assert stats.records_out == 2
        assert load_resume_state(path, "fp-old").results[(0, 0)].label == "old"
        assert load_resume_state(path, "fp-new").results[(0, 0)].label == "new"

    def test_torn_tail_discarded_and_reported(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path, "fp-1") as journal:
            journal.append_shard(0, 0, make_result(), attempts=1)
            journal.append_shard(0, 1, make_result(), attempts=1)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        stats = compact_journal(path)
        assert stats.torn_tail_dropped
        assert stats.records_out == 1
        state = load_resume_state(path, "fp-1")
        assert set(state.results) == {(0, 0)}
        assert not state.dropped_tail  # the torn line is physically gone now

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path, "fp-1") as journal:
            journal.append_shard(0, 0, make_result(), attempts=1)
            journal.append_shard(0, 1, make_result(), attempts=1)
        lines = path.read_text().splitlines()
        path.write_text(lines[0][: len(lines[0]) // 2] + "\n" + lines[1] + "\n")
        with pytest.raises(CheckpointError):
            compact_journal(path)
        # The journal must be untouched when compaction refuses to run.
        assert path.read_text().splitlines()[1] == lines[1]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            compact_journal(tmp_path / "nope.jsonl")

    def test_compacted_journal_still_resumes_a_real_run(self, tmp_path):
        """End-to-end: duplicate by re-running, compact, resume from it."""
        path = tmp_path / "ck.jsonl"
        plan = make_plan()
        first = run_plan(plan, jobs=1, checkpoint=path)
        run_plan(plan, jobs=1, checkpoint=path)  # no resume: journals again
        stats = compact_journal(path)
        assert stats.duplicates_dropped == plan.shard_count()
        assert stats.records_out == plan.shard_count()
        resumed = run_plan(plan, jobs=1, checkpoint=path, resume=True)
        assert resumed.execution.shards_resumed == plan.shard_count()
        assert resumed.summary() == first.summary()


class TestPlanFingerprint:
    def test_stable_across_instances(self):
        assert make_plan().fingerprint() == make_plan().fingerprint()

    def test_sensitive_to_every_knob(self):
        base = make_plan().fingerprint()
        assert make_plan(faults=5).fingerprint() != base
        assert make_plan(base_seed=10).fingerprint() != base
        assert make_plan(shard_faults=1).fingerprint() != base
        assert make_plan(spec=WorkloadSpec(wss_bytes=2 * GIB)).fingerprint() != base

    def test_batch_fingerprint_covers_order(self):
        a, b = make_plan(base_seed=1), make_plan(base_seed=2)
        assert plans_fingerprint([a, b]) != plans_fingerprint([b, a])
        assert plans_fingerprint([a]) != plans_fingerprint([a, a])

    def test_sensitive_to_device_config(self):
        from repro.ssd.device import SsdConfig

        base = make_plan(device=SsdConfig()).fingerprint()
        tweaked = make_plan(device=SsdConfig(cache_capacity_pages=7)).fingerprint()
        assert tweaked != base

    def test_sensitive_to_plan_class(self):
        """Two plans with identical fields but different run_shard code must
        never share a checkpoint/CAS key (the subclass overrides results)."""

        class ImpostorPlan(CampaignPlan):
            pass

        fields = dict(
            spec=WorkloadSpec(wss_bytes=1 * GIB), faults=4, base_seed=9,
            shard_faults=2,
        )
        assert CampaignPlan(**fields).fingerprint() != ImpostorPlan(
            **fields
        ).fingerprint()


class TestResultSchemaVersion:
    def test_stable(self):
        assert result_schema_version() == result_schema_version()
        assert len(result_schema_version()) == 8

    def test_tracks_cycle_fields(self):
        """The version is derived from the live field list — simulate a
        codec that grew a field and check the version moves."""
        import dataclasses
        from unittest import mock

        import repro.engine.checkpoint as checkpoint

        grown = dataclasses.make_dataclass(
            "FaultCycleResult",
            [(f.name, f.type) for f in dataclasses.fields(FaultCycleResult)]
            + [("new_counter", int)],
        )
        before = result_schema_version()
        with mock.patch.object(checkpoint, "FaultCycleResult", grown):
            assert result_schema_version() != before
        assert result_schema_version() == before
