"""Write-ahead shard-result journal (crash-safe campaign checkpoints).

The engine applies the paper's own crash-consistency discipline to itself:
every completed shard is committed to an **append-only JSONL journal**
before the campaign moves on, so a killed multi-hour run restarts from the
last durable shard instead of from zero.  The design mirrors
:mod:`repro.ftl.journal`'s contract at the host level:

- **append-only**: records are only ever appended; a resumed run keeps
  appending to the same file (no rewrite, so there is no window in which
  the journal itself can be lost);
- **per-record checksums**: each line carries a CRC32 over its canonical
  JSON payload, so torn or bit-flipped records are detected on replay;
- **fsync on commit**: a record is flushed *and* fsync'd before the
  supervisor reports the shard finished — an acknowledged shard is a
  durable shard;
- **torn-tail tolerant replay**: a partial or checksum-failing *final*
  line (the crash-mid-append case) is silently discarded, exactly like a
  torn journal transaction; corruption anywhere before the tail raises
  :class:`~repro.errors.CheckpointError` because it means the file was
  damaged, not torn.  The next writer truncates that torn tail away
  before its first append, so it can never end up mid-file.

Records are keyed by ``(plan fingerprint, plan index, shard index)``.  The
fingerprint hashes every plan field (workload spec, device config, fault
budget, seeds, shard granularity), so a journal written for one campaign
can never leak results into a different one: mismatched records are
counted and ignored on replay.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, IO, List, Optional, Sequence, Tuple, Union

from repro.core.results import CampaignResult, FaultCycleResult
from repro.errors import CheckpointError

PathLike = Union[str, Path]
ShardKey = Tuple[int, int]

JOURNAL_VERSION = 1


# -- lossless CampaignResult codec --------------------------------------------------
#
# ``repro.analysis.export`` serialises for *plotting* (it includes derived
# summaries and may drop bookkeeping fields); the journal must round-trip
# exactly, so it walks dataclass fields — a field added to
# ``FaultCycleResult`` is carried automatically.


def result_to_record(result: CampaignResult) -> Dict:
    """JSON-safe, field-complete dump of one shard's result."""
    return {
        "label": result.label,
        "traffic_time_us": result.traffic_time_us,
        "requests_issued": result.requests_issued,
        "cycles": [
            {f.name: getattr(cycle, f.name) for f in fields(FaultCycleResult)}
            for cycle in result.cycles
        ],
    }


def result_from_record(record: Dict) -> CampaignResult:
    """Rebuild a shard result from :func:`result_to_record` output."""
    try:
        result = CampaignResult(
            label=record["label"],
            traffic_time_us=record["traffic_time_us"],
            requests_issued=record["requests_issued"],
        )
        for cycle in record["cycles"]:
            result.add_cycle(FaultCycleResult(**cycle))
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed shard result record: {exc!r}") from exc
    return result


def result_schema_version() -> str:
    """Content-derived version of the shard-result codec's field layout.

    Hashes the journal version, the record's top-level keys, and the
    sorted :class:`FaultCycleResult` field names — so adding (or renaming)
    a cycle counter bumps the version automatically, without anyone
    remembering to.  Long-lived stores (the serve daemon's CAS) stamp
    every entry with this and treat a mismatch as a miss: a record written
    by a codec with a different shape is re-executed, never silently
    decoded into wrong-shaped results.
    """
    cycle_fields = ",".join(sorted(f.name for f in fields(FaultCycleResult)))
    blob = (
        f"journal={JOURNAL_VERSION};"
        f"record=label,traffic_time_us,requests_issued,cycles;"
        f"cycle={cycle_fields}"
    )
    return f"{zlib.crc32(blob.encode('utf-8')):08x}"


# -- fingerprints -------------------------------------------------------------------


def plans_fingerprint(plans: Sequence) -> str:
    """Stable fingerprint of an ordered plan batch.

    Combines each plan's own :meth:`CampaignPlan.fingerprint`; resume is
    only valid against the byte-identical campaign definition in the same
    plan order (plan index is part of every record's key).
    """
    blob = "|".join(plan.fingerprint() for plan in plans)
    return f"{zlib.crc32(blob.encode('utf-8')):08x}-{len(plans)}"


# -- journal records ----------------------------------------------------------------


def _canonical(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def encode_line(payload: Dict) -> str:
    """One canonical-JSON journal/CAS line with its CRC32 appended."""
    crc = zlib.crc32(_canonical(payload).encode("utf-8"))
    record = dict(payload)
    record["crc"] = crc
    return _canonical(record)


def decode_line(line: str) -> Dict:
    """Parse + checksum-verify one journal line (raises on any damage)."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise CheckpointError("journal line is not an object")
    crc = record.pop("crc", None)
    if crc != zlib.crc32(_canonical(record).encode("utf-8")):
        raise CheckpointError("journal record checksum mismatch")
    return record


def open_for_append(path: Path, valid_prefix: Callable[[bytes], int]) -> IO[str]:
    """Open ``path`` for appending, first cutting off a torn tail.

    ``valid_prefix`` maps the file's current bytes to the length of the
    prefix its reader accepts.  A writer killed mid-append leaves a final
    line without its newline; appending straight after it would glue the
    next record onto the damaged line, which is then no longer the tail —
    so the *next* replay would raise instead of dropping it.  Truncating
    back to the accepted prefix first keeps every later replay clean.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    data = path.read_bytes() if path.exists() else b""
    keep = valid_prefix(data)
    if keep < len(data):
        os.truncate(path, keep)
    handle = path.open("a", encoding="utf-8")
    if keep and not data[:keep].endswith(b"\n"):
        handle.write("\n")  # an accepted final record missing its newline
    return handle


class CheckpointJournal:
    """Append-side of the shard journal (one campaign run, one writer).

    The file handle opens lazily on first commit, in append mode, so
    pointing ``--checkpoint`` at an existing journal resumes *and* extends
    it.  A torn final record left by a crashed writer is truncated away
    before the first append.  Every append is flushed and fsync'd before
    returning.
    """

    def __init__(self, path: PathLike, fingerprint: str) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.records_written = 0
        self._handle: Optional[IO[str]] = None

    def _append(self, payload: Dict) -> None:
        if self._handle is None:
            self._handle = open_for_append(self.path, _journal_valid_prefix)
        self._handle.write(encode_line(payload) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.records_written += 1

    def append_shard(
        self,
        plan_index: int,
        shard_index: int,
        result: CampaignResult,
        attempts: int,
        label: str = "",
    ) -> None:
        """Durably commit one completed shard result."""
        self._append(
            {
                "v": JOURNAL_VERSION,
                "kind": "shard",
                "fp": self.fingerprint,
                "plan": plan_index,
                "shard": shard_index,
                "attempts": attempts,
                "label": label,
                "result": result_to_record(result),
            }
        )

    def append_quarantine(
        self, plan_index: int, shard_index: int, attempts: int, reason: str
    ) -> None:
        """Record a quarantined shard (audit only — replay re-attempts it)."""
        self._append(
            {
                "v": JOURNAL_VERSION,
                "kind": "quarantine",
                "fp": self.fingerprint,
                "plan": plan_index,
                "shard": shard_index,
                "attempts": attempts,
                "reason": reason,
            }
        )

    def close(self) -> None:
        """Flush and release the file handle (appends may resume later)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- replay -------------------------------------------------------------------------


@dataclass
class _JournalScan:
    """Every record a journal replay accepts, in file order."""

    records: List[Dict]
    dropped_tail: bool
    valid_bytes: int  # length of the accepted prefix (torn tail excluded)


def _scan_journal(data: bytes, journal_path: Path) -> _JournalScan:
    """Decode a journal, tolerating a torn tail.

    A record that fails to parse or checksum is discarded if it is the
    final non-blank line (crash mid-append), and raises
    :class:`CheckpointError` otherwise.
    """
    lines = data.split(b"\n")
    while lines and not lines[-1].strip():
        lines.pop()
    records: List[Dict] = []
    valid_bytes = 0
    for index, line in enumerate(lines):
        if not line.strip():
            raise CheckpointError(f"blank journal line {index + 1} before tail")
        try:
            records.append(decode_line(line.decode("utf-8")))
        except (CheckpointError, ValueError) as exc:
            if index == len(lines) - 1:
                return _JournalScan(records, True, valid_bytes)
            raise CheckpointError(
                f"corrupt journal record at line {index + 1} of {journal_path}"
            ) from exc
        valid_bytes += len(line) + 1
    # The final record may lack its newline: do not count one for it.
    return _JournalScan(records, False, min(valid_bytes, len(data)))


def _journal_valid_prefix(data: bytes) -> int:
    """Bytes of ``data`` that replay accepts (all of it if damaged mid-file).

    Interior damage is left in place for replay to report: cutting it off
    would silently destroy the committed records after it.
    """
    try:
        return _scan_journal(data, Path("<journal>")).valid_bytes
    except CheckpointError:
        return len(data)


@dataclass
class ResumeState:
    """Everything replayed from a journal for one campaign fingerprint.

    ``results``/``attempts`` are keyed by ``(plan index, shard index)``.
    Duplicate keys keep the *latest* record (a shard re-executed by a later
    run supersedes the earlier commit).  Quarantine records are counted but
    deliberately do not mark a shard done — a resumed run gives poisoned
    shards a fresh retry budget.
    """

    results: Dict[ShardKey, CampaignResult] = field(default_factory=dict)
    attempts: Dict[ShardKey, int] = field(default_factory=dict)
    mismatched: int = 0
    quarantine_records: int = 0
    dropped_tail: bool = False

    def __len__(self) -> int:
        return len(self.results)


def load_resume_state(path: PathLike, fingerprint: str) -> ResumeState:
    """Replay a journal, tolerating a torn tail.

    A missing file is an empty state (first run).  A record that fails to
    parse or checksum is discarded if it is the final non-blank line
    (crash mid-append), and raises :class:`CheckpointError` otherwise.
    """
    state = ResumeState()
    journal_path = Path(path)
    if not journal_path.exists():
        return state
    scan = _scan_journal(journal_path.read_bytes(), journal_path)
    state.dropped_tail = scan.dropped_tail
    for record in scan.records:
        if record.get("fp") != fingerprint:
            state.mismatched += 1
            continue
        if record.get("kind") == "quarantine":
            state.quarantine_records += 1
            continue
        if record.get("kind") != "shard":
            continue
        key = (record["plan"], record["shard"])
        state.results[key] = result_from_record(record["result"])
        state.attempts[key] = int(record.get("attempts", 1))
    return state


# -- compaction ---------------------------------------------------------------------


@dataclass(frozen=True)
class CompactionStats:
    """What :func:`compact_journal` rewrote (for console reporting)."""

    records_in: int
    records_out: int
    duplicates_dropped: int
    quarantine_dropped: int
    torn_tail_dropped: bool

    @property
    def dropped(self) -> int:
        return self.records_in - self.records_out


def compact_journal(path: PathLike) -> CompactionStats:
    """Rewrite a journal to one latest record per shard, atomically.

    Journals are append-only: every resume appends fresh shard commits and
    quarantine audit records, so a long-lived journal grows without bound
    even though replay only ever uses the *latest* record per ``(plan
    fingerprint, plan index, shard index)``.  Compaction keeps exactly
    that record (records of other fingerprints are kept too — they belong
    to other campaign definitions sharing the file), drops quarantine
    records (audit-only; replay re-attempts quarantined shards
    regardless), and drops a torn final line.

    The rewrite is torn-tail-safe: the compacted journal is written to a
    sibling temp file, fsync'd, then atomically ``os.replace``d over the
    original (with a directory fsync), so a crash mid-compaction leaves
    either the old journal or the new one — never a hybrid.

    Raises :class:`~repro.errors.CheckpointError` for a missing file or
    corruption anywhere before the tail.
    """
    journal_path = Path(path)
    if not journal_path.exists():
        raise CheckpointError(f"journal not found: {journal_path}")
    scan = _scan_journal(journal_path.read_bytes(), journal_path)
    records = scan.records

    latest: Dict[Tuple, Dict] = {}
    order: Dict[Tuple, int] = {}
    quarantine_dropped = 0
    passthrough: list = []  # (position, record) for unrecognised kinds
    for position, record in enumerate(records):
        kind = record.get("kind")
        if kind == "quarantine":
            quarantine_dropped += 1
            continue
        if kind == "shard":
            key = (record.get("fp"), record.get("plan"), record.get("shard"))
            if key not in order:
                order[key] = position
            latest[key] = record
            continue
        passthrough.append((position, record))

    kept = sorted(
        [(order[key], record) for key, record in latest.items()] + passthrough
    )
    duplicates = len(records) - quarantine_dropped - len(kept)

    tmp_path = journal_path.with_name(journal_path.name + ".compact.tmp")
    with tmp_path.open("w", encoding="utf-8") as handle:
        for _, record in kept:
            handle.write(encode_line(record) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, journal_path)
    directory = os.open(journal_path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)

    return CompactionStats(
        records_in=len(records),
        records_out=len(kept),
        duplicates_dropped=duplicates,
        quarantine_dropped=quarantine_dropped,
        torn_tail_dropped=scan.dropped_tail,
    )
