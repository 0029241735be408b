"""Asyncio building blocks of the coordinator server.

The one coordinator server is :class:`~repro.engine.serve.CampaignService`;
it multiplexes every connection on one asyncio event loop, whether it runs
as the ``repro serve`` daemon or embedded for ``run_plans(listen=...)``
(:class:`~repro.engine.remote.RemoteExecutor`).  This module holds the
parts that do not depend on how submissions arrive:

- :func:`read_frame` / :func:`write_frame` — the asyncio frame codec.
  Byte-for-byte the protocol of :func:`repro.engine.wire.send_frame` /
  :func:`~repro.engine.wire.recv_frame`, so a worker cannot tell which
  pump it is talking to.
- :class:`CoordinatorCore` — the lease/retry/checkpoint state machine for
  one plan batch.  Single-threaded by construction: every method runs on
  the owning event loop, so it needs no locks.
- :func:`pump_worker_frames` — the per-connection conversation loop
  (request → shard/wait/shutdown, heartbeat, result/failure), run after
  the endpoint-specific handshake.

The service owns one core per active submission and adds fair-share
scheduling, plus (when it has a result CAS) cached results and trace
followers on top.  Whatever a core transition raises — a journal write
hitting ENOSPC, say — fails that submission; only errors on the worker's
stream count as connection damage.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.checkpoint import CheckpointJournal, result_from_record
from repro.engine.executors import ShardKey, ShardTask
from repro.engine.progress import EngineTelemetry
from repro.engine.supervisor import RetryPolicy, ShardRun
from repro.engine.wire import (
    _HEADER,
    decode_frame_body,
    encode_frame,
    MAX_FRAME_BYTES,
)
from repro.errors import RemoteProtocolError, ShardFailureError

SWEEP_INTERVAL_CAP_S = 0.25
"""Upper bound on the lease-sweeper period (also bounds stop latency)."""


# -- frame codec (asyncio streams) --------------------------------------------------


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict]:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise RemoteProtocolError(
            f"connection closed mid-frame ({len(exc.partial)}/{_HEADER.size} bytes)"
        ) from exc
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise RemoteProtocolError(
            f"declared frame of {length} bytes exceeds limit {MAX_FRAME_BYTES}"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise RemoteProtocolError(
            "connection closed between header and payload"
        ) from exc
    return decode_frame_body(body)


async def write_frame(writer: asyncio.StreamWriter, payload: Dict) -> None:
    """Serialize one JSON frame onto the stream (length-prefixed)."""
    writer.write(encode_frame(payload))
    await writer.drain()


# -- lease ledger -------------------------------------------------------------------


@dataclass
class Lease:
    """One shard's claim by one worker connection."""

    worker: str
    conn_id: int
    attempt: int
    granted_mono: float
    deadline_mono: float


class CoordinatorCore:
    """Lease, retry, quarantine and checkpoint state for one plan batch.

    The scheduling behaviour is exactly the blocking coordinator's:
    shards lease in task order, heartbeats move the lease deadline, a
    dropped connection or expired lease requeues the shard charged one
    attempt, and retries follow the campaign's
    :class:`~repro.engine.supervisor.RetryPolicy` backoff.  Completed
    shards journal (when a journal is attached) *before* they are
    reported finished, preserving the write-ahead ordering ``--resume``
    depends on.

    Not thread-safe on purpose — every call must come from the owning
    event loop.  Completion fan-out happens through two callbacks:
    ``on_done(key, run)`` fires for every shard that reaches a terminal
    state (completed or quarantined), ``on_fatal(exc)`` fires when a
    shard exhausts its budget with quarantine disabled.  After a fatal,
    grants turn into ``shutdown`` frames so workers drain cleanly.
    """

    def __init__(
        self,
        tasks: Sequence[ShardTask],
        policy: RetryPolicy,
        telemetry: EngineTelemetry,
        journal: Optional[CheckpointJournal] = None,
        quarantine_enabled: bool = False,
        shard_timeout_s: Optional[float] = None,
        lease_timeout_s: float = 15.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy
        self.telemetry = telemetry
        self.journal = journal
        self.quarantine_enabled = quarantine_enabled
        self.shard_timeout_s = shard_timeout_s
        self.lease_timeout_s = max(0.1, lease_timeout_s)
        self.clock = clock
        self.order: List[ShardKey] = []
        self.by_key: Dict[ShardKey, ShardTask] = {}
        self.attempts: Dict[ShardKey, int] = {}
        self.ready: Dict[ShardKey, float] = {}
        self.ready_since: Dict[ShardKey, float] = {}
        self.leases: Dict[ShardKey, Lease] = {}
        self.done: Dict[ShardKey, ShardRun] = {}
        self.executed = 0
        self.fatal: Optional[Exception] = None
        self.on_done: Optional[Callable[[ShardKey, ShardRun], None]] = None
        self.on_fatal: Optional[Callable[[Exception], None]] = None
        now = self.clock()
        for task in tasks:
            plan_index, _plan, shard = task
            key = (plan_index, shard.index)
            self.order.append(key)
            self.by_key[key] = task
            self.attempts[key] = 1
            self.ready[key] = now
            self.ready_since[key] = now

    # -- population -----------------------------------------------------------------

    def prefill(self, key: ShardKey, run: ShardRun) -> None:
        """Mark a shard done before serving starts (resume or CAS hit).

        Prefilled shards never lease and never fire the completion
        callbacks — the owner already accounted for them.
        """
        self.ready.pop(key, None)
        self.ready_since.pop(key, None)
        self.attempts.pop(key, None)
        self.done[key] = run

    # -- queries --------------------------------------------------------------------

    @property
    def complete(self) -> bool:
        return len(self.done) >= len(self.order)

    def has_leasable(self, now: Optional[float] = None) -> bool:
        """True when a shard could be granted right now."""
        if self.fatal is not None:
            return False
        moment = self.clock() if now is None else now
        return any(
            not_before <= moment
            for key, not_before in self.ready.items()
            if key not in self.leases
        )

    # -- worker-facing transitions ----------------------------------------------------

    def grant(self, worker: str, conn_id: int) -> Dict:
        """Lease the first ready shard (task order), or say wait/shutdown."""
        if self.fatal is not None or self.complete:
            return {"kind": "shutdown"}
        now = self.clock()
        soonest: Optional[float] = None
        for key in self.order:
            if key in self.done or key in self.leases or key not in self.ready:
                continue
            not_before = self.ready[key]
            if not_before <= now:
                attempt = self.attempts[key]
                self.leases[key] = Lease(
                    worker=worker,
                    conn_id=conn_id,
                    attempt=attempt,
                    granted_mono=now,
                    deadline_mono=now + self.lease_timeout_s,
                )
                del self.ready[key]
                plan_index, plan, shard = self.by_key[key]
                self.telemetry.shard_started(
                    plan.display_label(),
                    shard.index,
                    shard.count,
                    attempt=attempt,
                    worker_pid=worker,
                )
                return {
                    "kind": "shard",
                    "plan": plan_index,
                    "shard": shard.index,
                    "attempt": attempt,
                }
            soonest = not_before if soonest is None else min(soonest, not_before)
        if soonest is not None:
            delay = min(1.0, max(0.05, soonest - now))
        else:
            delay = 0.5  # everything is leased out; check back shortly
        return {"kind": "wait", "delay_s": delay}

    def renew(self, frame: Dict, conn_id: int) -> None:
        key = (frame.get("plan"), frame.get("shard"))
        lease = self.leases.get(key)
        if lease is not None and lease.conn_id == conn_id:
            lease.deadline_mono = self.clock() + self.lease_timeout_s

    def outcome(self, frame: Dict, kind: str, worker: str, conn_id: int) -> None:
        """Apply a ``result`` or ``failure`` frame from a leased worker."""
        key = (frame.get("plan"), frame.get("shard"))
        attempt = frame.get("attempt")
        lease = self.leases.get(key)
        if lease is None or lease.conn_id != conn_id or lease.attempt != attempt:
            return  # stale outcome: the lease moved on; determinism makes it safe to drop
        del self.leases[key]
        if kind == "failure":
            self.fail_attempt(
                key, attempt, str(frame.get("error") or "worker reported failure")
            )
            return
        arrived = self.clock()
        try:
            result = result_from_record(frame.get("result"))
        except Exception as exc:
            self.fail_attempt(
                key, attempt, f"undecodable result from {worker}: {exc!r}"
            )
            return
        plan_index, plan, shard = self.by_key[key]
        label = plan.display_label()
        if self.journal is not None:
            self.journal.append_shard(
                plan_index, shard.index, result, attempt, label=label
            )
            self.telemetry.checkpoint_written(
                label,
                shard.index,
                shard.count,
                commit_lag_s=max(0.0, self.clock() - arrived),
            )
        self.telemetry.shard_finished(
            label,
            shard.index,
            shard.count,
            shard.faults,
            attempt=attempt,
            worker_pid=worker,
        )
        pickup = lease.granted_mono - self.ready_since.get(key, lease.granted_mono)
        self._record_done(
            key,
            ShardRun(
                result=result,
                attempts=attempt,
                status="completed",
                pickup_latency_s=max(0.0, pickup),
                duration_s=max(0.0, arrived - lease.granted_mono),
            ),
        )

    def release(self, conn_id: int, worker: str) -> None:
        """Requeue every shard the dropped connection was leasing."""
        for key, lease in list(self.leases.items()):
            if lease.conn_id == conn_id:
                del self.leases[key]
                self.fail_attempt(
                    key, lease.attempt, f"worker {worker} disconnected mid-shard"
                )

    def sweep(self) -> None:
        """Requeue shards whose lease expired or overran the shard timeout."""
        now = self.clock()
        for key, lease in list(self.leases.items()):
            if now > lease.deadline_mono:
                reason = (
                    f"lease expired: no heartbeat from {lease.worker} "
                    f"within {self.lease_timeout_s:g}s"
                )
            elif (
                self.shard_timeout_s is not None
                and now - lease.granted_mono > self.shard_timeout_s
            ):
                reason = (
                    f"timeout: no result from {lease.worker} "
                    f"{self.shard_timeout_s:g}s after lease"
                )
            else:
                continue
            del self.leases[key]
            self.fail_attempt(key, lease.attempt, reason)

    # -- internal transitions ---------------------------------------------------------

    def fail_attempt(self, key: ShardKey, attempt: int, reason: str) -> None:
        """Charge one failed attempt: backoff-retry, quarantine, or fatal."""
        if key in self.done or self.attempts.get(key) != attempt:
            return  # stale: a newer attempt already superseded this one
        plan_index, plan, shard = self.by_key[key]
        label = plan.display_label()
        if attempt >= self.policy.max_attempts:
            if self.journal is not None:
                self.journal.append_quarantine(plan_index, shard.index, attempt, reason)
            self.telemetry.shard_quarantined(
                label, shard.index, shard.count, reason, attempt=attempt
            )
            if not self.quarantine_enabled:
                exc = ShardFailureError(
                    f"shard {label}#s{shard.index} failed after {attempt} attempts "
                    f"({reason}); enable quarantine to complete degraded campaigns"
                )
                self.fatal = exc
                if self.on_fatal is not None:
                    self.on_fatal(exc)
                return
            self._record_done(
                key,
                ShardRun(
                    result=None, attempts=attempt, status="quarantined", error=reason
                ),
            )
            return
        self.telemetry.shard_retried(
            label, shard.index, shard.count, reason, attempt=attempt
        )
        now = self.clock()
        self.attempts[key] = attempt + 1
        self.ready[key] = now + self.policy.backoff_s(shard.seed, attempt)
        self.ready_since[key] = now

    def _record_done(self, key: ShardKey, run: ShardRun) -> None:
        self.done[key] = run
        if run.status == "completed":
            self.executed += 1
        if self.on_done is not None:
            self.on_done(key, run)


# -- shared connection pump ---------------------------------------------------------


class WorkerGate:
    """What a worker connection needs from its coordinator after handshake.

    The campaign service's submissions implement it (``serve._Submission``):
    grants pass the service's fair-share check, and every verb reaches the
    submission's :class:`CoordinatorCore` through a guard that turns a
    failing store into a failed submission.
    """

    def grant(self, worker: str, conn_id: int) -> Dict:
        raise NotImplementedError

    def renew(self, frame: Dict, conn_id: int) -> None:
        raise NotImplementedError

    def outcome(self, frame: Dict, kind: str, worker: str, conn_id: int) -> None:
        raise NotImplementedError

    def release(self, conn_id: int, worker: str) -> None:
        raise NotImplementedError


async def pump_worker_frames(
    gate: WorkerGate,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    worker: str,
) -> None:
    """Serve one post-handshake worker conversation until EOF.

    The caller owns handshake, exception policy and closing the writer;
    leases held by the connection are always released on the way out.
    """
    conn_id = id(writer)
    try:
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return
            kind = frame["kind"]
            if kind == "request":
                await write_frame(writer, gate.grant(worker, conn_id))
            elif kind == "heartbeat":
                gate.renew(frame, conn_id)
            elif kind in ("result", "failure"):
                gate.outcome(frame, kind, worker, conn_id)
            else:
                raise RemoteProtocolError(
                    f"unexpected frame kind {kind!r} from {worker}"
                )
    finally:
        gate.release(conn_id, worker)


def sweep_interval_s(lease_timeout_s: float) -> float:
    """How often a coordinator should sweep leases for expiry."""
    return min(SWEEP_INTERVAL_CAP_S, max(0.01, lease_timeout_s / 4.0))
