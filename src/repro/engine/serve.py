"""The coordinator server: ``repro serve`` and ``run_plans(listen=...)``.

The paper's methodology chapter describes a testbed that runs
*thousands* of power-cut campaigns across drives and firmware revisions
over weeks.  :class:`CampaignService` is that shape: one server that
accepts campaign submissions over TCP, schedules their shards across a
shared persistent worker fleet, and remembers every shard it has ever
completed.  It is also the only coordinator server in the engine, with
two entry points:

- ``repro serve`` (:func:`run_serve`) runs it as a daemon with a result
  CAS; campaigns arrive as ``submit`` frames.
- ``run_plans(listen=...)`` / ``--listen`` embeds it in the caller's
  process through :class:`~repro.engine.remote.RemoteExecutor`, with no
  CAS and exactly one campaign, added by :meth:`CampaignService.embed`
  with the caller's telemetry and checkpoint journal.

Three client roles share one listening socket, distinguished by their
first frame (the framing itself is :mod:`repro.engine.wire`'s):

``hello``
    A worker (``repro worker --connect HOST:PORT``, usually ``--persist``
    for a daemon).  Versioned, fingerprint-gated ``hello``/``welcome``,
    then the lease/heartbeat conversation of
    :func:`~repro.engine.aiocoord.pump_worker_frames` — the same for both
    entry points, so a worker cannot tell them apart.  A worker that
    connects while no campaign needs workers is held at handshake until
    one does (or the server stops and sends ``shutdown``).

``submit``
    A submitter (:func:`submit_campaign`).  Carries a plan batch; the
    service answers ``accepted`` (with the batch fingerprint and how many
    shards were served from cache), streams every engine trace event
    live, and finishes with a ``summary`` frame carrying per-shard
    results — from which the client rebuilds merged
    :class:`~repro.core.results.CampaignResult` objects through the same
    :func:`~repro.engine.supervisor.merge_plan_runs` fold the in-process
    engine uses.  Identical plan batches submitted concurrently
    **coalesce** onto one execution; each submitter gets the full event
    stream and summary.

``follow``
    A read-only observer (:func:`follow_campaign`): the event stream and
    summary of an active campaign, without submitting work.  Any number
    may attach mid-run; each replays the campaign's trace from the start
    (via :class:`~repro.engine.trace.TraceCursor`) and then tails live.

An embedded coordinator answers ``submit`` and ``follow`` with an
``error`` frame.

Store failures
--------------
Every core transition runs through :meth:`_Submission.apply`.  If a
journal append, CAS put or trace write raises, the submission fails:
``run_plans`` re-raises the error and submitters get an ``error`` frame.
Only errors on a worker's own stream are treated as a lost connection.

Result CAS
----------
Completed shards persist in a :class:`~repro.engine.cas.ResultCAS` keyed
``(plans fingerprint, plan index, shard index, seed)``.  On submission,
cached shards are prefilled as ``resumed`` runs — telemetry reports them
``shard-skipped``, workers never see them, and a resubmitted identical
campaign completes instantly with ``executed == 0`` and a bit-identical
summary.  Because the CAS lives on disk, the guarantee spans daemon
restarts.

Fair share
----------
Each active submission tracks when it last received a grant; a worker
asking for work when a *longer-starved* submission has leasable shards
is released (clean ``shutdown``) so its persist loop re-handshakes onto
that submission.  The effect is round-robin interleaving of shards
across submitters using the protocol's existing rebind mechanics instead
of new frame kinds.
"""

from __future__ import annotations

import asyncio
import socket
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.results import CampaignResult
from repro.engine.aiocoord import (
    CoordinatorCore,
    pump_worker_frames,
    read_frame,
    sweep_interval_s,
    write_frame,
)
from repro.engine.cas import ResultCAS
from repro.engine.checkpoint import (
    CheckpointJournal,
    plans_fingerprint,
    result_from_record,
    result_to_record,
)
from repro.engine.executors import ShardKey, ShardTask
from repro.engine.progress import EngineTelemetry
from repro.engine.supervisor import (
    interrupt_flag_guard,
    merge_plan_runs,
    RetryPolicy,
    ShardRun,
)
from repro.engine.trace import (
    record_from_dict,
    TRACE_VERSION,
    TraceCursor,
    TraceRecord,
    TraceWriter,
)
from repro.engine.wire import (
    connect_with_retry,
    DEFAULT_LEASE_TIMEOUT_S,
    decode_plans,
    encode_plans,
    parse_address,
    PROTOCOL_VERSION,
    recv_frame,
    send_frame,
    validate_hello,
)
from repro.errors import CampaignError, RemoteProtocolError

SUBSCRIBER_POLL_S = 0.05
"""How often a submitter/follower stream polls the campaign trace."""

BIND_POLL_S = 0.1
"""How often a worker held at handshake re-checks for a campaign."""

STOP_DRAIN_S = 2.0
"""Grace for connected workers to hang up after a stop-time shutdown frame."""

EMBEDDED_ONLY = (
    "this coordinator runs a single in-process campaign and accepts workers "
    "only; submit and follow need repro serve"
)
"""Why an embedded (``run_plans(listen=...)``) coordinator refuses clients."""


def trace_record_to_wire(record: TraceRecord) -> Dict:
    """A :class:`TraceRecord` back in its on-disk/wire dict shape.

    The key set matches :meth:`TraceWriter.write_event` exactly, so a
    streamed event frame parses with the same
    :func:`~repro.engine.trace.record_from_dict` used for trace files.
    """
    return {
        "v": TRACE_VERSION,
        "kind": record.kind,
        "plan": record.plan_label,
        "shard": record.shard_index,
        "shard_count": record.shard_count,
        "wall_time_s": record.wall_time_s,
        "mono_time_s": record.mono_time_s,
        "shards_done": record.shards_done,
        "shards_total": record.shards_total,
        "cycles_done": record.cycles_done,
        "cycles_total": record.cycles_total,
        "cycles_skipped": record.cycles_skipped,
        "elapsed_s": record.elapsed_s,
        "cycles_per_sec": record.cycles_per_sec,
        "eta_s": record.eta_s,
        "attempt": record.attempt,
        "worker_pid": record.worker_pid,
        "commit_lag_s": record.commit_lag_s,
        "detail": record.detail,
    }


# -- one coordinated plan batch ------------------------------------------------------


class _Submission:
    """One plan batch on the service's event loop: its core and its outcome.

    Every method runs on the loop.  The owner supplies the telemetry the
    core reports through and, optionally, the checkpoint journal it commits
    to: a served submission (:class:`_ServedSubmission`) brings trace-file
    telemetry, while the single campaign of ``run_plans(listen=...)``
    brings the caller's telemetry and journal.  ``settled`` is notified
    whenever a shard settles or the submission concludes, for a thread
    waiting off the loop.
    """

    def __init__(
        self,
        service: "CampaignService",
        serial: int,
        tasks: Sequence[ShardTask],
        telemetry: EngineTelemetry,
        journal: Optional[CheckpointJournal] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.service = service
        self.serial = serial
        self.tasks: List[ShardTask] = list(tasks)
        self.plans = list({index: plan for index, plan, _ in self.tasks}.values())
        self.fingerprint = fingerprint or plans_fingerprint(self.plans)
        self.plans_blob = encode_plans(self.plans)
        self.telemetry = telemetry
        self.core = CoordinatorCore(
            self.tasks,
            policy=service.policy,
            telemetry=telemetry,
            journal=journal,
            quarantine_enabled=service.quarantine_enabled,
            shard_timeout_s=service.shard_timeout_s,
            lease_timeout_s=service.lease_timeout_s,
        )
        self.core.on_done = self._note_done
        self.core.on_fatal = self.fail
        self.last_grant_tick = 0
        self.done = False
        self.failure: Optional[BaseException] = None
        self.settled = threading.Condition()

    def eligible(self) -> bool:
        """True while this submission can still use workers."""
        return not self.done and self.core.fatal is None and not self.core.complete

    # -- WorkerGate: the verbs of every worker connection bound here -----------------
    # Grants route through the service so fair share can release a worker
    # toward a starved submission.  Once the submission concludes, every
    # verb degrades to a no-op/shutdown: late frames have nowhere to go.

    def grant(self, worker: str, conn_id: int) -> Dict:
        return self.service._grant(self, worker, conn_id)

    def renew(self, frame: Dict, conn_id: int) -> None:
        self.apply(self.core.renew, frame, conn_id)

    def outcome(self, frame: Dict, kind: str, worker: str, conn_id: int) -> None:
        self.apply(self.core.outcome, frame, kind, worker, conn_id)

    def release(self, conn_id: int, worker: str) -> None:
        self.apply(self.core.release, conn_id, worker)

    def apply(self, transition, *args):
        """Run one core transition; whatever it raises fails the submission.

        A store write that fails mid-transition strands its shard (neither
        done, leased nor ready), so the campaign must fail rather than wait.
        Returns ``None`` once the submission is done.
        """
        if self.done:
            return None
        try:
            return transition(*args)
        except Exception as exc:
            self.fail(exc)
            return None

    def fail(self, exc: BaseException) -> None:
        if self.done:
            return
        self.failure = exc
        self._conclude()

    def close(self) -> None:
        """Release what the submission holds open (nothing by default)."""

    def _note_done(self, key: ShardKey, run: ShardRun) -> None:
        if self.core.complete:
            self._conclude()
        else:
            self._notify()

    def _conclude(self) -> None:
        if self.done:
            return
        self.done = True
        self.close()
        self.service._retire(self)
        self._notify()

    def _notify(self) -> None:
        with self.settled:
            self.settled.notify_all()


class _ServedSubmission(_Submission):
    """A plan batch submitted over the wire: trace, result CAS, summary.

    The trace file doubles as the fan-out medium: the telemetry hook is a
    :class:`TraceWriter` flushing every record, and each subscriber
    stream tails the file with its own :class:`TraceCursor` — a follower
    attaching mid-run replays history for free, and the on-disk trace is
    the exact stream every subscriber saw.
    """

    def __init__(
        self, service: "CampaignService", serial: int, fingerprint: str, plans: List
    ) -> None:
        tasks = [
            (plan_index, plan, shard)
            for plan_index, plan in enumerate(plans)
            for shard in plan.shards()
        ]
        # Serial-suffixed path: a resubmission after completion gets a
        # fresh trace instead of appending onto (and replaying) the old.
        self.trace_path = service.trace_dir / (
            f"{fingerprint}-{serial:04d}.trace.jsonl"
        )
        self.trace = TraceWriter(self.trace_path, flush_every=1)
        telemetry = EngineTelemetry(
            shards_total=len(tasks),
            cycles_total=sum(shard.faults for _, _, shard in tasks),
            hook=self.trace,
        )
        # The CAS is the durability story here, not a journal.
        super().__init__(service, serial, tasks, telemetry, fingerprint=fingerprint)
        self.cas_hits = 0
        self.submitters = 0
        self.summary_frame: Optional[Dict] = None
        self._plan_remaining = Counter(plan_index for plan_index, _, _ in tasks)

    def prefill_from_cas(self) -> None:
        """Serve every already-known shard from the CAS before workers do."""
        cas = self.service.cas
        for plan_index, plan, shard in self.tasks:
            result = cas.get(self.fingerprint, plan_index, shard.index, shard.seed)
            if result is None:
                continue
            key = (plan_index, shard.index)
            self.core.prefill(
                key, ShardRun(result=result, attempts=1, status="resumed")
            )
            self.cas_hits += 1
            self.telemetry.shard_skipped(
                plan.display_label(), shard.index, shard.count, shard.faults
            )
            self._shard_settled(plan_index)
        if self.core.complete:
            self._conclude()

    def close(self) -> None:
        self.trace.close()

    def _note_done(self, key: ShardKey, run: ShardRun) -> None:
        if run.status == "completed" and run.result is not None:
            plan_index, shard_index = key
            _, _plan, shard = self.core.by_key[key]
            self.service.cas.put(
                self.fingerprint, plan_index, shard_index, shard.seed, run.result
            )
        self._shard_settled(key[0])
        super()._note_done(key, run)

    def _shard_settled(self, plan_index: int) -> None:
        self._plan_remaining[plan_index] -= 1
        if self._plan_remaining[plan_index] == 0:
            plan = self.plans[plan_index]
            self.telemetry.plan_finished(plan.display_label(), plan.shard_count())

    def _conclude(self) -> None:
        if self.done:
            return
        if self.failure is None:
            self.summary_frame = self._summary()
        super()._conclude()
        outcome = (
            f"failed ({self.failure})"
            if self.failure is not None
            else (
                f"complete ({self.core.executed} executed, "
                f"{self.cas_hits} from cache)"
            )
        )
        self.service._announce(f"[serve] campaign {self.fingerprint} {outcome}")

    def _summary(self) -> Dict:
        results = []
        for plan_index, _plan, shard in self.tasks:
            run = self.core.done[(plan_index, shard.index)]
            results.append(
                {
                    "plan": plan_index,
                    "shard": shard.index,
                    "status": run.status,
                    "attempts": run.attempts,
                    "error": run.error,
                    "pickup_latency_s": run.pickup_latency_s,
                    "duration_s": run.duration_s,
                    "result": (
                        result_to_record(run.result)
                        if run.result is not None
                        else None
                    ),
                }
            )
        return {
            "kind": "summary",
            "v": PROTOCOL_VERSION,
            "fingerprint": self.fingerprint,
            "shards_total": len(self.tasks),
            "executed": self.core.executed,
            "cas_hits": self.cas_hits,
            "results": results,
        }


# -- the service --------------------------------------------------------------------


class CampaignService:
    """Multi-campaign coordinator daemon with a content-addressed cache.

    The listening socket binds in the constructor (``.address`` is known
    even for an ephemeral ``:0`` port); :meth:`serve_forever` runs the
    event loop on the calling thread, while :meth:`start`/:meth:`stop`
    run it on a background thread for embedding in tests and tools.

    With ``cas_root=None`` the service has no CAS and no trace directory:
    it coordinates only the one campaign handed to :meth:`embed` (the
    body of ``run_plans(listen=...)``) and answers ``submit``/``follow``
    clients with an ``error`` frame.
    """

    def __init__(
        self,
        listen: Union[str, Tuple[str, int]] = ("127.0.0.1", 0),
        cas_root: Optional[Union[str, Path]] = "repro-cas",
        policy: Optional[RetryPolicy] = None,
        quarantine: bool = False,
        shard_timeout_s: Optional[float] = None,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        trace_dir: Optional[Union[str, Path]] = None,
        announce=None,
    ) -> None:
        self.policy = policy if policy is not None else RetryPolicy()
        self.quarantine_enabled = quarantine
        self.shard_timeout_s = shard_timeout_s
        self.lease_timeout_s = max(0.1, lease_timeout_s)
        self.cas = ResultCAS(cas_root) if cas_root is not None else None
        if trace_dir is None and cas_root is not None:
            trace_dir = Path(cas_root) / "traces"
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.announce = announce if announce is not None else sys.stderr
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind(parse_address(listen))
        self._server.listen(32)
        self.address: Tuple[str, int] = self._server.getsockname()[:2]
        self._active: Dict[str, _Submission] = {}
        self._worker_conns: set = set()
        self._serial = 0
        self._tick = 0
        self._stopping = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self.workers_seen: List[str] = []
        self.submissions_total = 0
        self.coalesced_total = 0

    @property
    def host(self) -> str:
        return self.address[0]

    @property
    def port(self) -> int:
        return self.address[1]

    def embed(
        self,
        tasks: Sequence[ShardTask],
        telemetry: EngineTelemetry,
        journal: Optional[CheckpointJournal] = None,
    ) -> _Submission:
        """Add the single campaign of an in-process coordinator.

        Call before :meth:`start`.  The caller prefills resumed shards on
        the returned submission's core and waits on its ``settled``
        condition for results.
        """
        self._serial += 1
        submission = _Submission(self, self._serial, tasks, telemetry, journal)
        self._active[submission.fingerprint] = submission
        return submission

    # -- running --------------------------------------------------------------------

    def serve_forever(self) -> None:
        """Run the service on the calling thread until :meth:`stop`."""
        asyncio.run(self._serve_async())

    def start(self) -> None:
        """Run the service on a background thread (returns once listening)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        while self._loop is None and self._thread.is_alive():
            time.sleep(0.01)

    def stop(self) -> None:
        """Stop the service and (when started via :meth:`start`) join it."""
        loop = self._loop
        if loop is not None:

            def _stop() -> None:
                self._stopping = True
                self._stop_event.set()

            try:
                loop.call_soon_threadsafe(_stop)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    async def _serve_async(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(self._dispatch, sock=self._server)
        sweeper = asyncio.create_task(self._sweep_loop())
        if self.cas is not None:
            self._announce(
                f"[serve] campaign service listening on {self.host}:{self.port} "
                f"(cas {self.cas.root}, result schema {self.cas.schema}) — "
                f"submit with: repro submit --connect {self.host}:{self.port}"
            )
        try:
            await self._stop_event.wait()
        finally:
            sweeper.cancel()
            server.close()
            try:
                await server.wait_closed()
            except Exception:
                pass
            await self._drain_worker_conns()
            for submission in list(self._active.values()):
                submission.close()

    async def _drain_worker_conns(self) -> None:
        """Push a clean ``shutdown`` to every connected worker, then wait.

        Cancelling a worker pump mid-read slams its socket shut, and the
        worker reports a lost connection (exit code 3) instead of ending
        its persist loop cleanly.  An unsolicited shutdown frame is safe —
        the worker's next read consumes it — and lets every worker hang up
        itself; stragglers are abandoned after :data:`STOP_DRAIN_S`.
        """
        for writer in list(self._worker_conns):
            try:
                await write_frame(writer, {"kind": "shutdown"})
            except Exception:
                pass
        deadline = time.monotonic() + STOP_DRAIN_S
        while self._worker_conns and time.monotonic() < deadline:
            await asyncio.sleep(0.02)

    async def _sweep_loop(self) -> None:
        interval = sweep_interval_s(self.lease_timeout_s)
        while not self._stop_event.is_set():
            for submission in list(self._active.values()):
                if submission.eligible():
                    submission.apply(submission.core.sweep)
            try:
                await asyncio.wait_for(self._stop_event.wait(), timeout=interval)
            except asyncio.TimeoutError:
                pass

    # -- connection dispatch ----------------------------------------------------------

    async def _dispatch(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            first = await asyncio.wait_for(
                read_frame(reader), timeout=max(30.0, self.lease_timeout_s * 4)
            )
            if first is None:
                return
            kind = first["kind"]
            if kind == "hello":
                await self._serve_worker(first, reader, writer)
            elif kind in ("submit", "follow") and self.cas is None:
                await write_frame(writer, {"kind": "error", "reason": EMBEDDED_ONLY})
            elif kind == "submit":
                await self._serve_submitter(first, writer)
            elif kind == "follow":
                await self._serve_follower(first, writer)
            else:
                raise RemoteProtocolError(
                    f"expected hello/submit/follow, got {kind!r}"
                )
        except (
            RemoteProtocolError,
            OSError,
            ValueError,
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
        ):
            pass  # connection-level damage; any leases release via the pump
        except asyncio.CancelledError:
            # Only the loop teardown cancels dispatch tasks; finishing
            # cleanly here keeps the stream-protocol done-callback quiet.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    # -- workers ----------------------------------------------------------------------

    async def _serve_worker(
        self, hello: Dict, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        worker = str(hello.get("worker") or "unknown")
        held = hello.get("fingerprint")
        if hello.get("v") != PROTOCOL_VERSION:
            reason = validate_hello(hello, str(held or ""))
            await write_frame(writer, {"kind": "reject", "reason": reason})
            return
        self._worker_conns.add(writer)
        try:
            # Hold the handshake until a campaign exists for this worker:
            # a persistent fleet may well connect before the first
            # submission.
            while True:
                if self._stopping:
                    await write_frame(writer, {"kind": "shutdown"})
                    return
                submission = self._bind_choice(held)
                if submission is not None:
                    break
                await asyncio.sleep(BIND_POLL_S)
            rejection = validate_hello(hello, submission.fingerprint)
            if rejection is not None:
                await write_frame(writer, {"kind": "reject", "reason": rejection})
                return
            self.workers_seen.append(worker)
            await write_frame(
                writer,
                {
                    "kind": "welcome",
                    "v": PROTOCOL_VERSION,
                    "fingerprint": submission.fingerprint,
                    "plans": submission.plans_blob,
                    "lease_timeout_s": self.lease_timeout_s,
                    "heartbeat_s": self.lease_timeout_s / 3.0,
                },
            )
            await pump_worker_frames(submission, reader, writer, worker)
        finally:
            self._worker_conns.discard(writer)

    def _bind_choice(self, held: Optional[str]) -> Optional[_Submission]:
        """The submission a connecting worker should serve, if any.

        A worker holding the fingerprint of a live submission re-binds to
        it (the idempotent reconnect path); otherwise the longest-starved
        eligible submission wins.  A held fingerprint matching nothing
        live falls through to the fair choice, whose ``validate_hello``
        then rejects the worker as stale so its persist loop re-hydrates.
        """
        if held is not None:
            existing = self._active.get(str(held))
            if existing is not None and existing.eligible():
                return existing
        eligible = [sub for sub in self._active.values() if sub.eligible()]
        if not eligible:
            return None
        return min(eligible, key=lambda sub: (sub.last_grant_tick, sub.serial))

    def _grant(self, submission: _Submission, worker: str, conn_id: int) -> Dict:
        if self._stopping or not submission.eligible():
            return {"kind": "shutdown"}
        starved = self._fair_choice()
        if starved is not None and starved is not submission:
            # Another submitter has waited longer and has work ready:
            # release this worker so its persist loop re-binds there.
            return {"kind": "shutdown"}
        frame = submission.apply(submission.core.grant, worker, conn_id)
        if frame is None:
            return {"kind": "shutdown"}  # the grant itself failed the submission
        if frame.get("kind") == "shard":
            self._tick += 1
            submission.last_grant_tick = self._tick
        return frame

    def _fair_choice(self) -> Optional[_Submission]:
        ready = [
            sub
            for sub in self._active.values()
            if sub.eligible() and sub.core.has_leasable()
        ]
        if not ready:
            return None
        return min(ready, key=lambda sub: (sub.last_grant_tick, sub.serial))

    # -- submitters & followers --------------------------------------------------------

    async def _serve_submitter(
        self, frame: Dict, writer: asyncio.StreamWriter
    ) -> None:
        if frame.get("v") != PROTOCOL_VERSION:
            await write_frame(
                writer,
                {
                    "kind": "error",
                    "reason": (
                        f"protocol version mismatch: service speaks "
                        f"{PROTOCOL_VERSION}, submitter spoke {frame.get('v')!r}"
                    ),
                },
            )
            return
        try:
            plans = decode_plans(frame["plans"])
            fingerprint = plans_fingerprint(plans)
        except Exception as exc:
            await write_frame(
                writer,
                {"kind": "error", "reason": f"undecodable plan batch: {exc!r}"},
            )
            return
        submission = self._active.get(fingerprint)
        coalesced = submission is not None
        if submission is None:
            self._serial += 1
            submission = _ServedSubmission(self, self._serial, fingerprint, plans)
            self._active[fingerprint] = submission
            submission.apply(submission.prefill_from_cas)
            self._announce(
                f"[serve] accepted campaign {fingerprint} "
                f"({len(submission.tasks)} shard(s), "
                f"{submission.cas_hits} from cache)"
            )
        else:
            self._announce(
                f"[serve] coalesced duplicate submission onto campaign "
                f"{fingerprint}"
            )
        self.submissions_total += 1
        if coalesced:
            self.coalesced_total += 1
        submission.submitters += 1
        await write_frame(
            writer,
            {
                "kind": "accepted",
                "v": PROTOCOL_VERSION,
                "fingerprint": fingerprint,
                "shards_total": len(submission.tasks),
                "cas_hits": submission.cas_hits,
                "coalesced": coalesced,
            },
        )
        await self._stream_to(submission, writer)

    async def _serve_follower(self, frame: Dict, writer: asyncio.StreamWriter) -> None:
        wanted = frame.get("fingerprint")
        submission: Optional[_Submission] = None
        if wanted is not None:
            submission = self._active.get(str(wanted))
        elif self._active:
            # No fingerprint: follow the most recently accepted campaign.
            submission = max(self._active.values(), key=lambda sub: sub.serial)
        if submission is None:
            await write_frame(
                writer,
                {
                    "kind": "error",
                    "reason": (
                        f"no active campaign"
                        + (f" with fingerprint {wanted}" if wanted else "")
                        + " to follow"
                    ),
                },
            )
            return
        await write_frame(
            writer,
            {
                "kind": "accepted",
                "v": PROTOCOL_VERSION,
                "fingerprint": submission.fingerprint,
                "shards_total": len(submission.tasks),
                "cas_hits": submission.cas_hits,
                "coalesced": False,
            },
        )
        await self._stream_to(submission, writer)

    async def _stream_to(
        self, submission: _Submission, writer: asyncio.StreamWriter
    ) -> None:
        """Stream trace events (full history, then live) and the summary."""
        cursor = TraceCursor(submission.trace_path, live=True)
        while True:
            settled = submission.done  # read BEFORE polling: no lost tail
            records = cursor.poll()
            for record in records:
                await write_frame(
                    writer,
                    {"kind": "event", "record": trace_record_to_wire(record)},
                )
            if settled and not records:
                break
            if self._stopping:
                await write_frame(
                    writer,
                    {
                        "kind": "error",
                        "reason": "campaign service stopped before completion",
                    },
                )
                return
            await asyncio.sleep(SUBSCRIBER_POLL_S)
        if submission.failure is not None:
            await write_frame(
                writer, {"kind": "error", "reason": str(submission.failure)}
            )
        else:
            await write_frame(writer, submission.summary_frame)

    # -- bookkeeping ------------------------------------------------------------------

    def _retire(self, submission: _Submission) -> None:
        if self._active.get(submission.fingerprint) is submission:
            del self._active[submission.fingerprint]

    def _announce(self, line: str) -> None:
        if self.announce is None:
            return
        print(line, file=self.announce)
        try:
            self.announce.flush()
        except Exception:
            pass


# -- sync clients -------------------------------------------------------------------


@dataclass
class SubmissionOutcome:
    """What :func:`submit_campaign` returns: merged results + provenance."""

    results: List[CampaignResult]
    fingerprint: str
    shards_total: int
    executed: int
    cas_hits: int
    coalesced: bool
    records: List[TraceRecord] = field(default_factory=list)


def _consume_stream(sock: socket.socket, on_record) -> Dict:
    """Read event frames until the terminal ``summary`` (or raise)."""
    records_seen: List[TraceRecord] = []
    while True:
        frame = recv_frame(sock)
        if frame is None:
            raise CampaignError(
                "connection to campaign service lost before the summary"
            )
        kind = frame["kind"]
        if kind == "event":
            record = record_from_dict(frame["record"])
            records_seen.append(record)
            if on_record is not None:
                on_record(record)
            continue
        if kind == "error":
            raise CampaignError(
                str(frame.get("reason") or "campaign service reported an error")
            )
        if kind == "summary":
            frame["_records"] = records_seen
            return frame
        raise RemoteProtocolError(f"unexpected frame kind {kind!r} from service")


def submit_campaign(
    address: Union[str, Tuple[str, int]],
    plans: Sequence,
    connect_timeout_s: float = 10.0,
    on_record=None,
) -> SubmissionOutcome:
    """Submit a plan batch to a ``repro serve`` daemon and await results.

    Blocks until the service streams the campaign to completion, then
    rebuilds merged :class:`CampaignResult` objects (one per plan, plan
    order) with the same :func:`merge_plan_runs` fold ``run_plans`` uses —
    so ``submit_campaign(...).results[i].summary()`` is bit-identical to
    a local ``run_plan`` of the same plan, whether the shards executed on
    workers or came from the service's result cache.  ``on_record`` (if
    given) receives every live :class:`TraceRecord`.
    """
    plans = list(plans)
    sock = connect_with_retry(*parse_address(address), connect_timeout_s)
    try:
        send_frame(
            sock,
            {
                "kind": "submit",
                "v": PROTOCOL_VERSION,
                "plans": encode_plans(plans),
            },
        )
        accepted = recv_frame(sock)
        if accepted is None:
            raise CampaignError("campaign service closed during submission")
        if accepted["kind"] == "error":
            raise CampaignError(str(accepted.get("reason")))
        if accepted["kind"] != "accepted":
            raise RemoteProtocolError(
                f"expected accepted, got {accepted['kind']!r}"
            )
        summary = _consume_stream(sock, on_record)
    finally:
        try:
            sock.close()
        except OSError:
            pass
    runs_by_plan: Dict[int, Dict[int, ShardRun]] = {}
    for entry in summary["results"]:
        run = ShardRun(
            result=(
                result_from_record(entry["result"])
                if entry.get("result") is not None
                else None
            ),
            attempts=int(entry.get("attempts") or 1),
            status=str(entry.get("status") or "completed"),
            error=str(entry.get("error") or ""),
            pickup_latency_s=entry.get("pickup_latency_s"),
            duration_s=entry.get("duration_s"),
        )
        runs_by_plan.setdefault(int(entry["plan"]), {})[int(entry["shard"])] = run
    results: List[CampaignResult] = []
    for plan_index, plan in enumerate(plans):
        by_shard = runs_by_plan.get(plan_index, {})
        missing = [i for i in range(plan.shard_count()) if i not in by_shard]
        if missing:
            raise RemoteProtocolError(
                f"summary is missing shards {missing} of plan {plan_index}"
            )
        ordered = [by_shard[i] for i in range(plan.shard_count())]
        results.append(merge_plan_runs(plan, ordered))
    return SubmissionOutcome(
        results=results,
        fingerprint=str(summary.get("fingerprint")),
        shards_total=int(summary.get("shards_total") or 0),
        executed=int(summary.get("executed") or 0),
        cas_hits=int(summary.get("cas_hits") or 0),
        coalesced=bool(accepted.get("coalesced")),
        records=summary.get("_records") or [],
    )


def follow_campaign(
    address: Union[str, Tuple[str, int]],
    fingerprint: Optional[str] = None,
    connect_timeout_s: float = 10.0,
    on_record=None,
) -> Dict:
    """Attach to an active campaign read-only; returns its summary frame.

    Streams the campaign's full trace history, then live events, through
    ``on_record``.  Without a ``fingerprint`` the most recently accepted
    campaign is followed.  Raises :class:`CampaignError` when there is
    nothing to follow or the campaign fails.
    """
    sock = connect_with_retry(*parse_address(address), connect_timeout_s)
    try:
        send_frame(
            sock,
            {"kind": "follow", "v": PROTOCOL_VERSION, "fingerprint": fingerprint},
        )
        accepted = recv_frame(sock)
        if accepted is None:
            raise CampaignError("campaign service closed during follow")
        if accepted["kind"] == "error":
            raise CampaignError(str(accepted.get("reason")))
        if accepted["kind"] != "accepted":
            raise RemoteProtocolError(
                f"expected accepted, got {accepted['kind']!r}"
            )
        return _consume_stream(sock, on_record)
    finally:
        try:
            sock.close()
        except OSError:
            pass


# -- CLI body -----------------------------------------------------------------------


def run_serve(
    listen: Union[str, Tuple[str, int]],
    cas_root: Union[str, Path],
    lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
    quarantine: bool = False,
    shard_timeout_s: Optional[float] = None,
    max_retries: Optional[int] = None,
    announce=None,
) -> int:
    """Body of ``repro serve``: run the service until SIGINT/SIGTERM."""
    policy = RetryPolicy(max_retries=max_retries) if max_retries is not None else None
    service = CampaignService(
        listen=listen,
        cas_root=cas_root,
        policy=policy,
        quarantine=quarantine,
        shard_timeout_s=shard_timeout_s,
        lease_timeout_s=lease_timeout_s,
        announce=announce,
    )
    with interrupt_flag_guard() as flag:
        service.start()
        try:
            while not flag:
                thread = service._thread
                if thread is None or not thread.is_alive():
                    break
                time.sleep(0.2)
        finally:
            service.stop()
    service._announce(
        f"[serve] stopped ({service.submissions_total} submission(s), "
        f"cas {service.cas.stats()})"
    )
    return 0
