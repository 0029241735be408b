"""Flash array state machine with interruptible operations.

The chip tracks per-page state in an
:class:`~repro.nand.pagestore.ArrayPageStore` (flat per-block columns) and
exposes two API layers:

**Event API** (``begin_program`` / ``begin_erase``): each operation occupies
its die for the device-accurate latency and fires a completion callback.
Used by unit tests, examples, and the FTL's journal/GC machinery.

**Immediate API** (``commit_program_now`` / ``program_pages`` /
``apply_interruption``): the write-cache flusher batches page programs for
speed and calls these primitives itself, telling the chip which pages
committed before a power fault and which were caught mid-ISPP.  Both layers
share the same corruption physics.

Every random draw lives here, in fixed per-page order; the store only
holds state.

Supply awareness: the chip reads its rail through ``voltage_source`` (wired
to the PSU by the SSD device).  Programs that commit on a sagging rail store
degraded *quality* and elevated raw-bit-error counts — this is how the PSU
discharge phase (the paper's novelty) reaches the stored data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import AddressError, DeviceUnavailableError, ProtocolError
from repro.nand.cell import CellKind
from repro.nand.corruption import CorruptionModel
from repro.nand.ecc import EccScheme
from repro.nand.geometry import NandGeometry
from repro.nand.pagestore import (
    STATE_CORRUPT,
    STATE_ERASED,
    STATE_VALID,
    ArrayPageStore,
)
from repro.nand.timing import NandTiming
from repro.sim.kernel import Event, Kernel
from repro.sim.resources import Resource


class PageState(enum.Enum):
    """Stored state of one physical page."""

    ERASED = "erased"
    VALID = "valid"
    CORRUPT = "corrupt"


_STATE_ENUM = {
    STATE_ERASED: PageState.ERASED,
    STATE_VALID: PageState.VALID,
    STATE_CORRUPT: PageState.CORRUPT,
}


class PageRecord:
    """Detached per-page snapshot (the seed's storage record, now a value).

    Live page state is viewed through :class:`PageRecordView`; this class
    remains as the snapshot type returned by ``chip.pages.pop``.
    """

    __slots__ = ("state", "token", "raw_error_bits", "quality")

    def __init__(
        self,
        state: PageState,
        token: Optional[int],
        raw_error_bits: int = 0,
        quality: float = 1.0,
    ) -> None:
        self.state = state
        self.token = token
        self.raw_error_bits = raw_error_bits
        self.quality = quality

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PageRecord {self.state.value} token={self.token}"
            f" err={self.raw_error_bits} q={self.quality:.2f}>"
        )


class PageRecordView:
    """Live view of one written page, backed by the store's columns.

    Attribute reads and writes go straight through to the store, so tests
    and forensics tooling can keep poking ``chip.pages[ppa].raw_error_bits``
    exactly as they did when pages were dict-of-object.
    """

    __slots__ = ("_store", "_ppa")

    def __init__(self, store: ArrayPageStore, ppa: int) -> None:
        self._store = store
        self._ppa = ppa

    @property
    def state(self) -> PageState:
        return _STATE_ENUM[self._store.state_of(self._ppa)]

    @property
    def token(self) -> Optional[int]:
        entry = self._store.entry(self._ppa)
        if entry is None or entry[0] != STATE_VALID:
            return None
        return entry[1]

    @property
    def raw_error_bits(self) -> int:
        entry = self._store.entry(self._ppa)
        return 0 if entry is None else entry[2]

    @raw_error_bits.setter
    def raw_error_bits(self, value: int) -> None:
        self._store.set_error_bits(self._ppa, value)

    @property
    def quality(self) -> float:
        entry = self._store.entry(self._ppa)
        return 1.0 if entry is None else entry[3]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PageRecordView ppa={self._ppa} {self.state.value}"
            f" token={self.token} err={self.raw_error_bits}>"
        )


class PageTable:
    """Dict-like facade over the page store (``chip.pages``).

    Mirrors the seed's ``Dict[int, PageRecord]`` surface — absent means
    erased — for tests, examples, and forensics tooling.  Iteration order is
    ascending PPA.  Not a hot-path interface: the chip itself talks to the
    store's primitives directly.
    """

    __slots__ = ("_store",)

    def __init__(self, store: ArrayPageStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return self._store.written_count()

    def __contains__(self, ppa: int) -> bool:
        return self._store.state_of(ppa) != STATE_ERASED

    def __getitem__(self, ppa: int) -> PageRecordView:
        if self._store.state_of(ppa) == STATE_ERASED:
            raise KeyError(ppa)
        return PageRecordView(self._store, ppa)

    def get(self, ppa: int, default=None):
        if self._store.state_of(ppa) == STATE_ERASED:
            return default
        return PageRecordView(self._store, ppa)

    def __setitem__(self, ppa: int, record: PageRecord) -> None:
        if record.state is PageState.VALID:
            self._store.program(
                ppa, record.token or 0, record.raw_error_bits, record.quality
            )
        elif record.state is PageState.CORRUPT:
            self._store.corrupt(ppa)
        else:
            self._store.discard(ppa)

    def pop(self, ppa: int, *default) -> Optional[PageRecord]:
        entry = self._store.entry(ppa)
        if entry is None:
            if default:
                return default[0]
            raise KeyError(ppa)
        self._store.discard(ppa)
        state, token, err, quality = entry
        return PageRecord(
            _STATE_ENUM[state],
            token if state == STATE_VALID else None,
            err,
            quality,
        )

    def __iter__(self) -> Iterator[int]:
        for ppa, *_ in self._store.iter_entries():
            yield ppa

    keys = __iter__

    def values(self) -> Iterator[PageRecordView]:
        store = self._store
        for ppa, *_ in store.iter_entries():
            yield PageRecordView(store, ppa)

    def items(self) -> Iterator[Tuple[int, PageRecordView]]:
        store = self._store
        for ppa, *_ in store.iter_entries():
            yield ppa, PageRecordView(store, ppa)


@dataclass
class ReadResult:
    """Outcome of a page read."""

    ppa: int
    state: PageState
    token: Optional[int]
    correctable: bool
    raw_error_bits: int = 0

    @property
    def ok(self) -> bool:
        """True when valid data decoded cleanly."""
        return self.state is PageState.VALID and self.correctable


@dataclass
class ProgramOp:
    """An in-flight page program (event API)."""

    ppa: int
    token: int
    start_us: int
    end_us: int
    on_done: Optional[Callable[["ProgramOp"], None]] = None
    event: Optional[Event] = None
    committed: bool = False

    def progress_at(self, now: int) -> float:
        """ISPP progress fraction in [0, 1] at time ``now``."""
        if self.end_us <= self.start_us:
            return 1.0
        return min(1.0, max(0.0, (now - self.start_us) / (self.end_us - self.start_us)))


@dataclass
class EraseOp:
    """An in-flight block erase (event API)."""

    block: int
    start_us: int
    end_us: int
    on_done: Optional[Callable[["EraseOp"], None]] = None
    event: Optional[Event] = None
    committed: bool = False


@dataclass
class PowerLossReport:
    """What a power-loss event did to the array."""

    interrupted_programs: List[int] = field(default_factory=list)
    corrupted_pages: List[int] = field(default_factory=list)
    collateral_pages: List[int] = field(default_factory=list)
    interrupted_erase_blocks: List[int] = field(default_factory=list)

    @property
    def total_damage(self) -> int:
        """Pages losing data (direct + collateral)."""
        return len(self.corrupted_pages) + len(self.collateral_pages)


class FlashChip:
    """The NAND array of one device.

    Example
    -------
    >>> from repro.sim import Kernel
    >>> from random import Random
    >>> k = Kernel()
    >>> chip = FlashChip(k, NandGeometry(blocks_per_plane=8), rng=Random(1))
    >>> chip.commit_program_now(ppa=0, token=101)
    >>> chip.read_page(0).token
    101
    """

    def __init__(
        self,
        kernel: Kernel,
        geometry: NandGeometry,
        cell: CellKind = CellKind.MLC,
        timing: Optional[NandTiming] = None,
        ecc: Optional[EccScheme] = None,
        corruption: Optional[CorruptionModel] = None,
        rng: Optional[Random] = None,
        voltage_source: Optional[Callable[[], float]] = None,
    ) -> None:
        self.kernel = kernel
        self.geometry = geometry
        self.cell = cell
        self.timing = timing if timing is not None else NandTiming()
        self.ecc = ecc if ecc is not None else EccScheme.bch()
        self.corruption = corruption if corruption is not None else CorruptionModel()
        self.rng = rng if rng is not None else Random(0)
        self.voltage_source = voltage_source if voltage_source is not None else (lambda: 5.0)
        self.powered = True
        self.store = ArrayPageStore(geometry)
        self.pages = PageTable(self.store)
        self.active_programs: List[ProgramOp] = []
        self.active_erases: List[EraseOp] = []
        self._die_resources: Dict[int, Resource] = {}
        self._block_reads: Dict[int, int] = {}
        # Statistics.
        self.programs_committed = 0
        self.reads_served = 0
        self.erases_committed = 0
        self.uncorrectable_reads = 0
        self.disturb_events = 0
        self.read_retries = 0

    # -- reliability-physics knobs (read disturb / retention, §II mechanisms) --

    READ_DISTURB_INTERVAL = 10_000
    """Block reads between disturb events (pass-voltage stress accumulates)."""

    READ_DISTURB_BITS = 4
    """Raw error bits one disturb event adds to a victim page."""

    RETENTION_BITS_PER_HOUR_SLC = 0.002
    """Charge-leakage error growth per hour for SLC at nominal quality
    (healthy pages survive years; marginal pages decay ~10x faster)."""

    # -- validation helpers ----------------------------------------------------------

    def _check_ppa(self, ppa: int) -> None:
        if not 0 <= ppa < self.geometry.total_pages:
            raise AddressError(f"PPA {ppa} outside array of {self.geometry.total_pages}")

    def _check_powered(self) -> None:
        if not self.powered:
            raise DeviceUnavailableError("flash array is unpowered")

    def _die_resource(self, ppa: int) -> Resource:
        die = self.geometry.die_of(ppa)
        resource = self._die_resources.get(die)
        if resource is None:
            resource = Resource(self.kernel, capacity=1, name=f"die{die}")
            self._die_resources[die] = resource
        return resource

    # -- immediate API (used by the batching flusher) -----------------------------------

    def commit_program_now(self, ppa: int, token: int, volts: Optional[float] = None) -> None:
        """Commit a page program.

        ``volts`` is the rail voltage at the (possibly earlier) instant the
        ISPP train actually finished — the batching flusher passes the value
        the PSU waveform had at the page's planned commit time, so pages that
        completed inside the discharge window store degraded quality even
        though the bookkeeping runs at power-loss time.  ``None`` samples the
        live rail.
        """
        self._check_powered()
        self._check_ppa(ppa)
        if self.store.state_of(ppa) == STATE_VALID:
            raise ProtocolError(f"program of non-erased page {ppa} (no in-place update)")
        if volts is None:
            volts = self.voltage_source()
        quality = self.corruption.program_quality(volts)
        if quality >= 1.0:
            # Nominal-rail fast path: the base error draw is cheap but this
            # is the hottest call in campaigns, so short-circuit the gauss.
            mean = self.corruption.base_error_bits * self.cell.raw_bit_error_scale
            raw_bits = max(0, round(self.rng.gauss(mean, mean**0.5)))
        else:
            raw_bits = self.corruption.sample_error_bits(self.rng, self.cell, quality)
        self.store.program(ppa, token, raw_bits, quality)
        self.programs_committed += 1

    def program_pages(
        self,
        ppas: Sequence[int],
        tokens: Sequence[int],
        volts: Union[None, float, Sequence[Optional[float]]] = None,
    ) -> None:
        """Bulk page commit: same physics, checks, and RNG order as calling
        :meth:`commit_program_now` once per page, with the per-page attribute
        chases hoisted out of the loop.

        ``volts`` is ``None`` (sample the live rail per page), one voltage
        for the whole batch, or a per-page sequence (entries may be ``None``).
        """
        self._check_powered()
        store = self.store
        state_of = store.state_of
        program = store.program
        corruption = self.corruption
        program_quality = corruption.program_quality
        gauss = self.rng.gauss
        total_pages = self.geometry.total_pages
        mean = corruption.base_error_bits * self.cell.raw_bit_error_scale
        sigma = mean**0.5
        if volts is None or isinstance(volts, (int, float)):
            volts_seq: Sequence[Optional[float]] = [volts] * len(ppas)
        else:
            volts_seq = volts
        committed = 0
        try:
            for ppa, token, page_volts in zip(ppas, tokens, volts_seq):
                if not 0 <= ppa < total_pages:
                    raise AddressError(f"PPA {ppa} outside array of {total_pages}")
                if state_of(ppa) == STATE_VALID:
                    raise ProtocolError(
                        f"program of non-erased page {ppa} (no in-place update)"
                    )
                if page_volts is None:
                    page_volts = self.voltage_source()
                quality = program_quality(page_volts)
                if quality >= 1.0:
                    raw_bits = round(gauss(mean, sigma))
                    program(ppa, token, raw_bits if raw_bits > 0 else 0, quality)
                else:
                    raw_bits = corruption.sample_error_bits(self.rng, self.cell, quality)
                    program(ppa, token, raw_bits, quality)
                committed += 1
        finally:
            self.programs_committed += committed

    def apply_interruption(self, ppa: int, progress: float, token: int) -> PowerLossReport:
        """Resolve a program caught mid-ISPP by a power collapse.

        Returns a report naming the page (if destroyed) and any collateral
        earlier-sibling pages on the same wordline.
        """
        self._check_ppa(ppa)
        report = PowerLossReport(interrupted_programs=[ppa])
        if self.corruption.interrupted_program_corrupts(self.rng, progress):
            self.store.corrupt(ppa)
            report.corrupted_pages.append(ppa)
        elif progress >= self.corruption.program_survival_progress:
            # The final verify pulses were confirmatory; page committed, but
            # at whatever quality the sagging rail allowed.
            quality = self.corruption.program_quality(self.voltage_source())
            raw_bits = self.corruption.sample_error_bits(self.rng, self.cell, quality)
            self.store.program(ppa, token, raw_bits, quality)
            self.programs_committed += 1
        # else: the page retains a mostly-erased level; treated as still erased.
        page_in_block = self.geometry.page_in_block(ppa)
        block_base = ppa - page_in_block
        for sibling in self.corruption.collateral_pages(self.rng, self.cell, page_in_block):
            sibling_ppa = block_base + sibling
            if self.store.corrupt_if_valid(sibling_ppa):
                report.collateral_pages.append(sibling_ppa)
        return report

    def apply_interruption_batch(
        self, interruptions: Sequence[Tuple[int, float, int]]
    ) -> PowerLossReport:
        """Resolve several torn programs, merging their damage reports.

        ``interruptions`` is ``(ppa, progress, token)`` per page; pages are
        resolved in input order (RNG draw order is per page, as the
        single-page calls would be).
        """
        report = PowerLossReport()
        for ppa, progress, token in interruptions:
            sub = self.apply_interruption(ppa, progress, token)
            report.interrupted_programs.extend(sub.interrupted_programs)
            report.corrupted_pages.extend(sub.corrupted_pages)
            report.collateral_pages.extend(sub.collateral_pages)
        return report

    # -- event API -------------------------------------------------------------------

    def begin_program(
        self,
        ppa: int,
        token: int,
        on_done: Optional[Callable[[ProgramOp], None]] = None,
    ) -> ProgramOp:
        """Start a full-latency page program occupying the owning die."""
        self._check_powered()
        self._check_ppa(ppa)
        duration = self.timing.page_write_us(self.cell, self.geometry.page_size)
        op = ProgramOp(
            ppa=ppa,
            token=token,
            start_us=self.kernel.now,
            end_us=self.kernel.now + duration,
            on_done=on_done,
        )
        self.active_programs.append(op)
        resource = self._die_resource(ppa)

        def run() -> None:
            # Die acquired; (re)base timing on the actual start instant.
            op.start_us = self.kernel.now
            op.end_us = self.kernel.now + duration
            op.event = self.kernel.schedule(duration, finish)

        def finish() -> None:
            op.event = None
            op.committed = True
            self.active_programs.remove(op)
            self.commit_program_now(op.ppa, op.token)
            resource.release()
            if op.on_done is not None:
                op.on_done(op)

        resource.acquire(run)
        return op

    def begin_erase(
        self,
        block: int,
        on_done: Optional[Callable[[EraseOp], None]] = None,
    ) -> EraseOp:
        """Start a full-latency block erase occupying the owning die."""
        self._check_powered()
        if not 0 <= block < self.geometry.blocks:
            raise AddressError(f"block {block} outside array")
        duration = self.timing.erase_us
        op = EraseOp(
            block=block,
            start_us=self.kernel.now,
            end_us=self.kernel.now + duration,
            on_done=on_done,
        )
        self.active_erases.append(op)
        resource = self._die_resource(self.geometry.first_page_of_block(block))

        def run() -> None:
            op.start_us = self.kernel.now
            op.end_us = self.kernel.now + duration
            op.event = self.kernel.schedule(duration, finish)

        def finish() -> None:
            op.event = None
            op.committed = True
            self.active_erases.remove(op)
            self.erase_block_now(block)
            resource.release()
            if op.on_done is not None:
                op.on_done(op)

        resource.acquire(run)
        return op

    def erase_block_now(self, block: int) -> None:
        """Erase a block at the current instant."""
        self._check_powered()
        if not 0 <= block < self.geometry.blocks:
            raise AddressError(f"block {block} outside array")
        self.store.erase_block(block)
        self.erases_committed += 1

    # -- reads -----------------------------------------------------------------------

    def read_page(self, ppa: int) -> ReadResult:
        """Read one page (state access; latency is the caller's concern)."""
        self._check_powered()
        self._check_ppa(ppa)
        self.reads_served += 1
        self._apply_read_disturb(ppa)
        entry = self.store.entry(ppa)
        if entry is None:
            return ReadResult(ppa, PageState.ERASED, None, correctable=True)
        state, token, raw_error_bits, _ = entry
        if state == STATE_CORRUPT:
            self.uncorrectable_reads += 1
            return ReadResult(ppa, PageState.CORRUPT, None, correctable=False)
        correctable = self.ecc.can_correct(raw_error_bits)
        if not correctable:
            # Firmware escalation: re-read with re-centred references.
            if self.ecc.can_correct_with_retry(raw_error_bits):
                correctable = True
                self.read_retries += 1
        if not correctable:
            self.uncorrectable_reads += 1
        return ReadResult(
            ppa,
            PageState.VALID,
            token if correctable else None,
            correctable=correctable,
            raw_error_bits=raw_error_bits,
        )

    def _apply_read_disturb(self, ppa: int) -> None:
        """Accumulate pass-voltage stress on the block being read.

        Every :data:`READ_DISTURB_INTERVAL` reads of a block, one random
        written page of that block gains raw error bits — the read-disturb
        mechanism the paper's related work (Cai et al., Grupp et al.)
        characterises.  Cheap: one dict increment per read.
        """
        block = self.geometry.block_of(ppa)
        count = self._block_reads.get(block, 0) + 1
        self._block_reads[block] = count
        if count % self.READ_DISTURB_INTERVAL:
            return
        base = self.geometry.first_page_of_block(block)
        victim = base + self.rng.randrange(self.geometry.pages_per_block)
        bits = round(self.READ_DISTURB_BITS * self.cell.raw_bit_error_scale)
        if self.store.add_error_bits_if_valid(victim, bits):
            self.disturb_events += 1

    def age_retention(self, hours: float) -> int:
        """Apply charge-leakage aging to every stored page.

        Error growth scales with the cell kind and inversely with program
        quality — a page programmed on a sagging rail (the discharge-window
        mechanism) decays much faster, so data that read fine right after
        the fault can become uncorrectable later ("a period of time which
        cannot be determined clearly", §I).  Returns pages pushed past the
        ECC budget by this aging step.
        """
        if hours < 0:
            raise ProtocolError("cannot age backwards")
        bits_per_hour = self.RETENTION_BITS_PER_HOUR_SLC * self.cell.raw_bit_error_scale
        return self.store.age_retention(bits_per_hour, hours, self.ecc.can_correct)

    def block_read_count(self, block: int) -> int:
        """Lifetime reads of one block (read-disturb bookkeeping)."""
        return self._block_reads.get(block, 0)

    def read_latency_us(self, npages: int = 1) -> int:
        """Latency of reading ``npages`` sequentially from one die."""
        return npages * self.timing.page_read_us(self.geometry.page_size)

    # -- power events ----------------------------------------------------------------

    def power_loss(self) -> PowerLossReport:
        """Rail collapsed below the logic floor: kill all in-flight work."""
        report = PowerLossReport()
        now = self.kernel.now
        for op in list(self.active_programs):
            if op.event is not None:
                op.event.cancel()
                op.event = None
            sub = self.apply_interruption(op.ppa, op.progress_at(now), op.token)
            report.interrupted_programs.extend(sub.interrupted_programs)
            report.corrupted_pages.extend(sub.corrupted_pages)
            report.collateral_pages.extend(sub.collateral_pages)
        self.active_programs.clear()
        for op in list(self.active_erases):
            if op.event is not None:
                op.event.cancel()
                op.event = None
            report.interrupted_erase_blocks.append(op.block)
            # A half-erased block: every page that still held data is now
            # electrically indeterminate.
            report.corrupted_pages.extend(self.store.corrupt_valid_in_block(op.block))
        self.active_erases.clear()
        for resource in self._die_resources.values():
            resource.reset()
        self.powered = False
        return report

    def power_on(self) -> None:
        """Restore power.  Stored charge (page records) persists."""
        self.powered = True

    # -- introspection ------------------------------------------------------------------

    def written_page_count(self) -> int:
        """Number of pages currently holding (valid or corrupt) charge."""
        return self.store.written_count()

    def valid_page_count(self) -> int:
        """Number of pages in VALID state."""
        return self.store.valid_count()

    def corrupt_page_count(self) -> int:
        """Number of pages in CORRUPT state."""
        return self.store.corrupt_count()

    def page_record(self, ppa: int) -> Optional[PageRecordView]:
        """Raw record access for tests and forensics tooling."""
        self._check_ppa(ppa)
        return self.pages.get(ppa)
