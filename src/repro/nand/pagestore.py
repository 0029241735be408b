"""Columnar page-state storage for the NAND array.

The campaign hot path reads and writes millions of per-page records; storing
each as a Python object (the seed's ``Dict[int, PageRecord]``) makes every
scan an attribute chase through the object graph.  :class:`ArrayPageStore`
keeps page state in flat per-block *columns* instead:

======== ================= =====================================
column   type              meaning
======== ================= =====================================
state    ``bytearray``     0 erased · 1 valid · 2 corrupt
token    ``array('q')``    data checksum token (valid pages)
err      ``array('q')``    raw bit-error count
quality  ``array('d')``    program quality in (0, 1]
======== ================= =====================================

Chunks are allocated lazily per erase block (the default geometry addresses
33.5M pages — a dense array per column would cost ~800 MB per shard, while a
campaign only ever touches its working set), and an erased block simply drops
its chunk.  Block-wide operations (erase, corrupt-all-valid, scans) are C
speed passes over the ``state`` bytearray rather than per-page dict probes.

The store draws no randomness and applies no policy — corruption physics and
every RNG draw stay in :class:`~repro.nand.chip.FlashChip`.  The equivalence
suite (``tests/test_pagestore_equivalence.py``) checks every primitive
against an independent dict-of-tuples oracle.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.nand.geometry import NandGeometry

STATE_ERASED = 0
STATE_VALID = 1
STATE_CORRUPT = 2

_NO_TOKEN = 0
"""Column filler for pages without data (token validity is derived from the
state column — 0 is also a legitimate stored token, e.g. the journal's)."""


class ArrayPageStore:
    """Chunked columnar page store: primitive page-state operations.

    Entries are ``(state, token, err, quality)`` tuples; ``entry`` returns
    ``None`` for erased pages.  Tokens are only meaningful for VALID pages.
    """

    def __init__(self, geometry: NandGeometry) -> None:
        self.geometry = geometry
        self._ppb = geometry.pages_per_block
        self._chunks: Dict[int, List] = {}
        self._written = 0
        self._valid = 0
        # Zero-filled column templates, copied per chunk (C-speed).
        n = self._ppb
        self._state_template = bytearray(n)
        self._token_template = array("q", bytes(8 * n))
        self._err_template = array("q", bytes(8 * n))
        self._quality_template = array("d", [1.0]) * n

    def _chunk(self, block: int) -> List:
        chunk = self._chunks.get(block)
        if chunk is None:
            chunk = [
                bytearray(self._state_template),
                array("q", self._token_template),
                array("q", self._err_template),
                array("d", self._quality_template),
            ]
            self._chunks[block] = chunk
        return chunk

    # -- single-page ops ------------------------------------------------------

    def entry(self, ppa: int) -> Optional[Tuple[int, int, int, float]]:
        chunk = self._chunks.get(ppa // self._ppb)
        if chunk is None:
            return None
        index = ppa % self._ppb
        state = chunk[0][index]
        if state == STATE_ERASED:
            return None
        return (state, chunk[1][index], chunk[2][index], chunk[3][index])

    def state_of(self, ppa: int) -> int:
        chunk = self._chunks.get(ppa // self._ppb)
        if chunk is None:
            return STATE_ERASED
        return chunk[0][ppa % self._ppb]

    def program(self, ppa: int, token: int, err: int, quality: float) -> None:
        chunk = self._chunk(ppa // self._ppb)
        index = ppa % self._ppb
        previous = chunk[0][index]
        chunk[0][index] = STATE_VALID
        chunk[1][index] = token
        chunk[2][index] = err
        chunk[3][index] = quality
        if previous == STATE_ERASED:
            self._written += 1
        self._valid += 1 if previous != STATE_VALID else 0

    def corrupt(self, ppa: int) -> None:
        chunk = self._chunk(ppa // self._ppb)
        index = ppa % self._ppb
        previous = chunk[0][index]
        chunk[0][index] = STATE_CORRUPT
        chunk[1][index] = _NO_TOKEN
        chunk[2][index] = 0
        chunk[3][index] = 1.0
        if previous == STATE_ERASED:
            self._written += 1
        elif previous == STATE_VALID:
            self._valid -= 1

    def corrupt_if_valid(self, ppa: int) -> bool:
        chunk = self._chunks.get(ppa // self._ppb)
        if chunk is None:
            return False
        index = ppa % self._ppb
        if chunk[0][index] != STATE_VALID:
            return False
        chunk[0][index] = STATE_CORRUPT
        chunk[1][index] = _NO_TOKEN
        chunk[2][index] = 0
        chunk[3][index] = 1.0
        self._valid -= 1
        return True

    def add_error_bits_if_valid(self, ppa: int, bits: int) -> bool:
        chunk = self._chunks.get(ppa // self._ppb)
        if chunk is None:
            return False
        index = ppa % self._ppb
        if chunk[0][index] != STATE_VALID:
            return False
        chunk[2][index] += bits
        return True

    def set_error_bits(self, ppa: int, bits: int) -> bool:
        chunk = self._chunks.get(ppa // self._ppb)
        if chunk is None or chunk[0][ppa % self._ppb] == STATE_ERASED:
            return False
        chunk[2][ppa % self._ppb] = bits
        return True

    def discard(self, ppa: int) -> bool:
        """Forget one page's charge (test/forensics surface, not a NAND op)."""
        chunk = self._chunks.get(ppa // self._ppb)
        if chunk is None:
            return False
        index = ppa % self._ppb
        previous = chunk[0][index]
        if previous == STATE_ERASED:
            return False
        chunk[0][index] = STATE_ERASED
        chunk[1][index] = _NO_TOKEN
        chunk[2][index] = 0
        chunk[3][index] = 1.0
        self._written -= 1
        if previous == STATE_VALID:
            self._valid -= 1
        return True

    # -- block-wide ops -------------------------------------------------------

    def erase_block(self, block: int) -> None:
        chunk = self._chunks.pop(block, None)
        if chunk is None:
            return
        state = chunk[0]
        valid = state.count(STATE_VALID)
        self._written -= valid + state.count(STATE_CORRUPT)
        self._valid -= valid

    def corrupt_valid_in_block(self, block: int) -> List[int]:
        """Corrupt every VALID page of a block; returns their PPAs ascending."""
        chunk = self._chunks.get(block)
        if chunk is None:
            return []
        state = chunk[0]
        base = block * self._ppb
        victims: List[int] = []
        index = state.find(STATE_VALID)
        while index != -1:
            state[index] = STATE_CORRUPT
            chunk[1][index] = _NO_TOKEN
            chunk[2][index] = 0
            chunk[3][index] = 1.0
            victims.append(base + index)
            index = state.find(STATE_VALID, index + 1)
        self._valid -= len(victims)
        return victims

    def scan_valid(self, block: int) -> List[int]:
        """PPAs of the block's VALID pages, ascending (C-speed scan)."""
        chunk = self._chunks.get(block)
        if chunk is None:
            return []
        state = chunk[0]
        base = block * self._ppb
        found: List[int] = []
        index = state.find(STATE_VALID)
        while index != -1:
            found.append(base + index)
            index = state.find(STATE_VALID, index + 1)
        return found

    # -- whole-array ops ------------------------------------------------------

    def iter_entries(self) -> Iterator[Tuple[int, int, int, int, float]]:
        """Yield ``(ppa, state, token, err, quality)`` for every written page,
        ascending by PPA."""
        ppb = self._ppb
        for block in sorted(self._chunks):
            chunk = self._chunks[block]
            state = chunk[0]
            base = block * ppb
            index = -1
            while True:
                index = next(
                    (i for i in range(index + 1, ppb) if state[i] != STATE_ERASED),
                    -1,
                )
                if index == -1:
                    break
                yield (
                    base + index,
                    state[index],
                    chunk[1][index],
                    chunk[2][index],
                    chunk[3][index],
                )

    def age_retention(
        self, bits_per_hour: float, hours: float, can_correct: Callable[[int], bool]
    ) -> int:
        """Grow every VALID page's error count by quality-scaled leakage.

        ``bits_per_hour`` is the nominal-quality rate; weak pages (quality
        < 1) decay up to 10x faster.  Returns pages pushed past the ECC
        budget by this aging step (same arithmetic as the seed, per page).
        """
        newly_uncorrectable = 0
        for chunk in self._chunks.values():
            state = chunk[0]
            err = chunk[2]
            quality = chunk[3]
            index = state.find(STATE_VALID)
            while index != -1:
                fragility = 1.0 + 9.0 * (1.0 - quality[index])
                grown = max(0, round(bits_per_hour * fragility * hours))
                if grown:
                    before = err[index]
                    err[index] = before + grown
                    if can_correct(before) and not can_correct(before + grown):
                        newly_uncorrectable += 1
                index = state.find(STATE_VALID, index + 1)
        return newly_uncorrectable

    def written_count(self) -> int:
        return self._written

    def valid_count(self) -> int:
        return self._valid

    def corrupt_count(self) -> int:
        return self._written - self._valid
