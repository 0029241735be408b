"""RAID-1 over two simulated SSDs with configurable power domains.

A :class:`MirrorPair` owns two complete :class:`~repro.host.system.HostSystem`
stacks sharing one simulation kernel.  ``shared_power=True`` wires both
device loads to a single PSU (one fault hits both drives — the common
single-PDU rack); ``False`` gives each drive its own PSU so faults can be
injected per-domain.

Reads are verified reads: the mirror reads both replicas and can repair a
replica whose data is missing or corrupt from the healthy one, which is how
the architecture converts "at least one replica survived" into durability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.host.block_layer import BlockRequest
from repro.host.system import HostSystem
from repro.power.controller import PowerController
from repro.rand import RandomStreams
from repro.sim import Kernel
from repro.ssd.device import SsdConfig, SsdDevice
from repro.host.block_layer import BlockLayer
from repro.units import SEC


def _contiguous_runs(offsets: List[int]):
    """Group sorted page offsets into ``(start, length)`` runs."""
    start = prev = offsets[0]
    for offset in offsets[1:]:
        if offset != prev + 1:
            yield start, prev - start + 1
            start = offset
        prev = offset
    yield start, prev - start + 1


@dataclass
class MirrorReadResult:
    """Outcome of a verified mirror read."""

    tokens: Optional[List[int]]
    healthy_replicas: int
    agreed: bool
    repaired_pages: int = 0

    @property
    def data_available(self) -> bool:
        """True when at least one replica produced the data."""
        return self.tokens is not None


class _Replica:
    """One leg of the mirror: its own power chain + device + block layer."""

    def __init__(self, kernel: Kernel, config: SsdConfig, seed: int, name: str,
                 power: Optional[PowerController] = None) -> None:
        self.kernel = kernel
        self.power = power if power is not None else PowerController(kernel)
        self.ssd = SsdDevice(
            kernel, config, self.power.psu, RandomStreams(seed).fork(name), name=name
        )
        self.block = BlockLayer(kernel, self.ssd)


class MirrorPair:
    """RAID-1 across two devices.

    Example
    -------
    >>> mirror = MirrorPair(shared_power=False, seed=5)
    >>> mirror.boot()
    >>> _ = mirror.write(0, [11, 22])
    >>> mirror.run_for_ms(100)
    >>> mirror.read_verified(0, 2).tokens
    [11, 22]
    """

    def __init__(
        self,
        config: Optional[SsdConfig] = None,
        shared_power: bool = True,
        seed: int = 0,
        kernel: Optional[Kernel] = None,
        power: Optional[PowerController] = None,
    ) -> None:
        """``kernel`` embeds the pair in an existing simulation (topology
        stacks); ``power`` wires both legs to an external shared controller
        (e.g. a rack PDU also feeding other tiers) and implies
        ``shared_power=True``."""
        if power is not None and not shared_power:
            raise ConfigurationError(
                "an external shared power controller implies shared_power=True"
            )
        self.kernel = kernel if kernel is not None else Kernel()
        self.shared_power = shared_power
        config = config or SsdConfig()
        if power is not None:
            shared: Optional[PowerController] = power
        else:
            shared = PowerController(self.kernel) if shared_power else None
        self.replicas: Tuple[_Replica, _Replica] = (
            _Replica(self.kernel, config, seed, "mirror-a", power=shared),
            _Replica(self.kernel, config, seed + 1, "mirror-b", power=shared),
        )
        # Statistics.
        self.writes_submitted = 0
        self.repairs = 0
        self.repaired_pages = 0

    # -- lifecycle ---------------------------------------------------------------------

    def _pump_until(self, predicate, timeout_us: int = 10 * SEC) -> None:
        deadline = self.kernel.now + timeout_us
        while not predicate():
            if self.kernel.now >= deadline:
                raise SimulationError("mirror operation timed out")
            next_event = self.kernel.next_event_time()
            if next_event is None:
                raise SimulationError("simulation idle during mirror operation")
            self.kernel.run(until=min(next_event, deadline))

    def boot(self) -> None:
        """Power everything on and wait for both drives."""
        seen = set()
        for replica in self.replicas:
            if id(replica.power) not in seen:
                replica.power.power_on()
                seen.add(id(replica.power))
        self._pump_until(lambda: all(r.ssd.is_ready for r in self.replicas))

    def run_for_ms(self, milliseconds: float) -> None:
        """Advance simulated time."""
        self.kernel.run(until=self.kernel.now + round(milliseconds * 1000))

    # -- IO ---------------------------------------------------------------------------

    def write(self, lpn: int, tokens: List[int]) -> List[BlockRequest]:
        """Submit the write to both replicas."""
        if not tokens:
            raise ConfigurationError("empty mirror write")
        self.writes_submitted += 1
        requests = []
        for replica in self.replicas:
            request = BlockRequest(
                lpn=lpn, page_count=len(tokens), is_write=True, tokens=list(tokens)
            )
            replica.block.submit(request)
            requests.append(request)
        return requests

    def flush(self) -> None:
        """FLUSH barrier on both replicas."""
        from repro.ssd.command import IoCommand

        done = []
        for replica in self.replicas:
            if replica.ssd.is_ready:
                replica.ssd.submit(IoCommand.flush(on_complete=done.append))
        expected = sum(1 for r in self.replicas if r.ssd.is_ready)
        self._pump_until(lambda: len(done) >= expected)

    def _peek_replica(self, replica: _Replica, lpn: int, count: int) -> Optional[List[int]]:
        if not replica.ssd.is_ready:
            return None
        tokens = []
        for offset in range(count):
            token = replica.ssd.peek(lpn + offset)
            if token is None:
                token = 0
            if token == -1:  # CORRUPT_TOKEN
                return None
            tokens.append(token)
        return tokens

    def _peek_replica_raw(self, replica: _Replica, lpn: int, count: int) -> List[int]:
        """Per-page view for repair targeting: corrupt pages surface as the
        corrupt token (-1) instead of poisoning the whole span, so a repair
        can rewrite exactly the pages that deviate."""
        tokens = []
        for offset in range(count):
            token = replica.ssd.peek(lpn + offset)
            tokens.append(0 if token is None else token)
        return tokens

    def read_verified(self, lpn: int, count: int, expected: Optional[List[int]] = None) -> MirrorReadResult:
        """Read both replicas, compare, optionally repair.

        With ``expected`` given (verification mode), a replica whose content
        deviates is counted unhealthy and repaired from a healthy one.
        """
        views = [self._peek_replica(replica, lpn, count) for replica in self.replicas]
        reference = expected
        healthy = []
        for view in views:
            if view is None:
                continue
            if reference is None or view == reference:
                healthy.append(view)
        agreed = (
            views[0] is not None and views[0] == views[1]
        )
        chosen = healthy[0] if healthy else None
        repaired = 0
        if chosen is not None:
            for replica, view in zip(self.replicas, views):
                if view == chosen or not replica.ssd.is_ready:
                    continue
                raw = self._peek_replica_raw(replica, lpn, count)
                deviating = [
                    offset for offset in range(count) if raw[offset] != chosen[offset]
                ]
                if not deviating:
                    continue
                for start, length in _contiguous_runs(deviating):
                    request = BlockRequest(
                        lpn=lpn + start,
                        page_count=length,
                        is_write=True,
                        tokens=list(chosen[start : start + length]),
                    )
                    replica.block.submit(request)
                repaired += len(deviating)
                self.repairs += 1
        self.repaired_pages += repaired
        return MirrorReadResult(
            tokens=chosen,
            healthy_replicas=len(healthy),
            agreed=agreed,
            repaired_pages=repaired,
        )

    # -- faults ------------------------------------------------------------------------

    def fault_domain(self, replica_index: Optional[int] = None) -> None:
        """Cut power: the shared domain, or one replica's own domain."""
        if self.shared_power:
            self.replicas[0].power.power_off()
            return
        if replica_index is None:
            raise ConfigurationError("independent domains need a replica index")
        self.replicas[replica_index].power.power_off()

    def restore_all(self) -> None:
        """Power every domain back on and wait for readiness."""
        seen = set()
        for replica in self.replicas:
            if id(replica.power) not in seen:
                replica.power.power_on()
                seen.add(id(replica.power))
        self._pump_until(lambda: all(r.ssd.is_ready for r in self.replicas))
