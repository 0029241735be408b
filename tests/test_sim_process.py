"""Tests for generator-based processes, signals, and interruption."""

import pytest

from repro.errors import SimulationError
from repro.sim import Kernel, Process, Signal, Timeout
from repro.sim.process import TIMED_OUT, Interrupted, all_of


class TestBasicProcess:
    def test_sequential_delays(self):
        k = Kernel()
        log = []

        def worker():
            log.append(k.now)
            yield 100
            log.append(k.now)
            yield 50
            log.append(k.now)

        Process(k, worker())
        k.run()
        assert log == [0, 100, 150]

    def test_result_captured(self):
        k = Kernel()

        def worker():
            yield 10
            return "done"

        p = Process(k, worker())
        k.run()
        assert not p.alive
        assert p.result == "done"

    def test_done_signal_fires(self):
        k = Kernel()
        observed = []

        def worker():
            yield 10

        def watcher(proc):
            payload = yield proc.done_signal
            observed.append((k.now, payload))

        p = Process(k, worker())
        Process(k, watcher(p))
        k.run()
        assert observed == [(10, None)]

    def test_negative_yield_crashes(self):
        k = Kernel()

        def worker():
            yield -5

        Process(k, worker())
        with pytest.raises(SimulationError):
            k.run()

    def test_bad_yield_type_crashes(self):
        k = Kernel()

        def worker():
            yield "nope"

        Process(k, worker())
        with pytest.raises(SimulationError):
            k.run()


class TestSignals:
    def test_signal_wakes_all_waiters(self):
        k = Kernel()
        sig = Signal(k, "go")
        woken = []

        def waiter(tag):
            payload = yield sig
            woken.append((tag, payload, k.now))

        Process(k, waiter("a"))
        Process(k, waiter("b"))
        k.schedule(40, sig.fire, "payload")
        k.run()
        assert woken == [("a", "payload", 40), ("b", "payload", 40)]

    def test_fire_returns_waiter_count(self):
        k = Kernel()
        sig = Signal(k)

        def waiter():
            yield sig

        Process(k, waiter())
        k.run()
        assert sig.waiter_count() == 1
        assert sig.fire() == 1
        assert sig.waiter_count() == 0

    def test_fire_with_no_waiters_is_noop(self):
        k = Kernel()
        sig = Signal(k)
        assert sig.fire() == 0


class TestTimeout:
    def test_timeout_wins_when_signal_silent(self):
        k = Kernel()
        sig = Signal(k)
        out = []

        def waiter():
            result = yield Timeout(sig, 100)
            out.append((result is TIMED_OUT, k.now))

        Process(k, waiter())
        k.run()
        assert out == [(True, 100)]

    def test_signal_wins_when_fired_first(self):
        k = Kernel()
        sig = Signal(k)
        out = []

        def waiter():
            result = yield Timeout(sig, 100)
            out.append((result, k.now))

        Process(k, waiter())
        k.schedule(30, sig.fire, "early")
        while not out:
            assert k.step()
        assert out == [("early", 30)]
        # The t=100 deadline is still in the heap, cancelled, so it cannot
        # wake the process a second time.
        assert [(time, event.cancelled) for time, _, event in k._heap] == [(100, True)]
        assert k.pending_count() == 0
        k.run()
        assert out == [("early", 30)]


class TestInterruption:
    def test_interrupt_raises_inside_generator(self):
        k = Kernel()
        seen = []

        def worker():
            try:
                yield 1_000
            except Interrupted as exc:
                seen.append(exc.cause)

        p = Process(k, worker())
        k.schedule(100, p.interrupt, "power-loss")
        k.run()
        assert seen == ["power-loss"]
        assert not p.alive

    def test_interrupt_can_be_survived(self):
        k = Kernel()
        log = []

        def worker():
            try:
                yield 1_000
            except Interrupted:
                log.append(("interrupted", k.now))
            yield 50
            log.append(("resumed", k.now))

        p = Process(k, worker())
        k.schedule(100, p.interrupt)
        k.run()
        assert log == [("interrupted", 100), ("resumed", 150)]

    def test_interrupt_dead_process_returns_false(self):
        k = Kernel()

        def worker():
            yield 1

        p = Process(k, worker())
        k.run()
        assert p.interrupt() is False

    def test_kill_stops_without_running_body(self):
        k = Kernel()
        log = []

        def worker():
            yield 1_000
            log.append("never")

        p = Process(k, worker())
        k.run(until=10)
        p.kill()
        k.run()
        assert log == []
        assert not p.alive


class TestAllOf:
    def test_gate_fires_after_last(self):
        k = Kernel()

        def worker(delay):
            yield delay

        procs = [Process(k, worker(d)) for d in (10, 50, 30)]
        gate = all_of(k, procs)
        fired_at = []

        def waiter():
            yield gate
            fired_at.append(k.now)

        Process(k, waiter())
        k.run()
        assert fired_at == [50]

    def test_gate_with_no_processes_fires_immediately(self):
        k = Kernel()
        gate = all_of(k, [])
        fired = []

        def waiter():
            yield gate
            fired.append(k.now)

        Process(k, waiter())
        k.run()
        assert fired == [0]
