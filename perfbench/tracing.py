"""Span tracing of the ``repro`` layers from outside the program.

Nothing here edits ``src/``.  A :class:`Patcher` swaps functions on
modules and classes for wrappers and puts every original object back on
``restore``.  Two sets of hooks use it:

- :class:`Ledger` (installed on every run, traced or not): a hook on the
  constructors of the classes that keep work counters, and one on
  ``CampaignResult.add_cycle``, the per-cycle boundary all plan types
  share.  At each boundary it adds up how far every live instance's
  counters moved.  It costs one call per object built and one per cycle.
- :class:`LayerTracer` (traced run only): a span around every public
  function and method of each layer package, around every kernel callback
  (belonging to the package that defines the callback), and around every
  ``Process`` resume (belonging to the package of the generator it
  resumes).

A layer is a ``repro`` package; its self time is the time its spans are
open minus the time their child spans cover.  The :class:`SpanRecorder`
folds each span into per-name totals as it closes, so memory stays at the
depth of the call stack instead of one record per call (a traced
``randwrite_4k`` cycle closes about 615 000 spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
import weakref
from types import FunctionType, ModuleType
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "sim",
    "host",
    "trace",
    "workload",
    "ssd",
    "cache",
    "ftl",
    "nand",
    "power",
    "core",
    "topology",
    "raid",
    "fs",
    "apps",
    "engine",
)
"""The ``repro`` packages traced as layers.  Time in other packages and
top-level modules (``rand``, ``units``, ``nvme``, ``stress``, ...) counts
to the layer that called them."""

COUNTED = {
    "repro.ssd.device.SsdDevice": ("commands_ok", "commands_errored"),
    "repro.host.block_layer.BlockLayer": ("timed_out",),
    "repro.cache.dram.WriteCache": ("read_hits", "read_misses", "coalesces", "inserts"),
    "repro.ftl.ftl.Ftl": ("host_pages_written", "journal_pages_written"),
    "repro.ftl.gc.GarbageCollector": ("pages_relocated",),
    "repro.nand.chip.FlashChip": (
        "programs_committed",
        "reads_served",
        "erases_committed",
        "uncorrectable_reads",
    ),
    "repro.raid.mirror.MirrorPair": ("repaired_pages",),
}
"""Classes whose instance counters the ledger adds up, by qualified name."""


def layer_of(module_name: Optional[str]) -> Optional[str]:
    """The layer a ``repro`` module belongs to, or None."""
    if not module_name:
        return None
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


def _resolve(qualified: str):
    module_name, _, class_name = qualified.rpartition(".")
    return getattr(importlib.import_module(module_name), class_name)


class Patcher:
    """Replaces attributes and remembers the originals."""

    def __init__(self) -> None:
        self.patched: List[Tuple[object, str, object]] = []

    def replace(self, owner, name: str, value) -> None:
        self.patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self.patched:
            owner, name, original = self.patched.pop()
            setattr(owner, name, original)


class Ledger:
    """Per-cycle work counts from instance counters, without per-IO hooks.

    An instance is held strongly from its construction to the next cycle
    boundary (so a platform built and dropped inside one cycle is still
    counted) and weakly after that.  ``marks`` holds the clock reading at
    each boundary.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, int] = {}
        self.marks: List[int] = []
        self._fresh: List[Tuple[object, Tuple[str, ...]]] = []
        self._seen: Dict[int, Tuple[weakref.ref, Tuple[str, ...], List[int]]] = {}

    def install(self, patcher: Patcher) -> None:
        from repro.core.results import CampaignResult

        for qualified, fields in COUNTED.items():
            cls = _resolve(qualified)
            prefix = cls.__name__
            keyed = tuple(f"{prefix}.{field}" for field in fields)
            patcher.replace(cls, "__init__", self._registering(cls.__init__, keyed))
        patcher.replace(CampaignResult, "add_cycle", self._boundary(CampaignResult.add_cycle))

    def _registering(self, init, keyed: Tuple[str, ...]):
        fresh = self._fresh

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            fresh.append((obj, keyed))

        return __init__

    def _boundary(self, add_cycle):
        @functools.wraps(add_cycle)
        def wrapped(result, cycle):
            add_cycle(result, cycle)
            self.marks.append(time.perf_counter_ns())
            self.harvest()

        return wrapped

    def harvest(self) -> None:
        """Add every instance's counter movement since the last harvest."""
        totals = self.totals
        seen = self._seen
        for obj, keyed in self._fresh:
            entry = seen.get(id(obj))
            if entry is None or entry[0]() is not obj:
                seen[id(obj)] = (weakref.ref(obj), keyed, [0] * len(keyed))
        self._fresh.clear()
        dead = []
        for key, (ref, keyed, last) in seen.items():
            obj = ref()
            if obj is None:
                dead.append(key)
                continue
            for index, name in enumerate(keyed):
                value = getattr(obj, name.rpartition(".")[2])
                totals[name] = totals.get(name, 0) + value - last[index]
                last[index] = value
        for key in dead:
            del seen[key]

    def total(self, name: str) -> int:
        return self.totals.get(name, 0)

    @property
    def cycles(self) -> int:
        return len(self.marks)


class SpanRecorder:
    """Folds nested spans into per-name count, inclusive and self time.

    A span's self time is its duration minus the time its direct children
    cover.  Spans come from one thread and nest strictly (each closes
    before its parent), so the children of a span never overlap and their
    cover is the sum of their durations.  ``root`` collects the time
    covered by spans that have no parent.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.root = [0, 0]  # [start, covered]
        self._stack = [self.root]
        self.stats: Dict[str, List] = {}

    def stat(self, name: str, layer: Optional[str]) -> List:
        """The running totals ``[layer, count, inclusive, self]`` of one name."""
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [layer, 0, 0, 0]
        return entry

    def enter(self) -> List[int]:
        frame = [self.clock(), 0]
        self._stack.append(frame)
        return frame

    def leave(self, frame: List[int], stat: List) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        stat[1] += 1
        stat[2] += duration
        stat[3] += duration - frame[1]
        stack[-1][1] += duration

    def self_ns_by_layer(self) -> Dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for layer, _, _, self_ns in self.stats.values():
            if layer in out:
                out[layer] += self_ns
        return out

    def top_level_ns(self) -> int:
        return self.root[1]


def span_wrapper(recorder: SpanRecorder, fn, stat: List):
    enter, leave = recorder.enter, recorder.leave

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = enter()
        try:
            return fn(*args, **kwargs)
        finally:
            leave(frame, stat)

    return traced


def _generator_like(fn) -> bool:
    return inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn) or inspect.isasyncgenfunction(fn)


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


class LayerTracer:
    """Spans around the public surface of every layer package."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.cancels = 0
        self.records_read = 0
        self.pages_checked = 0
        self._code_stats: Dict[object, Optional[List]] = {}
        self._file_layers: Dict[str, Optional[str]] = {}

    # -- discovery ---------------------------------------------------------------

    @staticmethod
    def layer_modules():
        modules = []
        for layer in LAYERS:
            package = importlib.import_module(f"repro.{layer}")
            modules.append(package)
            for info in pkgutil.walk_packages(package.__path__, f"repro.{layer}."):
                modules.append(importlib.import_module(info.name))
        return modules

    def _targets(self, modules):
        """``(owner, attribute, function, kind, span name)`` of each public callable."""
        for module in modules:
            for name, obj in list(vars(module).items()):
                if isinstance(obj, FunctionType):
                    if obj.__module__ == module.__name__ and _public(name) and not _generator_like(obj):
                        yield module, name, obj, None, f"{module.__name__}.{name}"
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    for attr, raw in list(vars(obj).items()):
                        if not _public(attr):
                            continue
                        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
                        fn = raw.__func__ if kind is not None else raw
                        if (
                            isinstance(fn, FunctionType)
                            and fn.__module__.startswith("repro")
                            and not _generator_like(fn)
                        ):
                            yield obj, attr, fn, kind, f"{module.__name__}.{obj.__qualname__}.{attr}"

    # -- installation ------------------------------------------------------------

    def install(self, patcher: Patcher) -> None:
        from repro.core.analyzer import Analyzer
        from repro.sim.kernel import Event, Kernel
        from repro.sim.process import Process
        from repro.trace.blktrace import BlockTracer

        modules = self.layer_modules()
        self._file_layers = {
            m.__file__: layer_of(m.__name__) for m in modules if getattr(m, "__file__", None)
        }
        special = {
            (Kernel, "schedule_at"): self._schedule_at,
            (Event, "cancel"): self._cancel,
            (BlockTracer, "events"): self._counting_reads,
            (BlockTracer, "events_for"): self._counting_reads,
            (Analyzer, "verify_cycle"): self._counting_pages,
        }
        wrapped: Dict[int, Tuple[FunctionType, object]] = {}
        for owner, attr, fn, kind, name in self._targets(modules):
            stat = self.recorder.stat(name, layer_of(name))
            wrapper = span_wrapper(self.recorder, fn, stat)
            extra = special.get((owner, attr))
            if extra is not None:
                wrapper = extra(wrapper)
            if kind is not None:
                patcher.replace(owner, attr, kind(wrapper))
            else:
                patcher.replace(owner, attr, wrapper)
                if isinstance(owner, ModuleType):
                    wrapped[id(fn)] = (fn, wrapper)
        for attr in ("_advance", "_throw_interrupt"):
            patcher.replace(Process, attr, self._resume(vars(Process)[attr]))
        # Functions imported by name into other modules.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj and vars(module)[name] is not hit[1]:
                    patcher.replace(module, name, hit[1])

    # -- special spans and counts --------------------------------------------------

    def _schedule_at(self, traced_schedule_at):
        callback_span = self._callback_span

        @functools.wraps(traced_schedule_at)
        def schedule_at(kernel, time_us, callback, *args):
            return traced_schedule_at(kernel, time_us, callback_span(callback), *args)

        return schedule_at

    def _callback_span(self, callback):
        from repro.sim.process import Process

        if isinstance(getattr(callback, "__self__", None), Process):
            return callback  # the resume span covers it
        code = getattr(getattr(callback, "__func__", callback), "__code__", None)
        stat = self._code_stat("callback", code) if code is not None else None
        if stat is None:
            return callback
        return span_wrapper(self.recorder, callback, stat)

    def _code_stat(self, kind: str, code) -> Optional[List]:
        """Totals for spans running ``code``, keyed by the code object so
        that the closures built per request share one entry; None when the
        code lies outside the layers."""
        try:
            return self._code_stats[code]
        except KeyError:
            layer = self._file_layers.get(code.co_filename)
            stat = None
            if layer is not None:
                stat = self.recorder.stat(f"{kind} {layer}:{code.co_qualname}", layer)
            self._code_stats[code] = stat
            return stat

    def _cancel(self, traced_cancel):
        tracer = self

        @functools.wraps(traced_cancel)
        def cancel(event):
            if event.pending:
                tracer.cancels += 1
            return traced_cancel(event)

        return cancel

    def _counting_reads(self, traced_read):
        tracer = self

        @functools.wraps(traced_read)
        def read(*args, **kwargs):
            records = traced_read(*args, **kwargs)
            if isinstance(records, list):
                tracer.records_read += len(records)
                return records
            return tracer._counted(records)

        return read

    def _counting_pages(self, traced_verify):
        tracer = self

        @functools.wraps(traced_verify)
        def verify_cycle(*args, **kwargs):
            outcome = traced_verify(*args, **kwargs)
            tracer.pages_checked += outcome.pages_checked
            return outcome

        return verify_cycle

    def _counted(self, records):
        for record in records:
            self.records_read += 1
            yield record

    def _resume(self, step):
        recorder = self.recorder
        code_stat = self._code_stat
        unattributed = recorder.stat("resume outside the layers", None)

        @functools.wraps(step)
        def resume(process, *args):
            stat = code_stat("resume", process._gen.gi_code) or unattributed
            frame = recorder.enter()
            try:
                return step(process, *args)
            finally:
                recorder.leave(frame, stat)

        return resume
