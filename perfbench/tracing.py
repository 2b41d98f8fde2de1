"""Span tracer installed around the repro layers' public functions.

The benchmark measures end-to-end metrics with no wrappers installed.  A
traced run installs :class:`Tracer` wrappers that record one span per call
(name, start, end, parent span, request id) into an in-memory list; the
per-layer metrics are the spans' *self* times — each span minus the time its
children on the same thread cover.  Nothing under ``src/`` is modified: the
wrappers replace attributes at run time and :meth:`Tracer.uninstall`
restores every original.

Functions that other modules import by name (``from repro.te.lower import
lower``) are replaced in *every* loaded ``repro`` module that binds them, so
a caller holding its own reference cannot bypass the tracer.  Lazy
generators (descriptor emission, batch iteration) are timed per ``next()``
call, so the consumer's own work between items is attributed to the
consumer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Span fields, in the order they are stored.
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread", "rid")


class Tracer:
    """Collects spans and counters while :attr:`active` is set."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: Optional[str] = None) -> Optional[list]:
        """Open a span on this thread; returns ``None`` while inactive."""
        if not self.active or getattr(self._local, "opaque", 0):
            return None
        stack = self._stack()
        span = [
            next(self._ids),
            name,
            time.perf_counter(),
            0.0,
            stack[-1][0] if stack else None,
            threading.get_ident(),
            rid,
        ]
        stack.append(span)
        return span

    def end(self, span: Optional[list]) -> None:
        if span is None:
            return
        span[3] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def count(self, name: str, value: float = 1.0) -> None:
        if self.active:
            self.counts[name] += value

    def sample(self, name: str, value: float) -> None:
        if self.active:
            self.samples[name].append(value)

    # -- wrappers ---------------------------------------------------------
    def wrap(self, name: str, func: Callable, rid: Optional[Callable] = None,
             on_result: Optional[Callable] = None, opaque: bool = False) -> Callable:
        """``func`` timed as span ``name``.

        ``rid(*args)`` derives the request id; ``on_result(result, *args)``
        records counters from the call's return value.  An ``opaque`` span
        records no spans inside it, so all of its time is its own (the
        board's trace walk is hardware time, not simulator sweep time).
        """
        tracer = self
        local = self._local

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.begin(name, rid(*args) if rid and tracer.active else None)
            if opaque and span is not None:
                local.opaque = 1
            try:
                result = func(*args, **kwargs)
            finally:
                if opaque and span is not None:
                    local.opaque = 0
                tracer.end(span)
            if on_result is not None and span is not None:
                on_result(result, *args)
            return result

        return traced

    def wrap_generator(self, name: str, func: Callable,
                       on_item: Optional[Callable] = None) -> Callable:
        """A generator function whose every ``next()`` is span ``name``."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            iterator = func(*args, **kwargs)
            while True:
                span = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    tracer.end(span)
                    return
                except BaseException:
                    tracer.end(span)
                    raise
                tracer.end(span)
                if on_item is not None and span is not None:
                    on_item(item)
                yield item

        return traced

    def patch_method(self, owner: type, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` (a class attribute) with ``wrapper``."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch_function(self, original: Callable, wrapper: Callable) -> int:
        """Replace ``original`` wherever a loaded ``repro`` module binds it."""
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    replaced += 1
        if not replaced:
            raise RuntimeError(f"no loaded module binds {original!r}")
        return replaced

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[4] is not None:
                child_time[span[4]] += span[3] - span[2]
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[1]] += (span[3] - span[2]) - child_time[span[0]]
        return dict(totals)

    def durations(self, name: str) -> List[float]:
        """Wall durations of every span called ``name``, in seconds."""
        return [span[3] - span[2] for span in self.spans if span[1] == name]

    def fired(self) -> set:
        return {span[1] for span in self.spans}

    def covered_seconds(self, windows: Sequence[Tuple[float, float]]) -> float:
        """Time inside ``windows`` during which at least one span was open."""
        intervals = sorted((span[2], span[3]) for span in self.spans)
        merged: List[List[float]] = []
        for start, end in intervals:
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        covered = 0.0
        for w_start, w_end in windows:
            for start, end in merged:
                covered += max(0.0, min(end, w_end) - max(start, w_start))
        return covered

    def dump(self, path) -> None:
        """Write the spans and counters as JSON (once, at the end of a run)."""
        payload = {
            "fields": SPAN_FIELDS,
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _arena_bytes(arena) -> int:
    return int(sum(
        getattr(arena, field).nbytes
        for field in (
            "chunk_meta", "batch_meta", "bases", "counts", "first_pos", "grids",
            "explicit_addresses", "explicit_writes", "explicit_positions",
        )
    ))


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are measured around."""
    from repro.autotune.builder import LocalBuilder
    from repro.autotune.runner import SimulatorRunner
    from repro.autotune.sketch.auto_scheduler import SketchPolicy
    from repro.codegen import codegen, program
    from repro.hardware.board import TargetBoard
    from repro.predictor.training import ScorePredictor
    from repro.service.client import ServiceClient
    from repro.service.server import SimulationService
    from repro.service.store import ResultStore
    from repro.sim.cpu import AtomicSimpleCPU
    from repro.sim.hierarchy import CacheHierarchy
    from repro.sim.simulator import BatchSimulator, SimulationResult

    # Importing these binds the names the wrappers must reach.
    import repro.pipeline  # noqa: F401
    import repro.service  # noqa: F401
    import repro.sim  # noqa: F401

    wrap, count = tracer.wrap, tracer.count

    te_lower = importlib.import_module("repro.te.lower").lower
    tracer.patch_function(te_lower, wrap("te.lower", te_lower))
    tracer.patch_function(
        codegen.build_program, wrap("codegen.build", codegen.build_program)
    )
    tracer.patch_function(
        program.pack_descriptor_arena,
        wrap(
            "codegen.pack",
            program.pack_descriptor_arena,
            on_result=lambda arena, *a: count("codegen.pack_bytes", _arena_bytes(arena)),
        ),
    )

    Program = program.Program
    tracer.patch_method(
        Program, "instruction_counts",
        wrap("codegen.instr_count", Program.instruction_counts),
    )
    tracer.patch_method(
        Program, "content_digest", wrap("codegen.digest", Program.content_digest)
    )
    tracer.patch_method(
        Program, "memory_trace_descriptors",
        tracer.wrap_generator(
            "codegen.emit", Program.memory_trace_descriptors,
            on_item=lambda chunk: count("codegen.emit_chunks"),
        ),
    )

    tracer.patch_method(LocalBuilder, "build", wrap("autotune.build", LocalBuilder.build))
    tracer.patch_method(
        SketchPolicy, "build_candidates",
        wrap("autotune.build", SketchPolicy.build_candidates),
    )

    for attr in ("access_data_descriptor_stream", "access_data_descriptor_arena"):
        tracer.patch_method(
            CacheHierarchy, attr, wrap("sim.sweep", getattr(CacheHierarchy, attr))
        )
    tracer.patch_method(
        AtomicSimpleCPU, "assemble_stats",
        wrap(
            "sim.stats", AtomicSimpleCPU.assemble_stats,
            on_result=lambda stats, cpu, counts, accesses, *a: count(
                "sim.accesses", accesses
            ),
        ),
    )
    tracer.patch_method(
        BatchSimulator, "iter_batch",
        tracer.wrap_generator(
            "sim.batch", BatchSimulator.iter_batch,
            on_item=lambda outcome: count("sim.batch_candidates"),
        ),
    )
    tracer.patch_method(BatchSimulator, "run_batch", wrap("sim.batch", BatchSimulator.run_batch))

    tracer.patch_method(SimulatorRunner, "run", wrap("autotune.runner", SimulatorRunner.run))
    make_score = ScorePredictor.score_function

    def score_function(self, *args, **kwargs):
        return wrap("autotune.score", make_score(self, *args, **kwargs))

    tracer.patch_method(ScorePredictor, "score_function", score_function)
    tracer.patch_method(ScorePredictor, "fit", wrap("predictor.fit", ScorePredictor.fit))

    tracer.patch_method(
        TargetBoard, "measure", wrap("hardware.measure", TargetBoard.measure, opaque=True)
    )
    characterize = TargetBoard.characterize

    @functools.wraps(characterize)
    def counted_characterize(self, measured):
        # Inside the opaque measure span: a counter, not a span.
        stats = characterize(self, measured)
        count("hardware.measure_accesses", stats["_meta"]["trace_accesses"])
        return stats

    tracer.patch_method(TargetBoard, "characterize", counted_characterize)

    def client_outcome(outcome, *args):
        if isinstance(outcome, SimulationResult):
            kind = "hit" if outcome.cached else "miss"
            tracer.sample(f"service.{kind}_rtt", outcome.host_seconds)

    tracer.patch_method(
        ServiceClient, "simulate",
        wrap("service.client", ServiceClient.simulate, on_result=client_outcome),
    )
    tracer.patch_method(
        SimulationService, "handle_simulate",
        wrap("service.handle", SimulationService.handle_simulate),
    )
    # Store calls run on the server's and the worker's threads; the digest
    # they carry is the request id that ties them to one simulation.
    for attr in ("get", "put"):
        name = f"service.store_{attr}"
        tracer.patch_method(
            ResultStore, attr,
            wrap(
                name, getattr(ResultStore, attr), rid=lambda store, digest, *a: digest,
                on_result=functools.partial(_count_call, tracer, f"{name}_calls"),
            ),
        )


def _count_call(tracer: Tracer, name: str, *_args) -> None:
    tracer.count(name)
