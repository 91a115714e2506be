"""In-memory spans around calls into the simulator's public layers.

The traced run wraps public functions and methods of :mod:`repro`
from the outside (nothing under ``src/`` changes), records one span
per call — name, start, end, parent, iteration and thread — and keeps
them in memory until the run ends.  :func:`reconcile` turns the spans
of each iteration into per-layer self times that add up to the
iteration's wall time, and raises :class:`DoubleCount` when a child
span is not contained in its parent or overlaps a sibling.

Spans opened on other threads than the iteration's own (fabric thread
workers, HTTP handler threads) have no parent on the iteration's
thread.  They count as layer *busy* time, which may exceed wall time
when threads overlap, and are kept out of the wall-time reconciliation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Tolerance for span containment checks (perf_counter granularity).
EPSILON_S = 1e-6

#: The root span of each timed iteration.
ROOT = "iteration"


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    iteration: Optional[int]
    thread: int
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class DoubleCount(RuntimeError):
    """Spans that would count the same interval twice."""


class Tracer:
    """Collects spans; :meth:`instrument` patches the layers it times."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.iteration: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(
            name, time.perf_counter(), 0.0,
            stack[-1] if stack else None,
            self.iteration, threading.get_ident(),
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, count: int = 0) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.count = count
        popped = self._stack().pop()
        if popped != index:
            raise DoubleCount(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    @contextlib.contextmanager
    def iteration_span(self, iteration: int) -> Iterator[None]:
        self.iteration = iteration
        try:
            with self.span(ROOT):
                yield
        finally:
            self.iteration = None

    # -- instrumentation -----------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: "str | Callable[..., str]",
        count: Optional[Callable[..., int]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is the span name or a function of the call's
        arguments returning it; ``count(result, *args, **kwargs)``
        gives the span's work count.
        """
        # ``__dict__``, not ``getattr``: wrap the function defined on
        # ``owner`` itself, never one it inherits.
        original = vars(owner)[attr]
        if not callable(original):
            raise TypeError(f"cannot wrap {attr}: not a plain function")

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args)
            index = self.open(label)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self.close(
                    index,
                    count(result, *args, **kwargs) if count else 0,
                )

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def instrument(self) -> None:
        """Wrap the public entry points of every measured layer."""
        from repro.experiment import runner
        from repro.experiment.cache import TraceCache
        from repro.experiment.results import ResultSet
        from repro.fabric.coordinator import FabricCoordinator
        from repro.protocols.base import CoherenceProtocol
        from repro.protocols.directory import DirectoryProtocol
        from repro.protocols.multicast import MulticastSnoopingProtocol
        from repro.protocols.snooping import BroadcastSnoopingProtocol
        from repro.timing.system import TimingSimulator
        from repro.trace.trace import Trace
        from repro.workloads.base import WorkloadModel

        def protocol_layer(protocol, *_):
            if isinstance(protocol, DirectoryProtocol):
                return "protocols.directory"
            if isinstance(protocol, BroadcastSnoopingProtocol):
                return "protocols.snooping"
            return "protocols.multicast"

        def replayed(_result, _protocol, records, *_args, **_kwargs):
            return len(records)

        self.wrap(
            WorkloadModel, "collect", "workloads.collect",
            lambda _result, _model, *a, **k: (
                a[0] if a else k["n_references"]
            ),
        )
        self.wrap(TraceCache, "store", "experiment.cache.store")
        self.wrap(
            TraceCache, "load", "experiment.cache.load",
            lambda result, *a, **k: int(result is not None),
        )
        for method in ("derived_columns", "block_keys", "block_keys_list"):
            self.wrap(Trace, method, "trace.derive")
        self.wrap(Trace, "boxed_column", "trace.box")
        self.wrap(Trace, "split_warmup", "trace.split_warmup")
        # ``run`` replays warm-up and measured traces; the timing pass
        # replays its measured part through ``_run_columns`` directly,
        # so both are spanned (nested same-layer spans are harmless:
        # the inner one takes the time).
        self.wrap(CoherenceProtocol, "run", protocol_layer, replayed)
        self.wrap(
            CoherenceProtocol, "_run_columns", protocol_layer, replayed
        )
        self.wrap(
            MulticastSnoopingProtocol, "_run_columns", protocol_layer,
            replayed,
        )
        self.wrap(TimingSimulator, "run", "timing.run")
        # Every reassembly path (serial, threads, processes, fabric's
        # public ``normalize_records``) calls this module global.
        self.wrap(
            runner, "_normalize_runtime_records",
            "experiment.runner.normalize",
        )
        self.wrap(ResultSet, "to_json", "experiment.results.to_json")
        self.wrap(FabricCoordinator, "enqueue_missing", "fabric.enqueue")
        self.wrap(FabricCoordinator, "try_assemble", "fabric.assemble")


# ----------------------------------------------------------------------
def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part its children cover.

    Raises :class:`DoubleCount` when a child starts before its parent,
    ends after it, or overlaps an earlier sibling — any of which would
    count one interval twice.
    """
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child_index in sorted(
            children.get(index, ()), key=lambda i: spans[i].start
        ):
            child = spans[child_index]
            if child.thread != span.thread:
                raise DoubleCount(
                    f"{child.name} has a parent on another thread"
                )
            if (
                child.start < cursor - EPSILON_S
                or child.end > span.end + EPSILON_S
                or child.end < child.start
            ):
                raise DoubleCount(
                    f"{child.name} is not disjoint inside {span.name}"
                )
            covered += child.duration
            cursor = child.end
        result.append(span.duration - covered)
    return result


@dataclasses.dataclass
class IterationBreakdown:
    """One traced iteration split into layers."""

    wall_s: float
    #: Self seconds per layer on the iteration's own thread; the root's
    #: own self time is reported as ``unattributed``.
    wall_layers: Dict[str, float]
    #: Self seconds per layer on every thread (busy time).
    busy_layers: Dict[str, float]
    #: Work counts per layer, outermost span of each layer only.
    counts: Dict[str, int]
    #: Inclusive seconds per layer, outermost span of each layer only.
    inclusive: Dict[str, float]
    #: Individual span durations per layer.
    durations: Dict[str, List[float]]


UNATTRIBUTED = "unattributed"


def _layer(name: str) -> str:
    return "protocols" if name.startswith("protocols.") else name


def reconcile(tracer_spans: List[Span]) -> List[IterationBreakdown]:
    """Per-iteration breakdowns; raises if the books do not balance."""
    self_s = self_times(tracer_spans)
    by_iteration: Dict[int, List[int]] = {}
    for index, span in enumerate(tracer_spans):
        if span.iteration is not None:
            by_iteration.setdefault(span.iteration, []).append(index)
    breakdowns = []
    for iteration in sorted(by_iteration):
        indices = by_iteration[iteration]
        roots = [
            i for i in indices
            if tracer_spans[i].name == ROOT and tracer_spans[i].parent is None
        ]
        if len(roots) != 1:
            raise DoubleCount(f"iteration {iteration} has {len(roots)} roots")
        root = tracer_spans[roots[0]]
        wall_layers: Dict[str, float] = {}
        busy: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        inclusive: Dict[str, float] = {}
        durations: Dict[str, List[float]] = {}
        for i in indices:
            span = tracer_spans[i]
            name = UNATTRIBUTED if i == roots[0] else span.name
            if span.thread == root.thread:
                wall_layers[name] = wall_layers.get(name, 0.0) + self_s[i]
            busy[name] = busy.get(name, 0.0) + self_s[i]
            durations.setdefault(name, []).append(span.duration)
            parent = span.parent
            if parent is None or _layer(tracer_spans[parent].name) != (
                _layer(span.name)
            ):
                counts[name] = counts.get(name, 0) + span.count
                inclusive[name] = inclusive.get(name, 0.0) + span.duration
        total = sum(wall_layers.values())
        if abs(total - root.duration) > EPSILON_S * max(1, len(indices)):
            raise DoubleCount(
                f"iteration {iteration}: layer self times sum to "
                f"{total:.6f}s against a wall of {root.duration:.6f}s"
            )
        breakdowns.append(
            IterationBreakdown(
                root.duration, wall_layers, busy, counts, inclusive,
                durations,
            )
        )
    return breakdowns


def layer_table(breakdown: IterationBreakdown) -> str:
    """Human-readable self-time table that sums to the wall time."""
    lines = [f"  {'layer':34s} {'self s':>10s} {'share':>7s}"]
    for name, value in sorted(
        breakdown.wall_layers.items(), key=lambda item: -item[1]
    ):
        share = value / breakdown.wall_s if breakdown.wall_s else 0.0
        lines.append(f"  {name:34s} {value:10.4f} {share:7.1%}")
    lines.append(
        f"  {'= iteration wall':34s} "
        f"{sum(breakdown.wall_layers.values()):10.4f}"
    )
    off_thread = {
        name: value - breakdown.wall_layers.get(name, 0.0)
        for name, value in breakdown.busy_layers.items()
    }
    off_thread = {k: v for k, v in off_thread.items() if v > EPSILON_S}
    if off_thread:
        lines.append("  busy on other threads (not part of the wall sum):")
        for name, value in sorted(off_thread.items(), key=lambda i: -i[1]):
            lines.append(f"  {name:34s} {value:10.4f}")
    return "\n".join(lines)
