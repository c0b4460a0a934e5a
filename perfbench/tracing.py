"""Layer spans recorded from outside the program under test.

:func:`install` patches each public call at a layer boundary with a
wrapper that opens a span; nothing inside ``src/`` knows about it.
Spans nest on one stack per thread.  When a span closes, its *self time*
(its duration minus the time its child spans cover) is added to its
layer, and its duration to its parent's child time; spans handed to a
worker thread (the service queue) carry their request id across.

A target that no longer exists is reported as ``missing`` instead of
failing the run, so a refactor that deletes or renames a function shows
up as a missing layer.  Its time then falls to its caller's span, so
``trace.coverage`` drops only when the caller is the sweeps' root span
(``graph.load``, ``backends.build``, ``algorithms``); on serve the root
span is the ``serve.http`` layer itself.  Counts whose call shape
changed are reported the same way (see :func:`_guarded`).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Raw span records kept for the written-out trace; totals are exact
#: regardless, because they are folded as spans close.
MAX_RECORDS = 50_000

#: Span names that are not a layer: the benchmark's own per-request root
#: span (its self time is time no layer accounts for), and time a service
#: thread spends blocked on the worker queue (replaced by the queue wait).
ROOT = "bench.request"
BLOCKED = "serve.wait"

#: Counter holding the summed duration of every request's root span.
WALL = "trace.wall_s"


@dataclass
class Frame:
    name: str
    start: float
    request: Optional[int]
    parent: Optional[int]
    ident: int
    #: A root span continuing a request handed over from another thread.
    adopted: bool = False
    child_s: float = 0.0


@dataclass
class Recorder:
    """Per-thread span stacks folded into per-name self time and counts."""

    clock: Callable[[], float] = time.perf_counter
    self_s: Dict[str, float] = field(default_factory=dict)
    total_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    records: List[Tuple] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    #: Address-stream digests already seen, per request id.
    streams: Dict[int, set] = field(default_factory=dict)

    def __post_init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def reset(self) -> None:
        """Forget everything folded so far (the measured window starts)."""
        with self._lock:
            for table in (self.self_s, self.total_s, self.calls, self.counters,
                          self.streams):
                table.clear()
            del self.records[:]

    def _stack(self) -> List[Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self) -> Optional[int]:
        """The request id spans opened on this thread belong to."""
        stack = self._stack()
        if stack:
            return stack[-1].request
        return getattr(self._local, "request", None)

    def adopt(self, request: Optional[int]) -> None:
        """Make spans opened on this thread belong to ``request``."""
        self._local.request = request

    def open(self, name: str) -> Frame:
        stack = self._stack()
        with self._lock:
            ident = self._next_id
            self._next_id += 1
        request = self.request
        adopted = not stack and request is not None
        if request is None:
            request = ident  # a root span starts a request of its own
        parent = stack[-1].ident if stack else None
        frame = Frame(name, self.clock(), request, parent, ident, adopted)
        stack.append(frame)
        return frame

    def close(self, frame: Frame) -> float:
        end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child_s += duration
        name = frame.name
        with self._lock:
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame.child_s
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
            self.calls[name] = self.calls.get(name, 0) + 1
            if frame.parent is None and not frame.adopted:
                # Wall time of the traced run: requests' root spans.
                self.counters[WALL] = self.counters.get(WALL, 0.0) + duration
                self.streams.pop(frame.request, None)
            if len(self.records) < MAX_RECORDS:
                self.records.append(
                    (name, frame.start, end, frame.ident, frame.parent,
                     frame.request, threading.get_ident())
                )
        return duration

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def span(self, name: str, fn: Callable, *args, **kwargs):
        frame = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame)


def fold(records) -> Dict[str, Tuple[float, int]]:
    """Self time and count per name from raw span records.

    The offline form of what :meth:`Recorder.close` folds online; a
    span's self time is its duration minus its direct children's.
    """
    child: Dict[int, float] = {}
    for name, start, end, ident, parent, request, thread in records:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    out: Dict[str, Tuple[float, int]] = {}
    for name, start, end, ident, parent, request, thread in records:
        self_s, calls = out.get(name, (0.0, 0))
        out[name] = (self_s + (end - start) - child.get(ident, 0.0), calls + 1)
    return out


# -- targets -------------------------------------------------------------

#: (span name, dotted location of the binding the caller resolves).
#: ``module:attr`` patches a module global, ``module:Class.method`` a
#: class attribute, ``module:DICT[key]`` a dict entry.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("graph.load", "repro.algorithms.runner:load_dataset"),
    ("backends.build", "repro.backends.base:AcceleratorBackend.build_system"),
    ("backends.iru.intercept", "repro.backends.iru:IrregularAccessReorderUnit.intercept"),
    ("algorithms", "repro.algorithms.runner:ALGORITHMS[bfs]"),
    ("algorithms", "repro.algorithms.runner:ALGORITHMS[sssp]"),
    ("algorithms", "repro.algorithms.runner:ALGORITHMS[pagerank]"),
    ("gpu.run", "repro.gpu.device:GpuDevice.run"),
    ("core.scu", "repro.core.unit:StreamCompactionUnit.bitmask_constructor"),
    ("core.scu", "repro.core.unit:StreamCompactionUnit.data_compaction"),
    ("core.scu", "repro.core.unit:StreamCompactionUnit.access_compaction"),
    ("core.scu", "repro.core.unit:StreamCompactionUnit.replication_compaction"),
    ("core.scu", "repro.core.unit:StreamCompactionUnit.access_expansion_compaction"),
    ("core.scu", "repro.core.unit:StreamCompactionUnit.filter_unique_pass"),
    ("core.scu", "repro.core.unit:StreamCompactionUnit.filter_best_cost_pass"),
    ("core.scu", "repro.core.unit:StreamCompactionUnit.grouping_pass"),
    ("core.filter", "repro.core.unit:filter_unique"),
    ("core.filter", "repro.core.unit:filter_best_cost"),
    ("core.group", "repro.core.unit:group_order"),
    ("mem.coalesce_warp", "repro.gpu.device:coalesce_warp"),
    ("mem.coalesce_stream", "repro.core.pipeline:coalesce_stream"),
    ("mem.hierarchy", "repro.mem.hierarchy:MemoryHierarchy.process"),
    ("mem.locality.profile", "repro.mem.hierarchy:profile_lines"),
    ("mem.dram", "repro.mem.hierarchy:MemoryHierarchy.dram_time_s"),
    ("mem.address_space.array", "repro.mem.address_space:DeviceContext.array"),
    ("mem.address_space.array", "repro.mem.address_space:DeviceContext.bitmask"),
    ("mem.address_space.addresses", "repro.mem.address_space:DeviceArray.addresses"),
    ("phases.finalize", "repro.algorithms.bfs:finalize_report"),
    ("phases.finalize", "repro.algorithms.sssp:finalize_report"),
    ("phases.finalize", "repro.algorithms.pagerank:finalize_report"),
    ("serve.simulate", "repro.algorithms.runner:execute_request"),
    ("serve.cache", "repro.algorithms.runner:get_cached_report"),
    ("serve.store.get", "repro.serve.store:ResultStore.get"),
    ("serve.store.put", "repro.serve.store:ResultStore.put"),
    ("serve.parse", "repro.serve.server:parse_run_request"),
    ("serve.encode", "repro.serve.server:run_response"),
    ("serve.encode", "repro.serve.server:encode"),
    ("serve.telemetry", "repro.serve.server:SimulationService.begin_request"),
    ("serve.telemetry", "repro.serve.server:SimulationService.finish_request"),
    ("serve.handle", "repro.serve.server:SimulationService.handle_run"),
    ("serve.submit", "repro.serve.admission:ServiceQueue.submit"),
    (BLOCKED, "repro.serve.admission:ServiceQueue.wait"),
    ("serve.http", "repro.serve.server:RequestHandler.do_POST"),
)


def _split(location: str):
    module_name, _, attr = location.partition(":")
    if attr.endswith("]"):
        holder_name, _, key = attr[:-1].partition("[")
        return module_name, holder_name, key, "item"
    holder_name, _, name = attr.rpartition(".")
    return module_name, holder_name, name, "attr"


def _resolve(location: str):
    """(holder, key, kind, current value), or ``None`` if it is gone."""
    module_name, holder_name, key, kind = _split(location)
    try:
        holder = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, holder_name.split(".")):
        holder = getattr(holder, part, None)
        if holder is None:
            return None
    if kind == "item":
        if not isinstance(holder, dict) or key not in holder:
            return None
        return holder, key, kind, holder[key]
    # A class must define the method itself: patching an inherited one
    # would shadow it on the subclass only.
    namespace = vars(holder)
    if key not in namespace:
        return None
    return holder, key, kind, namespace[key]


# -- counts taken at the boundaries, where the work happens ---------------


def _counts(recorder: Recorder) -> Dict[str, Callable]:
    """``after(args, kwargs, result)`` hooks, keyed by span name."""

    def hierarchy(args, kwargs, result):
        # Transactions, and those whose whole stream repeats an earlier
        # stream of the same request (what a stream memo could skip).
        coalesced = args[1]
        transactions = int(coalesced.transactions)
        if transactions == 0:
            return
        recorder.add("mem.hierarchy.transactions", transactions)
        digest = hashlib.blake2b(coalesced.line_ids.tobytes(), digest_size=16).digest()
        seen = recorder.streams.setdefault(recorder.request, set())
        if digest in seen:
            recorder.add("mem.hierarchy.repeat_transactions", transactions)
        else:
            seen.add(digest)

    def coalescer(name):
        def after(args, kwargs, result):
            recorder.add(f"{name}.accesses", int(result.accesses))
            recorder.add(f"{name}.transactions", int(result.transactions))

        return after

    def intercept(args, kwargs, result):
        if result is not None:
            recorder.add("backends.iru.elements", int(result[1]))

    def cache(args, kwargs, result):
        if kwargs.get("with_tier"):  # the service's probe, not a re-check
            recorder.add("serve.cache.probes", 1)
            if result[1] is not None:
                recorder.add(f"serve.cache.{result[1]}", 1)

    return {
        "mem.hierarchy": hierarchy,
        "mem.coalesce_warp": coalescer("mem.coalesce_warp"),
        "mem.coalesce_stream": coalescer("mem.coalesce_stream"),
        "backends.iru.intercept": intercept,
        "serve.cache": cache,
    }


def _submit_wrapper(recorder: Recorder, original: Callable) -> Callable:
    """Carry the request id into the worker thread and time the queue wait."""

    @functools.wraps(original)
    def submit(self, fn, *args, **kwargs):
        request = recorder.request
        submitted = recorder.clock()

        def run():
            recorder.add("serve.queue_wait_s", recorder.clock() - submitted)
            recorder.adopt(request)
            try:
                return recorder.span("serve.worker", fn)
            finally:
                recorder.adopt(None)

        return recorder.span("serve.submit", original, self, run, *args, **kwargs)

    return submit


#: Suffix of the ``missing`` entry for a layer whose counts were lost.
COUNTERS = "counters"


def _guarded(recorder: Recorder, name: str, after: Callable) -> Callable:
    """``after`` that can never raise into the program it measures.

    The counts read exact call shapes (argument and result attributes).
    If a refactor keeps a target's name but changes such a shape, the
    first error turns the hook off and reports ``<name> counters`` as
    missing; the wrapped call's result is returned as before.
    """
    on = [True]

    def hook(args, kwargs, result) -> None:
        if not on[0]:
            return
        try:
            after(args, kwargs, result)
        except Exception as error:  # noqa: BLE001 — reported, never raised
            with recorder._lock:
                if on[0]:
                    on[0] = False
                    recorder.missing.append(
                        f"{name} {COUNTERS} ({type(error).__name__}: {error})"
                    )

    return hook


def _wrap(recorder: Recorder, name: str, original: Callable, after=None) -> Callable:
    hook = None if after is None else _guarded(recorder, name, after)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = recorder.span(name, original, *args, **kwargs)
        if hook is not None:
            hook(args, kwargs, result)
        return result

    return wrapper


def install(recorder: Recorder, targets=TARGETS) -> Callable[[], None]:
    """Patch every target; returns a function that restores them all."""
    counts = _counts(recorder)
    restore = []
    for name, location in targets:
        found = _resolve(location)
        if found is None:
            recorder.missing.append(f"{name} ({location})")
            continue
        holder, key, kind, original = found
        if name == "serve.submit":
            wrapper = _submit_wrapper(recorder, original)
        else:
            wrapper = _wrap(recorder, name, original, counts.get(name))
        if kind == "item":
            holder[key] = wrapper
            restore.append(functools.partial(holder.__setitem__, key, original))
        else:
            setattr(holder, key, wrapper)
            restore.append(functools.partial(setattr, holder, key, original))

    def uninstall() -> None:
        for undo in reversed(restore):
            undo()

    return uninstall


def snapshot(recorder: Recorder) -> Dict[str, Any]:
    """The folded totals and the first raw span records, JSON-ready."""
    with recorder._lock:
        return {
            "self_s": dict(recorder.self_s),
            "total_s": dict(recorder.total_s),
            "calls": dict(recorder.calls),
            "counters": dict(recorder.counters),
            "missing": list(recorder.missing),
            "records": list(recorder.records),
        }
