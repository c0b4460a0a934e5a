"""Parallel sweep engine for the experiment grid.

Every cell of the paper's (algorithm x dataset x GPU x system-mode)
grid is an independent simulation — the embarrassingly parallel shape
the bench runner and figure drivers used to walk strictly serially.
This module shards cells across worker processes while keeping the
serial path's exact semantics:

* **Deterministic merging** — results are re-assembled in grid order by
  cell index, regardless of completion order, so ``--jobs N`` produces
  byte-identical simulated metrics and scoreboard rows for every N.
* **Per-cell timeout and bounded retry** — a worker that hangs past the
  deadline is terminated and the cell retried; a worker that dies (OOM
  kill, hard crash) is detected via its exit without a result.  When
  the retry budget is exhausted the cell falls back to in-process
  execution, so one pathological cell degrades to the serial behaviour
  instead of sinking the sweep.
* **Merged observability** — each worker runs its cell under a fresh
  :class:`~repro.obs.metrics.MetricsRegistry`; callers merge the
  returned ``flat_snapshot`` payloads with
  :func:`~repro.obs.metrics.merge_flat_snapshots`.

The engine itself (:func:`run_sweep`) is generic over a picklable task
list and a module-level worker callable, which is what the crash/timeout
tests drive; :func:`sweep_cells` instantiates it for simulation cells
and primes the shared experiment cache with the reports that come back.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..algorithms.common import SystemMode
from ..algorithms.runner import execute_request
from ..errors import ExperimentError
from ..graph.datasets import load_dataset
from ..obs import global_metrics, make_observability
from ..obs.propagation import new_span_id
from ..obs.spans import (
    SpanRecord,
    perf_to_epoch_us,
    reparent_spans,
    spans_from_tracer,
)
from ..phases import RunReport
from ..request import RunRequest
from .experiments import prime_experiment_cache

#: How long the scheduler sleeps waiting for worker results (seconds).
_POLL_TICK_S = 0.05

#: Grace period for terminating a timed-out worker before SIGKILL.
_TERMINATE_GRACE_S = 2.0


# ---------------------------------------------------------------------------
# The generic process-pool scheduler
# ---------------------------------------------------------------------------


class SweepFailure(ExperimentError):
    """A task failed in workers and the in-process fallback was disabled.

    Raised by :func:`run_sweep` with ``fallback=False`` once a task's
    retry budget is exhausted.  ``reason`` is one of ``"timeout"``,
    ``"crashed"``, or ``"error"``; ``detail`` carries the worker's
    formatted exception when one was reported.  Long-lived callers (the
    ``repro serve`` service) use this to turn a killed or deadlined
    worker into a deterministic error response instead of re-running
    the task in-process.
    """

    def __init__(
        self,
        *,
        index: int,
        attempts: int,
        reason: str,
        detail: Optional[str] = None,
    ):
        message = f"task {index} {reason} after {attempts} attempt(s)"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.index = index
        self.attempts = attempts
        self.reason = reason
        self.detail = detail


@dataclass(frozen=True)
class SweepOutcome:
    """One task's result plus how it was obtained."""

    index: int
    value: Any
    attempts: int  # total executions, including the successful one
    worker_pid: int  # pid that produced the value (parent pid on fallback)
    duration_s: float  # wall-clock of the successful execution
    fell_back: bool  # True when retries ran out and the parent ran it


@dataclass
class _Slot:
    """One live worker process and the task it is executing."""

    index: int
    attempt: int
    process: multiprocessing.process.BaseProcess
    conn: Any  # parent end of the result pipe
    started_at: float

    def deadline_exceeded(self, timeout_s: Optional[float]) -> bool:
        if timeout_s is None:
            return False
        return time.perf_counter() - self.started_at > timeout_s


def _child_main(worker: Callable[[Any], Any], task: Any, conn) -> None:
    """Worker-process entry: run the task, ship the result over the pipe."""
    try:
        conn.send(("ok", worker(task)))
    except BaseException as error:  # noqa: BLE001 — report, parent decides
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except (OSError, ValueError):  # unpicklable error or closed pipe
            pass
    finally:
        conn.close()


def _mp_context():
    """Fork where available (Linux): workers inherit sys.path and imports."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _stop_process(process: multiprocessing.process.BaseProcess) -> None:
    process.terminate()
    process.join(_TERMINATE_GRACE_S)
    if process.is_alive():
        process.kill()
        process.join(_TERMINATE_GRACE_S)


def run_sweep(
    tasks: Sequence[Any],
    worker: Callable[[Any], Any],
    *,
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    progress: Optional[Callable[[SweepOutcome, int, int], None]] = None,
    fallback: bool = True,
) -> List[SweepOutcome]:
    """Run ``worker`` over ``tasks``, at most ``jobs`` at a time.

    Returns one :class:`SweepOutcome` per task **in task order** — the
    merge-determinism invariant every caller relies on.  ``jobs <= 1``
    executes in-process with no multiprocessing involved at all.  A
    worker that crashes, errors, or exceeds ``timeout_s`` is retried up
    to ``retries`` extra times in a fresh process; after that the task
    runs in-process, where a genuine error finally propagates.  With
    ``fallback=False`` the exhausted task raises :class:`SweepFailure`
    instead — a hung task stays killed rather than being re-run without
    a deadline (the behaviour a per-request service timeout needs).

    ``worker`` must be a module-level callable and each task (and each
    result) must be picklable.
    """
    tasks = list(tasks)
    total = len(tasks)
    results: List[Optional[SweepOutcome]] = [None] * total
    done = 0

    def finish(outcome: SweepOutcome) -> None:
        nonlocal done
        results[outcome.index] = outcome
        done += 1
        if progress is not None:
            progress(outcome, done, total)

    def run_inline(index: int, attempts_before: int, fell_back: bool) -> None:
        started = time.perf_counter()
        value = worker(tasks[index])
        finish(
            SweepOutcome(
                index=index,
                value=value,
                attempts=attempts_before + 1,
                worker_pid=os.getpid(),
                duration_s=time.perf_counter() - started,
                fell_back=fell_back,
            )
        )

    if jobs <= 1:
        for index in range(total):
            run_inline(index, 0, False)
        return [outcome for outcome in results if outcome is not None]

    ctx = _mp_context()
    queue: deque = deque((index, 1) for index in range(total))  # (index, attempt)
    slots: List[_Slot] = []

    def launch(index: int, attempt: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_child_main,
            args=(worker, tasks[index], child_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        slots.append(
            _Slot(
                index=index,
                attempt=attempt,
                process=process,
                conn=parent_conn,
                started_at=time.perf_counter(),
            )
        )

    def fail(slot: _Slot, reason: str, detail: Optional[str] = None) -> None:
        """Retry a failed slot's task, fall back in-process, or raise."""
        if slot.attempt <= retries:
            queue.append((slot.index, slot.attempt + 1))
        elif fallback:
            run_inline(slot.index, slot.attempt, True)
        else:
            raise SweepFailure(
                index=slot.index,
                attempts=slot.attempt,
                reason=reason,
                detail=detail,
            )

    try:
        while queue or slots:
            while queue and len(slots) < jobs:
                launch(*queue.popleft())
            ready = multiprocessing.connection.wait(
                [slot.conn for slot in slots], timeout=_POLL_TICK_S
            )
            ready_set = set(ready)
            for slot in list(slots):
                if slot.conn in ready_set:
                    try:
                        status, payload = slot.conn.recv()
                    except (EOFError, OSError):
                        status, payload = "crashed", None
                    slot.conn.close()
                    slot.process.join()
                    slots.remove(slot)
                    if status == "ok":
                        finish(
                            SweepOutcome(
                                index=slot.index,
                                value=payload,
                                attempts=slot.attempt,
                                worker_pid=slot.process.pid or 0,
                                duration_s=time.perf_counter() - slot.started_at,
                                fell_back=False,
                            )
                        )
                    else:
                        detail = payload if status == "error" else None
                        fail(slot, "crashed" if payload is None else "error", detail)
                elif not slot.process.is_alive():
                    # Died without sending a result (hard crash, os._exit).
                    slot.conn.close()
                    slot.process.join()
                    slots.remove(slot)
                    fail(slot, "crashed")
                elif slot.deadline_exceeded(timeout_s):
                    _stop_process(slot.process)
                    slot.conn.close()
                    slots.remove(slot)
                    fail(slot, "timeout")
    finally:
        for slot in slots:  # non-empty when a fallback or SweepFailure raised
            _stop_process(slot.process)
            slot.conn.close()

    return [outcome for outcome in results if outcome is not None]


# ---------------------------------------------------------------------------
# Simulation cells: the concrete worker the bench and scoreboard share
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One simulated grid cell, picklable for worker dispatch.

    ``kwargs`` is the sorted tuple form of the extra driver arguments
    (e.g. Figure 12's ``enable_grouping=False``) so the cell hashes and
    matches :func:`~repro.harness.experiments.experiment_key` exactly.
    ``reps`` > 0 additionally measures that many wall-clock repetitions
    (plus one discarded warmup rep) of un-memoized runs.
    """

    algorithm: str
    dataset: str
    gpu: str
    mode: SystemMode
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    reps: int = 0
    #: Ship per-phase span records back with the payload (distributed
    #: tracing).  Off by default: bench sweeps don't pay the pipe cost.
    collect_spans: bool = False

    def request(self) -> RunRequest:
        """The canonical :class:`~repro.request.RunRequest` of this cell."""
        return RunRequest.make(
            self.algorithm, self.dataset, self.gpu, self.mode, **dict(self.kwargs)
        )

    @property
    def key(self) -> str:
        return self.request().cache_digest()

    def label(self) -> str:
        return f"{self.algorithm}/{self.dataset}/{self.gpu}/{self.mode.value}"


@dataclass(frozen=True)
class CellPayload:
    """What one executed cell sends back to the scheduler."""

    report: RunReport
    wall_samples: Tuple[float, ...]  # empty when reps == 0
    warmup_s: Optional[float]  # discarded first rep; None when reps == 0
    metrics: Tuple[dict, ...] = ()  # worker registry flat_snapshot payload
    #: Wire-form span records of the observed run (``collect_spans``
    #: only).  Trace-less (``trace_id=""``) until the parent re-parents
    #: them under its own trace — the cross-process stitching protocol.
    spans: Tuple[dict, ...] = ()


def simulate_cell(cell: SweepCell) -> CellPayload:
    """Execute one grid cell: optional timed reps, then the observed run.

    This is the module-level worker :func:`run_sweep` dispatches; it is
    also what the serial (``jobs=1``) path runs, so both paths execute
    identical code on identical inputs — determinism by construction.
    The first wall-clock rep is a *warmup* (dataset-generation caches,
    numpy allocator pools) measured separately and excluded from the
    recorded samples.
    """
    request = cell.request()
    # Pre-warm the dataset cache so the timed repetitions measure the
    # simulation, not graph generation (subsequent loads are dict hits,
    # and a forked worker inherits the graphs sweep_cells loaded).
    load_dataset(request.dataset, seed=request.seed)
    warmup_s: Optional[float] = None
    samples: List[float] = []
    if cell.reps > 0:
        started = time.perf_counter()
        execute_request(request)
        warmup_s = time.perf_counter() - started
        for _ in range(cell.reps):
            started = time.perf_counter()
            execute_request(request)
            samples.append(time.perf_counter() - started)
    # Stamp before creating the tracer: its relative clock (ts=0) starts
    # at Tracer() construction, and base_us must anchor that instant.
    observed_started = time.perf_counter()
    obs = make_observability()
    report = execute_request(request, obs=obs).report
    metrics = obs.metrics.flat_snapshot() + global_metrics().flat_snapshot()
    spans: Tuple[dict, ...] = ()
    if cell.collect_spans:
        spans = tuple(
            span.to_dict()
            for span in spans_from_tracer(
                obs.tracer,
                trace_id="",
                parent_id=None,
                base_us=perf_to_epoch_us(observed_started),
                process=f"worker-{os.getpid()}",
            )
        )
    return CellPayload(
        report=report,
        wall_samples=tuple(samples),
        warmup_s=warmup_s,
        metrics=tuple(metrics),
        spans=spans,
    )


@dataclass(frozen=True)
class CellOutcome:
    """A :class:`SweepOutcome` specialized to simulation cells."""

    cell: SweepCell
    payload: CellPayload
    attempts: int
    worker_pid: int
    duration_s: float
    fell_back: bool


def sweep_cells(
    cells: Sequence[SweepCell],
    *,
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    progress: Optional[Callable[["CellOutcome", int, int], None]] = None,
    prime_cache: bool = True,
) -> List[CellOutcome]:
    """Simulate every cell (``jobs``-wide) and return grid-ordered results.

    Each distinct dataset of the cells is loaded (generated) once, here,
    before any worker forks: every worker inherits the graphs, instead
    of generating its cell's graph again.

    With ``prime_cache`` (the default) every returned report is also
    installed in the shared experiment cache under its canonical key, so
    figure drivers and the scoreboard sweep that follow are cache hits.
    """
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    cells = list(cells)
    requests = [cell.request() for cell in cells]
    for dataset, seed in sorted({(r.dataset, r.seed) for r in requests}):
        load_dataset(dataset, seed=seed)
    wrapped: Optional[Callable[[SweepOutcome, int, int], None]] = None
    if progress is not None:

        def wrapped(outcome: SweepOutcome, done: int, total: int) -> None:
            progress(_to_cell_outcome(cells, outcome), done, total)

    outcomes = run_sweep(
        cells,
        simulate_cell,
        jobs=jobs,
        timeout_s=timeout_s,
        retries=retries,
        progress=wrapped,
    )
    cell_outcomes = [_to_cell_outcome(cells, outcome) for outcome in outcomes]
    if prime_cache:
        for result in cell_outcomes:
            prime_experiment_cache(result.cell.key, result.payload.report)
    return cell_outcomes


def _to_cell_outcome(cells: Sequence[SweepCell], outcome: SweepOutcome) -> CellOutcome:
    return CellOutcome(
        cell=cells[outcome.index],
        payload=outcome.value,
        attempts=outcome.attempts,
        worker_pid=outcome.worker_pid,
        duration_s=outcome.duration_s,
        fell_back=outcome.fell_back,
    )


def stitch_cell_spans(
    outcomes: Sequence[CellOutcome],
    *,
    trace_id: str,
    parent_id: Optional[str] = None,
) -> List[SpanRecord]:
    """Assemble sweep outcomes into one trace's span list.

    Each cell contributes a ``sweep.cell`` span (under ``parent_id``)
    that brackets the worker's per-phase spans, which are adopted into
    ``trace_id`` via :func:`~repro.obs.spans.reparent_spans`.  Workers
    are forked, so their absolute wall-clock timestamps line up with
    the parent's without any shifting; a cell that was retried after a
    crash carries only its *successful* attempt's spans, with the
    attempt count on the cell span.
    """
    stitched: List[SpanRecord] = []
    for outcome in outcomes:
        cell_span_id = new_span_id()
        children = reparent_spans(
            outcome.payload.spans,
            trace_id=trace_id,
            parent_id=cell_span_id,
            source=f"cell {outcome.cell.label()}",
        )
        if children:
            start_us = min(child.start_us for child in children)
            end_us = max(child.end_us for child in children)
        else:  # no spans shipped (collect_spans off, or an empty tracer)
            end_us = time.time() * 1e6
            start_us = end_us - outcome.duration_s * 1e6
        stitched.append(
            SpanRecord(
                trace_id=trace_id,
                span_id=cell_span_id,
                parent_id=parent_id,
                name="sweep.cell",
                category="sweep",
                process="sweep",
                start_us=start_us,
                duration_us=max(0.0, end_us - start_us),
                attributes={
                    "label": outcome.cell.label(),
                    "attempts": outcome.attempts,
                    "worker_pid": outcome.worker_pid,
                    "fell_back": outcome.fell_back,
                },
            )
        )
        stitched.extend(children)
    return stitched
