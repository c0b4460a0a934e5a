"""Bounded admission queue with a fixed worker pool.

The service never lets load grow without bound: at most ``workers``
simulations run concurrently and at most ``queue_depth`` more may wait.
A request arriving beyond that is rejected *deterministically* with a
:class:`~repro.errors.ServiceOverloadError` carrying a Retry-After hint
— the HTTP layer maps it to a 429.  This mirrors the paper's fixed-size
SCU queues: work beyond the unit's capacity is not silently buffered,
it is pushed back to the issuing side.

Gauges track queue depth and in-flight work; both are set under the
queue's condition lock, so they always show one state of the queue.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Optional

from ..errors import (
    ServiceOverloadError,
    ServiceTimeoutError,
    ServiceUnavailableError,
)
from ..obs.metrics import MetricsRegistry

QUEUE_DEPTH_METRIC = "serve.queue.depth"
INFLIGHT_METRIC = "serve.inflight"

#: Counter of rejected submissions, labelled ``reason=overload|draining``
#: so a load test can tell back-pressure from shutdown.
REJECTED_METRIC = "serve.rejected"


class _Task:
    """One admitted unit of work and its eventual outcome."""

    __slots__ = (
        "fn",
        "done",
        "value",
        "error",
        "submitted_at",
        "queue_wait_s",
    )

    def __init__(self, fn: Callable[[], Any]):
        self.fn = fn
        self.done = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.submitted_at = time.perf_counter()
        self.queue_wait_s: Optional[float] = None


class ServiceQueue:
    """Fixed worker pool behind a bounded FIFO admission queue."""

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_depth: int = 8,
        registry: Optional[MetricsRegistry] = None,
        retry_after_s: float = 1.0,
        observe_wait: Optional[Callable[[float], None]] = None,
    ):
        if workers < 1:
            raise ServiceUnavailableError(f"need at least 1 worker, got {workers}")
        if queue_depth < 1:
            raise ServiceUnavailableError(
                f"need queue depth of at least 1, got {queue_depth}"
            )
        self.queue_depth = queue_depth
        self.retry_after_s = retry_after_s
        self._registry = registry
        self._observe_wait = observe_wait
        self._cond = threading.Condition()
        self._pending: List[_Task] = []
        self._inflight = 0
        self._closed = False
        self._workers = [
            threading.Thread(target=self._worker, name=f"repro-serve-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- gauges, always called with self._cond held ---------------------
    def _publish(self) -> None:
        if self._registry is not None:
            self._registry.gauge(QUEUE_DEPTH_METRIC).set(len(self._pending))
            self._registry.gauge(INFLIGHT_METRIC).set(self._inflight)

    @property
    def depth(self) -> int:
        with self._cond:
            return len(self._pending)

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    def _count_rejection(self, reason: str) -> None:
        """Rejection counter; always called with ``self._cond`` held."""
        if self._registry is not None:
            self._registry.counter(REJECTED_METRIC).inc(reason=reason)

    def submit(self, fn: Callable[[], Any]) -> _Task:
        """Admit ``fn`` or reject it if the queue is full / closing."""
        with self._cond:
            if self._closed:
                self._count_rejection("draining")
                raise ServiceUnavailableError("service is draining; not accepting work")
            if len(self._pending) >= self.queue_depth:
                self._count_rejection("overload")
                raise ServiceOverloadError(
                    f"admission queue full ({len(self._pending)} waiting, "
                    f"limit {self.queue_depth})",
                    retry_after_s=self.retry_after_s,
                )
            task = _Task(fn)
            self._pending.append(task)
            self._publish()
            self._cond.notify()
        return task

    def wait(self, task: _Task, *, timeout_s: Optional[float] = None) -> Any:
        """Block until ``task`` finishes; return its result or re-raise.

        Raises :class:`~repro.errors.ServiceTimeoutError` if the task
        does not complete within ``timeout_s``.  The task itself is not
        cancelled — workers are cooperative — but the caller stops
        waiting and the eventual result still lands in the run cache.
        """
        if not task.done.wait(timeout_s):
            raise ServiceTimeoutError(
                f"request did not complete within {timeout_s}s"
            )
        if task.error is not None:
            raise task.error
        return task.value

    def run(self, fn: Callable[[], Any], *, timeout_s: Optional[float] = None) -> Any:
        """Admit ``fn``, block until it finishes, and return its result."""
        return self.wait(self.submit(fn), timeout_s=timeout_s)

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending and self._closed:
                    return
                task = self._pending.pop(0)
                task.queue_wait_s = time.perf_counter() - task.submitted_at
                self._inflight += 1
                self._publish()
                if self._observe_wait is not None:
                    self._observe_wait(task.queue_wait_s)
            try:
                task.value = task.fn()
            except BaseException as error:  # noqa: BLE001 — delivered to waiter
                task.error = error
            finally:
                with self._cond:
                    self._inflight -= 1
                    self._publish()
                    self._cond.notify_all()
                task.done.set()

    def drain(self, *, timeout_s: Optional[float] = None) -> bool:
        """Stop admitting work and wait for queued + in-flight tasks.

        Returns True once the queue is empty and no work is in flight;
        False if that did not happen within ``timeout_s``.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            return self._cond.wait_for(
                lambda: not self._pending and self._inflight == 0,
                timeout=timeout_s,
            )
