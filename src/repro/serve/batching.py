"""Micro-batching admission window for the serve request path.

With ``--batch-window-ms`` enabled, the first single-flight leader to
arrive for a :func:`batch_compatibility_key` (dataset × seed × gpu)
opens a *window*: compatible requests that show up within it join the
same batch instead of each taking a worker-queue slot.  When the window
expires — or the batch hits ``--batch-max`` — the window leader seals
the batch and hands it to the service, which runs it as **one** queue
task of per-request simulations (the same body that runs a leader
alone when no window is set); then every member wakes with its own
report.

The batcher sits *inside* single-flight: identical digests still
coalesce onto one leader as before, and only distinct-but-compatible
digests meet in a window.  Each member keeps its own request context
(request id, trace id, journal row); the service links non-leader
members to the leader's ``serve.batch`` span the same way coalesced
followers link to their leader's simulate span.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ServiceTimeoutError
from ..request import RunRequest

#: Requests that entered a batching window (whether or not they fused).
BATCH_REQUESTS_METRIC = "serve.batch.requests"
#: Sealed batches executed (each takes one worker-queue slot).
BATCH_BATCHES_METRIC = "serve.batch.batches"
#: Requests that shared a batch with at least one other request — the
#: numerator of the loadtest's ``batched`` outcome ratio.
BATCH_FUSED_METRIC = "serve.batch.fused_requests"
#: Sealed batch sizes (explicit buckets so the Prometheus exposition
#: renders the ``serve_batch_size_bucket{le=...}`` series CI asserts on).
BATCH_SIZE_METRIC = "serve.batch.size"
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

__all__ = [
    "BATCH_REQUESTS_METRIC",
    "BATCH_BATCHES_METRIC",
    "BATCH_FUSED_METRIC",
    "BATCH_SIZE_METRIC",
    "BATCH_SIZE_BUCKETS",
    "BatchMember",
    "MicroBatcher",
    "batch_compatibility_key",
]


def batch_compatibility_key(request: RunRequest) -> Tuple[str, int, str]:
    """Grouping key of a batching window: ``(dataset, seed, gpu)``.

    Requests sharing this key simulate against the *same* registry
    graph, which :func:`~repro.graph.datasets.load_dataset` memoizes, so
    a batch loads it once.  ``mode``, ``memory_scale``, and the
    algorithm stay per-request — they change the simulated system
    itself, not the input data.
    """
    return (request.dataset, request.seed, request.gpu_name)


@dataclass
class BatchMember:
    """One request's seat in a batch; filled in by the execute callback."""

    request: RunRequest
    ctx: Any  # the service's RequestContext (opaque to the batcher)
    done: threading.Event = field(default_factory=threading.Event)
    report: Any = None
    error: Optional[BaseException] = None
    #: Sealed batch size; every member of a batch sees the same value.
    size: int = 0
    #: True for the window leader (the member whose thread executed).
    leader: bool = False
    #: ``(trace_id, span_id)`` of the leader's ``serve.batch`` span, for
    #: non-leader members to link to from their own traces.
    link: Optional[Tuple[str, str]] = None
    #: True once the batch simulated this member's report; False when
    #: the worker's cache re-probe served it.
    simulated: bool = False


class _Batch:
    __slots__ = ("key", "members", "sealed", "full", "opened")

    def __init__(self, key: Tuple, member: BatchMember):
        self.key = key
        self.members: List[BatchMember] = [member]
        self.sealed = False
        self.full = threading.Event()
        self.opened = time.perf_counter()


class MicroBatcher:
    """Groups compatible requests behind a short admission window.

    Args:
        window_s: how long the window leader waits for company.
        max_size: seal early once this many members joined.
        execute: callback run on the leader's thread with the sealed
            member list and the window-open timestamp; it must set
            ``member.report`` on every member (or raise, which fails
            the whole batch).
    """

    def __init__(
        self,
        *,
        window_s: float,
        max_size: int,
        execute: Callable[[Sequence[BatchMember], float], None],
    ):
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self.window_s = window_s
        self.max_size = max_size
        self._execute = execute
        self._lock = threading.Lock()
        self._open: Dict[Tuple, _Batch] = {}

    def submit(
        self,
        request: RunRequest,
        ctx: Any = None,
        *,
        timeout_s: Optional[float] = None,
    ) -> BatchMember:
        """Join (or open) the window for this request's compatibility key.

        Blocks until the batch executes: the window leader waits out the
        window and runs ``execute``; followers wait on their member
        event (at most ``timeout_s`` beyond the leader's own deadline).
        """
        member = BatchMember(request=request, ctx=ctx)
        key = batch_compatibility_key(request)
        with self._lock:
            batch = self._open.get(key)
            if batch is not None and not batch.sealed:
                batch.members.append(member)
                if len(batch.members) >= self.max_size:
                    batch.sealed = True
                    del self._open[key]
                    batch.full.set()
                follower_of = batch
            else:
                follower_of = None
                batch = _Batch(key, member)
                member.leader = True
                if self.max_size > 1:
                    self._open[key] = batch
        if follower_of is not None:
            # The leader seals, executes, fills our report, sets done.
            budget = timeout_s + self.window_s if timeout_s is not None else None
            if not member.done.wait(budget):
                raise ServiceTimeoutError(
                    f"batched request exceeded {budget}s waiting for its batch"
                )
            if member.error is not None:
                raise member.error
            return member

        # Window leader: wait for the window (or an early full seal).
        # A max_size of 1 degenerates to no window — execute right away.
        if self.max_size > 1:
            batch.full.wait(self.window_s)
        with self._lock:
            batch.sealed = True
            if self._open.get(key) is batch:
                del self._open[key]
            members = list(batch.members)
        for seat in members:
            seat.size = len(members)
        try:
            self._execute(members, batch.opened)
        except BaseException as exc:  # noqa: BLE001 — fail every member alike
            for seat in members:
                seat.error = exc
        finally:
            for seat in members:
                seat.done.set()
        if member.error is not None:
            raise member.error
        return member

    def open_windows(self) -> int:
        """Currently open (unsealed) windows — introspection for tests."""
        with self._lock:
            return len(self._open)
