"""Single-flight request coalescing.

When N identical requests are in flight at once, exactly one of them
(the *leader*) executes; the other N-1 (*followers*) block on the
leader's completion and share its result — or its exception.  This is
the service-scale analog of the paper's single shared SCU: many clients
offload the same work to one unit instead of each redoing it.

Coalescing is keyed by the request's canonical
:meth:`~repro.request.RunRequest.cache_digest`, so a burst of identical
cold requests costs one simulation; once the leader finishes, the
shared run cache serves everyone else.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Hashable, Optional

from ..errors import ServiceTimeoutError
from ..obs.metrics import MetricsRegistry

#: Counter incremented once per follower that attaches to a leader.
COALESCED_METRIC = "serve.singleflight.coalesced_hits"


class _Call:
    """One in-flight execution and its eventual outcome."""

    __slots__ = ("done", "value", "error", "waiters")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.waiters = 0


class SingleFlight:
    """Per-key duplicate-call suppression for concurrent workloads."""

    def __init__(
        self,
        *,
        registry: Optional[MetricsRegistry] = None,
        observe_wait: Optional[Callable[[float], None]] = None,
    ):
        self._lock = threading.Lock()
        self._calls: Dict[Hashable, _Call] = {}
        self._registry = registry
        #: Called with each follower's wait-for-leader duration (s).
        self._observe_wait = observe_wait

    def waiters(self, key: Hashable) -> int:
        """How many followers are currently attached to ``key``'s leader."""
        with self._lock:
            call = self._calls.get(key)
            return call.waiters if call is not None else 0

    def do(
        self,
        key: Hashable,
        fn: Callable[[], Any],
        *,
        timeout_s: Optional[float] = None,
    ) -> Any:
        """Execute ``fn`` once per concurrent burst of identical keys.

        The leader runs ``fn`` synchronously; followers wait up to
        ``timeout_s`` for the leader's outcome (a
        :class:`~repro.errors.ServiceTimeoutError` if it does not land
        in time) and then re-raise its exception or return its value.
        """
        with self._lock:
            call = self._calls.get(key)
            if call is None:
                call = self._calls[key] = _Call()
                leader = True
            else:
                leader = False
                call.waiters += 1
                # counted under the lock: concurrent followers must not
                # lose increments (the counter is a plain dict update).
                if self._registry is not None:
                    self._registry.counter(COALESCED_METRIC).inc()
        if leader:
            try:
                call.value = fn()
            except BaseException as error:  # noqa: BLE001 — shared verbatim
                call.error = error
            finally:
                with self._lock:
                    self._calls.pop(key, None)
                call.done.set()
            if call.error is not None:
                raise call.error
            return call.value
        wait_started = time.perf_counter()
        if not call.done.wait(timeout_s):
            raise ServiceTimeoutError(
                f"coalesced request did not complete within {timeout_s}s"
            )
        if self._observe_wait is not None:
            self._observe_wait(time.perf_counter() - wait_started)
        if call.error is not None:
            raise call.error
        return call.value
