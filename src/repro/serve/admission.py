"""Admission control for the serve request loop.

The request path must be protected from its own recompute: a refresh
takes seconds while requests arrive in milliseconds, so unbounded
queueing would let latency grow without limit and a single slow subtree
take the whole service down. Two controls, both resolving to the same
degraded answer (the last-good artifact, tagged STALE) rather than an
error:

* a **bounded queue** — at most ``queue_size`` requests may be waiting on
  a recompute at once; request ``queue_size + 1`` is shed immediately;
* **deadline-aware load shedding** — a request carrying a deadline
  shorter than the service's current refresh-cost estimate is shed
  *before* queueing (queueing past the deadline would burn a slot to
  produce an answer the client has already given up on).

Shedding is not failure: staleness is bounded (the WAL still accepted the
rows; the next uncontended refresh catches up) and every decision is
counted here for the status probe.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

__all__ = ["QueueFull", "ServeResult", "AdmissionController"]

#: ServeResult.status values. ``fresh`` = computed from the current WAL
#: frontier; ``stale`` = last-good artifact (shed, quarantined, or
#: read-only degraded); ``unavailable`` = no artifact has ever been built.
STATUSES = ("fresh", "stale", "unavailable")


class QueueFull(RuntimeError):
    """Internal signal: the admission queue is at capacity."""


@dataclass(frozen=True)
class ServeResult:
    """One answered artifact request.

    ``reason`` explains any non-fresh status (``"deadline"``,
    ``"queue_full"``, ``"quarantined"``, ``"pinned_feed"``, ``"read_only"``,
    ``"refresh_failed"``, ``"never_built"``). ``behind`` counts WAL rows
    accepted after the served artifact's snapshot — the staleness bound,
    in data terms rather than wall-clock.
    """

    experiment_id: str
    status: str
    artifact: Any = None
    reason: str = ""
    refresh_seq: int = -1
    behind: int = 0

    @property
    def ok(self) -> bool:
        return self.status in ("fresh", "stale")


class AdmissionController:
    """Bounded-queue bookkeeping + shed counters (thread-safe).

    The controller does not run requests — it decides whether a request
    may *wait for a recompute*. ``repro.serve.service`` asks
    :meth:`admit` around the recompute path and reports every final
    disposition through :meth:`count`.
    """

    def __init__(self, queue_size: int = 8) -> None:
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        self.queue_size = queue_size
        self._lock = threading.Lock()
        self._waiting = 0
        self._peak_waiting = 0
        self._counters: dict[str, int] = {
            "requests": 0,
            "admitted": 0,
            "shed_queue_full": 0,
            "shed_deadline": 0,
            "served_fresh": 0,
            "served_stale": 0,
            "served_unavailable": 0,
        }

    # -- the gate -------------------------------------------------------------

    def admit(self) -> "_Admission":
        """Claim a queue slot for one recompute-waiting request.

        Use as a context manager; raises :class:`QueueFull` when all
        ``queue_size`` slots are taken. The slot is held for the wait's
        duration, so the queue bound is on *concurrent waiters*, exactly
        the resource a slow refresh exhausts.
        """
        with self._lock:
            if self._waiting >= self.queue_size:
                self._counters["shed_queue_full"] += 1
                raise QueueFull(
                    f"{self._waiting} request(s) already waiting "
                    f"(queue_size={self.queue_size})"
                )
            self._waiting += 1
            if self._waiting > self._peak_waiting:
                self._peak_waiting = self._waiting
            self._counters["admitted"] += 1
        return _Admission(self)

    def _release(self) -> None:
        with self._lock:
            self._waiting -= 1

    # -- accounting -----------------------------------------------------------

    def count(self, counter: str) -> None:
        with self._lock:
            if counter not in self._counters:
                self._counters[counter] = 0
            self._counters[counter] += 1

    def record_result(self, result: ServeResult) -> None:
        """Fold a final disposition into the probe counters."""
        self.count(f"served_{result.status}")
        if result.reason == "deadline":
            self.count("shed_deadline")

    @property
    def waiting(self) -> int:
        with self._lock:
            return self._waiting

    def stats(self) -> dict[str, int]:
        with self._lock:
            return dict(
                self._counters,
                waiting=self._waiting,
                peak_waiting=self._peak_waiting,
            )


class _Admission:
    def __init__(self, controller: AdmissionController) -> None:
        self._controller = controller

    def __enter__(self) -> "_Admission":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._controller._release()
