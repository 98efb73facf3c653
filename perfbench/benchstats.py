"""Small, dependency-free helpers shared by run.py and worker.py.

Kept free of ``repro`` imports so run.py can start, validate its
arguments and fail fast without the package under test being importable.
"""

from __future__ import annotations

import math
import os
import random
import re
import statistics
import time

#: A metric or workload name: starts with a letter or digit, at most 64
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: A unit: at most 16 letters, digits, ``_``, ``/``, ``%``, ``.`` and ``-``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Every percentile must leave at least this many samples beyond it.
TAIL_SAMPLES = 10


def valid_name(name: str) -> bool:
    return bool(NAME_RE.fullmatch(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.fullmatch(unit))


def derive_seeds(workload: str, seed: int, n: int) -> list[int]:
    """``n`` study seeds derived from the workload seed (fixed sequence)."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(1, 2**31) for _ in range(n)]


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """The highest percentile (0-100) with >= 10 of ``n`` samples beyond it.

    Percentiles are whole or of the 90/99/99.9 family: the answer is the
    largest of 50, 90, 99, 99.9 for which ``n * (1 - p/100) >= 10``;
    None when even the median leaves fewer than ten beyond it.
    """
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        # Rounded so that float error in 1 - p/100 cannot drop a
        # boundary case (n=1000 at p99 leaves exactly ten beyond).
        if round(n * (1.0 - p / 100.0), 6) >= TAIL_SAMPLES:
            best = p
    return best


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def steal_seconds() -> float | None:
    """CPU time the host has stolen from this machine so far (Linux only)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def reference_ms(repeats: int = 5) -> float:
    """Median milliseconds of a fixed pure-Python loop: the host's speed.

    Printed beside each run's results, never folded into them, so that a
    reader can tell host drift from a change in the program.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return median(times) * 1e3


class OpenLoop:
    """A fixed-rate open-loop schedule.

    Operation ``i`` is due at ``start + i * interval`` whether or not the
    previous one has finished, so a stall shows up as latency of every
    request due during it (latency counts from the due time, not from
    when the request was finally sent). ``late`` records how far behind
    its schedule the generator itself was at each send.
    """

    def __init__(self, start: float, interval: float, clock=time.monotonic) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.start = start
        self.interval = interval
        self.clock = clock
        self.index = 0
        self.late: list[float] = []

    def due(self, index: int | None = None) -> float:
        return self.start + (self.index if index is None else index) * self.interval

    def wait(self, until: float, sleep=time.sleep) -> float | None:
        """Sleep until the next op is due; returns its due time.

        Returns None (and sends nothing) once the next due time is at or
        past ``until``. The lateness of the send is recorded.
        """
        due = self.due()
        if due >= until:
            return None
        now = self.clock()
        if now < due:
            sleep(due - now)
            now = self.clock()
        self.late.append(max(now - due, 0.0))
        self.index += 1
        return due
