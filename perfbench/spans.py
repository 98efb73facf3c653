"""The traced run: spans around calls into each layer, and their self times.

The wrappers sit in the benchmark's own files: :func:`install` rebinds
each public function or method named in :data:`FUNCTIONS` / :data:`METHODS`
(in every ``repro`` module that imported it) to a wrapper that records a
span. Nothing in ``src/`` changes.

Spans are kept in memory. A forked pool worker inherits the wrappers; it
appends its spans to ``<out_dir>/spans-<pid>.jsonl`` each time its
outermost span closes (a pool worker has no end the parent could wait
for). ``os.fsync`` is wrapped too, and each call is counted on the
innermost open span of the calling thread.

Self time (:func:`attribute`) puts every span of every process and thread
on one timeline and splits each instant of the traced window equally
among the *lanes* (process, thread) doing work there. A lane does no work
while it

* sleeps or joins on the load generator's behalf (``wait`` spans),
* waits for the service lock: of the lanes inside a service call, the one
  whose call started first holds the lock,
* sits in ``Pipeline.run`` itself while another lane works for it.

A harness thread with no open span is doing harness work, which is
charged to ``unattributed``; instants where every lane waits are charged
to ``loadgen.idle``. The self times therefore add up to the window.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path

WORK, WAIT = 0, 1

#: (module, function, layer): module-level functions, rebound wherever imported.
FUNCTIONS = (
    ("repro.synth.generator", "generate_study", "synth"),
    ("repro.cluster.scheduler", "simulate_schedule", "cluster.scheduler"),
    ("repro.cluster.sacct", "parse_sacct", "cluster.sacct"),
    ("repro.io.jsonl", "read_responses_jsonl", "io.jsonl"),
    ("repro.report.document", "render_report", "report.document"),
    ("repro.serve.wal", "snapshot_rows", "serve.wal.snapshot"),
)
#: (module, class, method, layer).
METHODS = (
    ("repro.cluster.workload", "WorkloadModel", "generate", "cluster.workload"),
    ("repro.core.pipeline", "Pipeline", "run", "core.pipeline"),
    ("repro.core.pipeline", "ArtifactCache", "get", "core.cache.get"),
    ("repro.core.pipeline", "ArtifactCache", "peek", "core.cache.get"),
    ("repro.core.pipeline", "ArtifactCache", "put", "core.cache.put"),
    ("repro.core.journal", "RunJournal", "record", "core.journal"),
    ("repro.core.journal", "RunJournal", "flush", "core.journal"),
    ("repro.core.journal", "RunJournal", "close", "core.journal"),
    ("repro.serve.wal", "IngestWAL", "append", "serve.wal.append"),
    ("repro.serve.service", "StudyService", "refresh", "serve.service"),
    ("repro.serve.service", "StudyService", "request", "serve.service"),
    ("repro.serve.service", "StudyService", "ingest", "serve.service"),
    ("repro.serve.service", "StudyService", "status", "obs"),
    ("repro.obs.ring", "MetricsRing", "publish", "obs"),
)
#: Layers whose outermost span holds the service lock.
LOCKED = "serve.service"


class Recorder:
    """In-memory span store for one process (and its forked pool workers)."""

    def __init__(self, out_dir: Path, clock=time.monotonic) -> None:
        self.out_dir = Path(out_dir)
        self.clock = clock
        self.main_pid = os.getpid()
        self.active = False
        #: [pid, tid, layer, name, t0, t1, kind, attrs]
        self.spans: list[list] = []
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str, name: str = "", kind: int = WORK) -> list | None:
        if not self.active:
            return None
        stack = self._stack()
        if stack and stack[-1][2] == layer and stack[-1][3] == name:
            return None  # a recursive call (parse_sacct(text) -> parse_sacct(fh))
        span = [os.getpid(), threading.get_ident(), layer, name, self.clock(), None, kind, {}]
        stack.append(span)
        return span

    def end(self, span: list | None) -> None:
        if span is None:
            return
        span[5] = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)
        if not stack and os.getpid() != self.main_pid:
            self._flush_child()

    def _flush_child(self) -> None:
        lines = "".join(json.dumps(s) + "\n" for s in self.spans)
        self.spans = []
        with open(self.out_dir / f"spans-{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(lines)

    def count(self, key: str, n: float = 1) -> None:
        """Add ``n`` to ``key`` on the calling thread's innermost open span."""
        stack = getattr(self._local, "stack", None)
        if stack:
            attrs = stack[-1][7]
            attrs[key] = attrs.get(key, 0) + n

    def wait(self, name: str):
        return _SpanContext(self, "loadgen", name, WAIT)

    def work(self, layer: str, name: str = ""):
        return _SpanContext(self, layer, name, WORK)

    def collect(self) -> list[list]:
        """Parent spans plus every pool worker's flushed spans."""
        spans = list(self.spans)
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
        return spans


class _SpanContext:
    def __init__(self, rec: Recorder, layer: str, name: str, kind: int) -> None:
        self.rec, self.layer, self.name, self.kind = rec, layer, name, kind

    def __enter__(self):
        self.span = self.rec.begin(self.layer, self.name, self.kind)
        return self.span

    def __exit__(self, *exc) -> None:
        self.rec.end(self.span)


# -- wrappers -------------------------------------------------------------------


def _attrs_for(layer: str, span: list, result, args) -> None:
    """Counts measured where the work happens, stored on the call's span."""
    attrs = span[7]
    if layer in ("cluster.workload", "cluster.sacct", "io.jsonl", "serve.wal.snapshot"):
        attrs["rows"] = len(result)
    elif layer == "core.cache.get":
        attrs["hits"] = int(result is not None)
    elif layer == "core.cache.put":
        cache, key = args[0], args[1]
        if result and cache.root is not None:
            try:
                attrs["bytes"] = os.path.getsize(cache.root / f"{key}.pkl")
            except OSError:
                pass
    elif layer == "core.pipeline":
        report = args[0].last_report
        if report is not None:
            for outcome in report.outcomes:
                key = "cached" if outcome.status in ("cached", "replayed") else "computed"
                attrs[key] = attrs.get(key, 0) + 1
    elif layer == "serve.wal.append":
        span[3] = args[1]  # the feed kind
        attrs["accepted"] = result.accepted
        attrs["deduped"] = result.deduped
    elif layer == "serve.service" and hasattr(result, "ran"):
        span[3] = "refresh" if result.ran else "refresh-skipped"


def _wrap(fn, layer: str, rec: Recorder, name: str = ""):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(layer, name)
        if span is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
            _attrs_for(layer, span, result, args)
            return result
        finally:
            rec.end(span)

    return wrapper


def _wrap_experiment(fn, eid: str, rec: Recorder, digest):
    @functools.wraps(fn)
    def wrapper(study):
        span = rec.begin("report.experiments", eid)
        if span is None:
            return fn(study)
        try:
            result = fn(study)
            # Digesting the artifact is tracer work: a child span in its
            # own layer, so it leaves the experiment's self time alone.
            with rec.work("trace", "digest"):
                span[7]["digest"] = digest(result)
            return result
        finally:
            rec.end(span)

    return wrapper


def install(rec: Recorder) -> None:
    """Rebind every traced call (see module docstring) and ``os.fsync``."""
    import dataclasses
    import importlib

    from repro.audit.digests import artifact_digest
    from repro.report.experiments import EXPERIMENTS

    for module_name, func, layer in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), func)
        wrapped = _wrap(original, layer, rec, func)
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, func, None) is original:
                setattr(module, func, wrapped)
    for module_name, cls_name, method, layer in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, method, _wrap(cls.__dict__[method], layer, rec, method))
    for eid, exp in list(EXPERIMENTS.items()):
        EXPERIMENTS[eid] = dataclasses.replace(
            exp, fn=_wrap_experiment(exp.fn, eid, rec, artifact_digest)
        )

    real_fsync = os.fsync

    def fsync(fd):
        rec.count("fsyncs")
        return real_fsync(fd)

    os.fsync = fsync


# -- self time --------------------------------------------------------------------


def attribute(
    spans: list[list],
    window: tuple[float, float],
    harness_lanes: dict[tuple[int, int], tuple[float, float]],
) -> dict[str, float]:
    """Self seconds per layer over ``window`` (see module docstring).

    ``harness_lanes`` maps each harness thread to its lifetime; other lanes
    exist only while they have an open span. The values returned sum to
    the window's length (``unattributed`` and ``loadgen.idle`` included).
    """
    w0, w1 = window
    events = []
    for i, s in enumerate(spans):
        t0, t1 = max(s[4], w0), min(s[5], w1)
        if t1 > t0:
            # Ends sort before starts at one instant; of two spans opening
            # at once the longer (outer) one is pushed first.
            events.append((t0, 1, t0 - t1, i))
            events.append((t1, 0, 0.0, i))
    events.sort()
    stacks: dict[tuple[int, int], list[int]] = {}
    out: dict[str, float] = {}

    def charge(a: float, b: float) -> None:
        dt = b - a
        if dt <= 0:
            return
        tops: dict[tuple[int, int], list | None] = {}
        for lane, (l0, l1) in harness_lanes.items():
            if l0 <= a and b <= l1:
                tops[lane] = None
        for lane, stack in stacks.items():
            if stack:
                tops[lane] = spans[stack[-1]]
        # The service lock: the earliest-started outermost service call
        # on any lane holds it; the other service calls wait.
        holder = None
        for lane, stack in stacks.items():
            if stack and spans[stack[0]][2] == LOCKED:
                start = spans[stack[0]][4]
                if holder is None or start < holder[1]:
                    holder = (lane, start)
        working: list[str] = []
        pipeline_lanes = 0
        for lane, top in tops.items():
            if top is None:
                working.append("unattributed")
            elif top[6] == WAIT:
                continue
            elif holder is not None and lane != holder[0] and spans[stacks[lane][0]][2] == LOCKED:
                continue
            elif top[2] == "core.pipeline":
                pipeline_lanes += 1
            else:
                working.append(top[2])
        if not working and pipeline_lanes:
            working = ["core.pipeline"] * pipeline_lanes
        if not working:
            working = ["loadgen.idle"]
        share = dt / len(working)
        for layer in working:
            out[layer] = out.get(layer, 0.0) + share

    prev = w0
    for t, kind, _, i in events:
        charge(prev, t)
        prev = t
        lane = (spans[i][0], spans[i][1])
        stack = stacks.setdefault(lane, [])
        if kind == 1:
            stack.append(i)
        elif i in stack:
            stack.remove(i)
    charge(prev, w1)
    return out
