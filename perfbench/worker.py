"""One measured process of the benchmark.

``run.py`` starts this script in a fresh interpreter for every set-up it
measures. The process imports the package, sets its workload up, runs
timed units until ``--seconds`` have passed, records its peak RSS, then
checks every output against an oracle and writes a JSON summary to
``--out``. With ``--traced`` it wraps each layer's public calls (see
``spans.py``) for the timed phase and adds the per-layer table.

The workloads (why each exists is in README.md):

* ``report_cold``: ``repro report --durable <fresh root>`` at CLI
  defaults, each followed by ``--resume`` of that finished root.
* ``report_iterate``: a durable root built once in set-up, then edits
  (``--current`` stepped to a value not yet built) interleaved with
  replays of the same command.
* ``serve_stream``: a resident ``StudyService`` fed day-sized ``sacct``
  dumps and small response batches on an open-loop schedule, with a
  reader thread requesting every experiment at a fixed rate beside it.
"""

from __future__ import annotations

import time

T_START = time.monotonic()  # before any import: set-up counts imports

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import benchstats  # noqa: E402

#: Study scale: the CLI defaults.
SCALE = {"n_baseline": 120, "n_current": 200, "months": 6, "jobs_per_day": 200.0}
#: serve_stream: one feed batch every FEED_INTERVAL seconds keeps the
#: refresh duty cycle near a third (a sacct refresh takes ~1.0-1.2 s, a
#: responses refresh ~0.7-0.8 s on 2 cores).
FEED_INTERVAL = 2.5
#: Reads per second: a process reading for 13 s (its share at --seconds
#: 20) makes >= 1000 reads, enough for a p99 with ten samples beyond it.
READ_RATE = 110.0
#: The request that follows each batch asks for an experiment reading it.
FEED_EXPERIMENT = {"sacct": "F3", "responses": "T1"}


class SetupError(RuntimeError):
    """The workload could not be set up; the run has no result."""


class Tally:
    """Operations attempted and failed, and latency samples by kind."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def op(self, ok: bool, kind: str, seconds: float, why: str = "") -> None:
        with self.lock:
            self.attempted += 1
            if ok:
                self.samples.setdefault(kind, []).append(seconds)
            else:
                self.failed += 1
                self.errors.append(why)

    def fail(self, why: str) -> None:
        """An operation already counted turned out wrong (oracle mismatch)."""
        with self.lock:
            self.failed += 1
            self.errors.append(why)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Context:
    def __init__(self, args, rec) -> None:
        self.args = args
        self.work: Path = args.work
        self.rec = rec  # spans.Recorder, or None when untraced
        self.tally = Tally()
        self.clock = time.monotonic
        self.late: list[float] = []
        self.extra: dict[str, float] = {}
        #: Times a fresh lineage (durable root or service) began.
        self.lineages: list[float] = []
        self.lanes: dict[tuple[int, int], tuple[float, float]] = {}
        #: (due, answered) per serve read, for the traced run's blocked share.
        self.reads: list[tuple[float, float]] = []

    def harness(self):
        """Bookkeeping between units: its own layer in the traced run."""
        if self.rec is None:
            return contextlib.nullcontext()
        return self.rec.work("harness")

    def sleep(self, seconds: float) -> None:
        if self.rec is None:
            time.sleep(seconds)
        else:
            with self.rec.wait("sleep"):
                time.sleep(seconds)


def study_seed(args) -> int:
    return benchstats.derive_seeds(args.workload, args.seed, args.index + 1)[args.index]


def report_argv(seed: int, root: Path, out: Path, *extra: str) -> list[str]:
    return ["report", "--seed", str(seed), "--durable", str(root), "--out", str(out), *extra]


def cli_unit(ctx: Context, kind: str, argv: list[str], out: Path, label: str) -> str | None:
    """One timed ``repro`` command; returns the digest of what it wrote."""
    from repro.cli import main

    with ctx.harness():
        # A full collection between units, so that no unit pays for its
        # predecessors' garbage at a random moment.
        gc.collect()
    t0 = ctx.clock()
    try:
        code = main(argv, out=io.StringIO())
    except Exception as exc:  # the benchmark must count, not die
        ctx.tally.op(False, kind, 0.0, f"{label}: {exc!r}")
        return None
    seconds = ctx.clock() - t0
    if code != 0:
        ctx.tally.op(False, kind, seconds, f"{label}: exit {code}")
        return None
    ctx.tally.op(True, kind, seconds)
    with ctx.harness():
        return _digest(out.read_text(encoding="utf-8"))


def in_memory_render(seed: int) -> str:
    """The oracle for a durable report: a from-scratch in-memory build.

    Deliberately not ``build_report``: that path seeds the study stages
    differently from the pipeline (``repro report --seed S`` and
    ``repro report --durable D --seed S`` print different tables).
    """
    from repro.core.pipeline import ArtifactCache
    from repro.report.document import render_report
    from repro.report.experiments import report_pipeline

    pipeline = report_pipeline(ArtifactCache(), seed=seed, **SCALE)
    results, report = pipeline.run_with_report(executor="sequential")
    artifacts = {n.removeprefix("exp:"): v for n, v in results.items() if n.startswith("exp:")}
    failures = {
        o.name.removeprefix("exp:"): o.error
        for o in report.outcomes
        if o.name.startswith("exp:") and not o.succeeded
    }
    return render_report(results["study"], artifacts, failures)


class ReportCold:
    """Cold durable builds, each followed by a ``--resume`` re-render."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.seed = study_seed(ctx.args)
        self.renders: list[tuple[str, str]] = []

    def setup(self) -> None:
        pass

    def run(self, until: float) -> None:
        ctx, n = self.ctx, 0
        while n == 0 or ctx.clock() < until:
            root = ctx.work / f"root{n}"
            ctx.lineages.append(ctx.clock())
            for kind, extra in (("result", ()), ("cached_result", ("--resume",))):
                out = ctx.work / f"{kind}{n}.md"
                label = f"{kind} {n} (seed {self.seed})"
                digest = cli_unit(ctx, kind, report_argv(self.seed, root, out, *extra), out, label)
                if digest is not None:
                    self.renders.append((label, digest))
            with ctx.harness():
                shutil.rmtree(root, ignore_errors=True)
            n += 1

    def check(self) -> None:
        expected = _digest(in_memory_render(self.seed))
        for label, digest in self.renders:
            if digest != expected:
                self.ctx.tally.fail(f"{label}: render differs from the in-memory build")


class ReportIterate:
    """Edits (``--current`` stepped) interleaved with unchanged replays."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.seed = study_seed(ctx.args)
        self.root = ctx.work / "root"
        self.pairs: list[tuple[int, str | None, str | None]] = []

    def argv(self, current: int, out: Path) -> list[str]:
        return report_argv(self.seed, self.root, out, "--current", str(current))

    def setup(self) -> None:
        from repro.cli import main

        self.ctx.lineages.append(self.ctx.clock())
        out = self.ctx.work / "cold.md"
        code = main(self.argv(SCALE["n_current"], out), out=io.StringIO())
        if code != 0:
            raise SetupError(f"cold build of the iterate root exited {code}")

    def run(self, until: float) -> None:
        ctx, k = self.ctx, 0
        while k == 0 or ctx.clock() < until:
            k += 1
            current = SCALE["n_current"] + k
            edit_out, replay_out = ctx.work / f"edit{k}.md", ctx.work / f"replay{k}.md"
            edit = cli_unit(ctx, "result", self.argv(current, edit_out), edit_out, f"edit {k}")
            replay = cli_unit(
                ctx, "cached_result", self.argv(current, replay_out), replay_out, f"replay {k}"
            )
            self.pairs.append((k, edit, replay))

    def check(self) -> None:
        for k, edit, replay in self.pairs:
            if edit is not None and replay is not None and edit != replay:
                self.ctx.tally.fail(f"replay {k}: render differs from its edit build")


class ServeStream:
    """A resident service: open-loop feed batches beside open-loop reads."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        path = ctx.args.inputs / "stream.json"
        self.stream = json.loads(path.read_text(encoding="utf-8"))
        self.svc = None

    def setup(self) -> None:
        from repro.serve import ServeConfig, StudyService

        self.ctx.lineages.append(self.ctx.clock())
        self.svc = StudyService(self.ctx.work / "svc", ServeConfig(months=6))
        base = self.stream["base"]
        self.svc.ingest("sacct", base["sacct"], batch="base-sacct")
        self.svc.ingest("responses", base["responses"], batch="base-responses")
        first = self.svc.refresh()
        if not first.ran or first.failed:
            raise SetupError(f"first refresh: {first.reason} failed={first.failed}")
        self.ids = self.svc.config.experiment_ids()
        self.wal_bytes = self.svc.wal.stats()["bytes"]

    def _lane(self, body, *args) -> None:
        t0 = self.ctx.clock()
        try:
            body(*args)
        finally:
            self.ctx.lanes[(os.getpid(), threading.get_ident())] = (t0, self.ctx.clock())

    def run(self, until: float) -> None:
        start = self.ctx.clock() + 0.01
        threads = [
            threading.Thread(target=self._lane, args=(self.feed, start, until)),
            threading.Thread(target=self._lane, args=(self.read, start, until)),
        ]
        for t in threads:
            t.start()
        rec = self.ctx.rec
        with rec.wait("join") if rec is not None else contextlib.nullcontext():
            for t in threads:
                t.join()
        stats = self.svc.wal.stats()
        self.ctx.extra["wal_bytes"] = stats["bytes"] - self.wal_bytes
        self.ctx.extra["events_retained"] = len(self.svc.tracer.spans) + len(
            self.svc.tracer.instants
        )

    def feed(self, start: float, until: float) -> None:
        loop = benchstats.OpenLoop(start, FEED_INTERVAL, clock=self.ctx.clock)
        # The second process of a run starts one batch in, with a
        # responses batch, so that a run's two processes give both feeds
        # the same number of samples.
        for batch in self.stream["batches"][self.ctx.args.index % 2 :]:
            due = loop.wait(until, sleep=self.ctx.sleep)
            if due is None:
                break
            self.deliver(batch, due)
        with self.ctx.tally.lock:
            self.ctx.late.extend(loop.late)

    def deliver(self, batch: dict, due: float) -> None:
        ctx, svc, kind, rows = self.ctx, self.svc, batch["kind"], batch["rows"]
        sends = [(len(rows), 0)] + ([(0, len(rows))] if batch["resend"] else [])
        try:
            for accepted, deduped in sends:
                t0 = ctx.clock()
                receipt = svc.ingest(kind, rows, batch=batch["id"])
                ok = receipt.accepted == accepted and receipt.deduped == deduped
                ctx.tally.op(
                    ok, "ingest_ack", ctx.clock() - t0,
                    f"{batch['id']}: accepted {receipt.accepted} deduped {receipt.deduped}",
                )
            answer = svc.request(FEED_EXPERIMENT[kind])
        except Exception as exc:
            ctx.tally.op(False, f"lag_{kind}", 0.0, f"{batch['id']}: {exc!r}")
            return
        ok = answer.status == "fresh" and answer.behind == 0
        ctx.tally.op(
            ok, f"lag_{kind}", ctx.clock() - due,
            f"{batch['id']}: answer {answer.status} behind {answer.behind}",
        )

    def read(self, start: float, until: float) -> None:
        ctx = self.ctx
        loop = benchstats.OpenLoop(start, 1.0 / READ_RATE, clock=ctx.clock)
        j = 0
        while (due := loop.wait(until, sleep=ctx.sleep)) is not None:
            eid = self.ids[j % len(self.ids)]
            j += 1
            try:
                answer = self.svc.request(eid)
            except Exception as exc:
                ctx.tally.op(False, "read", 0.0, f"read {eid}: {exc!r}")
                continue
            done = ctx.clock()
            ctx.tally.op(answer.status == "fresh", "read", done - due, f"read {eid}: {answer.status}")
            ctx.reads.append((due, done))
        with ctx.tally.lock:
            ctx.late.extend(loop.late)

    def check(self) -> None:
        for eid in serve_mismatches(self.svc, self.ids):
            self.ctx.tally.fail(f"served {eid} differs from a batch build of the final WAL")
        self.svc.close()


def serve_mismatches(svc, ids: list[str]) -> list[str]:
    """Experiments whose served artifact is not FRESH or differs from a
    batch ``serve_pipeline`` build over the final WAL chunks in an empty
    cache."""
    from repro.audit.digests import artifact_digest
    from repro.core.pipeline import ArtifactCache
    from repro.serve.pipeline import serve_pipeline

    served = {eid: svc.request(eid) for eid in ids}
    chunks = {kind: svc.wal.chunk(kind) for kind in ("responses", "sacct")}
    expected = serve_pipeline(
        svc.wal_dir, chunks,
        window_seconds=svc.config.window_seconds,
        experiment_ids=ids,
        cache=ArtifactCache(),
    ).run(executor="sequential")
    bad = []
    for eid, answer in served.items():
        built = expected.get(f"exp:{eid}")
        if (
            answer.status != "fresh"
            or built is None
            or artifact_digest(answer.artifact) != artifact_digest(built)
        ):
            bad.append(eid)
    return bad


#: Everything a workload's timed units import, loaded during set-up so
#: that imports are charged to setup_s only (the X* experiments register
#: when repro.report.extensions is imported).
_REPORT_IMPORTS = (
    "repro.cli", "repro.core.journal", "repro.core.trace", "repro.report.document",
    "repro.report.experiments", "repro.report.extensions",
)
IMPORTS = {
    "report_cold": _REPORT_IMPORTS,
    "report_iterate": _REPORT_IMPORTS,
    "serve_stream": ("repro.serve", "repro.report.extensions"),
}
WORKLOADS = {
    "report_cold": ReportCold,
    "report_iterate": ReportIterate,
    "serve_stream": ServeStream,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one measured benchmark process")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--inputs", type=Path, default=None)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)

    for module in IMPORTS[args.workload]:
        importlib.import_module(module)
    imported = time.monotonic()

    rec = None
    if args.traced:
        import spans

        rec = spans.Recorder(args.work / "spans")
        rec.out_dir.mkdir(parents=True, exist_ok=True)
        spans.install(rec)
        # Recording from set-up on: set-up's experiment calls are the
        # "previous artifact" the window's first calls are compared with.
        rec.active = True
    ctx = Context(args, rec)
    workload = WORKLOADS[args.workload](ctx)
    workload.setup()
    ready = time.monotonic()

    main_lane = (os.getpid(), threading.get_ident())
    w0 = ctx.clock()
    if args.seconds > 0:  # zero: a set-up-only process
        workload.run(w0 + args.seconds)
    w1 = ctx.clock()
    if rec is not None:
        rec.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.seconds > 0:
        workload.check()
    tally = ctx.tally
    summary = {
        "setup_s": ready - args.spawned_at,
        "import_s": imported - T_START,
        "peak_rss_mb": peak_rss_mb,
        "window_s": w1 - w0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors[:20],
        "samples": tally.samples,
        "late": ctx.late,
    }
    if rec is not None:
        import layers

        ctx.lanes[main_lane] = (w0, w1)
        summary["layers"] = layers.table(
            rec.collect(), (w0, w1), ctx.lanes, imported - T_START, ctx
        )
    args.out.write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        sys.exit(3)
