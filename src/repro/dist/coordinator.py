"""The fleet coordinator: schedule DAG frontier steps onto worker processes.

This is the ``executor="dist"`` backend. The coordinator owns the
scheduling state (frontier, leases, poison counts) and the run-level
durability surfaces (journal, tracer, metrics); workers own nothing but
their current task. All coordination flows through the run directory in
the shared cache filesystem — see :mod:`repro.dist.leases` for the file
protocol — so the fleet is multi-host-shaped even when every worker is a
local fork.

Failure handling, in increasing order of severity:

* **Worker death** (SIGKILL, OOM, lost host): detected by the
  :class:`~repro.dist.heartbeats.FleetMonitor` (same-host pid probe or
  heartbeat-counter staleness past ``lease_ttl``). The dead worker's
  in-flight steps are reassigned to surviving idle workers under a bumped
  epoch; the old epoch's publishes are fenced off by the assignment
  record, and at-most-once publish is preserved by the cache entry lock +
  peek-before-put (see :mod:`repro.dist.worker`).
* **Poisoned step**: a step that consumes ``poison_threshold`` distinct
  workers is quarantined — terminal failure, downstream subtree skipped
  exactly like ``on_error="keep_going"`` skips it.
* **Straggler**: an in-flight step on a *live* worker older than
  ``speculate_after`` gets a speculative duplicate at the same epoch on
  an idle worker; whichever publishes first wins, the other observes the
  published value and stands down.
* **Total fleet loss**: every remaining step is marked failed ("all
  workers lost") / skipped, and the run returns a DEGRADED
  :class:`~repro.core.metrics.RunReport` (CLI exit 3) instead of hanging.

``KeyboardInterrupt`` propagates after the ``finally`` block has stopped
the fleet and removed the run directory (leases and heartbeats included),
so an interrupted dist run leaves only the journal and cache — exactly
what ``--resume`` needs.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.logging import get_logger, kv
from repro.core.metrics import StepOutcome
from repro.dist import leases as lease_io
from repro.dist.heartbeats import FleetMonitor
from repro.dist.worker import DistConfig, RunSpec, _forked_worker, write_spec
from repro.obs.spine import merge_segments

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import BackendContext, Pipeline

_log = get_logger(__name__)

__all__ = ["run_coordinator"]

_mp = multiprocessing.get_context("fork")


@dataclass
class _Flight:
    """Coordinator-side view of one in-flight step."""

    step: str
    epoch: int
    workers: set[str]
    assigned_at: float  # perf_counter of the *current* epoch's assignment
    ready_at: float  # when the step's last dependency resolved
    first_assigned_at: float
    trace_start: float  # tracer.now() at first assignment
    speculated: bool = False
    killed_by: set[str] = field(default_factory=set)  # dead workers consumed


def _resolve_config(ctx: "BackendContext") -> DistConfig:
    options = dict(ctx.options or {})
    config = options.pop("config", None)
    if config is None:
        options.setdefault("workers", ctx.workers)
        config = DistConfig(**options)
    else:
        if options:
            raise ValueError(
                f"backend_options mixes a DistConfig with loose keys {sorted(options)}"
            )
        if ctx.requested_workers is not None:
            config = replace(config, workers=ctx.requested_workers)
    return config


def run_coordinator(pipeline: "Pipeline", ctx: "BackendContext") -> dict[str, Any]:
    """Execute the pipeline on a worker fleet; the ``dist`` backend body."""
    from repro.core.pipeline import PipelineError

    cache = pipeline.cache
    if cache.root is None:
        raise PipelineError(
            "executor='dist' needs a disk-backed ArtifactCache: workers are "
            "separate processes and the cache directory is the only channel "
            "between them"
        )
    try:
        pickle.dumps([(step.fn, dict(step.params)) for step in pipeline.steps])
    except Exception:
        raise PipelineError(
            "executor='dist' requires every step function and param to pickle "
            "(workers load the pipeline from the run spec)"
        ) from None
    chaos = ctx.fault_plan
    if chaos is not None and not hasattr(chaos, "bind"):
        raise PipelineError(
            "executor='dist' takes worker-level chaos (repro.core.faults."
            "WorkerFaultPlan); coordinator-side FaultPlan injection has no "
            "worker process to fire in"
        )
    config = _resolve_config(ctx)
    ctx.metrics.max_workers = config.workers

    run_id = ctx.journal.run_id if ctx.journal is not None else None
    if run_id is None:
        from repro.core.journal import new_run_id

        run_id = new_run_id()
    run_dir = lease_io.run_dir_for(cache.root, run_id)
    spec = RunSpec(
        run_id=run_id,
        steps=tuple(pipeline.steps),
        keys=dict(ctx.keys),
        retries={s.name: pipeline._policy_for(s) for s in pipeline.steps},
        timeouts={s.name: pipeline._timeout_for(s) for s in pipeline.steps},
        cache_root=str(cache.root),
        cache_locking=cache.locking,
        force=ctx.force,
        config=config,
        chaos=chaos,
    )
    write_spec(run_dir, spec)

    worker_ids = [f"w{i}" for i in range(config.workers)]
    monitor = FleetMonitor(run_dir / "heartbeats", config.lease_ttl)
    for wid in worker_ids:
        monitor.register(wid)
    procs: dict[str, multiprocessing.process.BaseProcess] = {}
    if config.spawn_workers:
        for wid in worker_ids:
            proc = _mp.Process(
                target=_forked_worker, args=(str(run_dir), wid), daemon=True
            )
            proc.start()
            procs[wid] = proc

    sched = _Scheduler(pipeline, ctx, config, run_dir, monitor)
    try:
        sched.replay_resumed()
        sched.seed_frontier()
        while not sched.finished():
            sched.tick()
            if sched.pending_raise is not None:
                break
            time.sleep(config.tick_interval)
    finally:
        lease_io.signal_stop(run_dir)
        _stop_workers(procs, config.worker_grace)
        stats = sched.fleet_stats()
        spine = merge_segments(run_dir, tracer=ctx.tracer)
        stats["worker_pids"] = spine["workers"]
        stats["registry"] = spine["registry"]
        ctx.metrics.backend_stats = stats
        lease_io.sweep_dead_tmp(cache.root)
        lease_io.cleanup_run_dir(run_dir)
    if sched.pending_raise is not None:
        raise sched.pending_raise
    return sched.collect_values()


def _stop_workers(procs: dict[str, Any], grace: float) -> None:
    deadline = time.monotonic() + grace
    for proc in procs.values():
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
    for proc in procs.values():
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
        if proc.is_alive():  # pragma: no cover - terminate() refused
            proc.kill()
            proc.join(timeout=1.0)


class _Scheduler:
    """All coordinator state for one run; one ``tick()`` per scheduling beat."""

    def __init__(
        self,
        pipeline: "Pipeline",
        ctx: "BackendContext",
        config: DistConfig,
        run_dir: Path,
        monitor: FleetMonitor,
    ) -> None:
        self.pipeline = pipeline
        self.ctx = ctx
        self.config = config
        self.run_dir = run_dir
        self.monitor = monitor
        self.steps = {s.name: s for s in pipeline.steps}
        self.order = [s.name for s in pipeline.steps]
        self.done: set[str] = set()
        self.unavailable: set[str] = set()
        self.in_flight: dict[str, _Flight] = {}
        self.ready: list[str] = []
        self.ready_at: dict[str, float] = {}
        self.pending_deps: dict[str, set[str]] = {
            s.name: set(s.depends_on) for s in pipeline.steps
        }
        self.dependents: dict[str, list[str]] = {name: [] for name in self.order}
        for s in pipeline.steps:
            for dep in s.depends_on:
                self.dependents[dep].append(s.name)
        self.known_dead: set[str] = set()
        self.reassignments = 0
        self.speculations = 0
        self.quarantined: list[str] = []
        self.degraded_all_lost = False
        self.pending_raise: BaseException | None = None
        self.t0 = ctx.t0

    # -- lifecycle -------------------------------------------------------------

    def finished(self) -> bool:
        return len(self.done) + len(self.unavailable) >= len(self.order)

    def replay_resumed(self) -> None:
        """Serve journal-completed steps straight from the cache (PR-4)."""
        resume, ctx = self.ctx.resume, self.ctx
        if resume is None or ctx.force:
            return
        for name in self.order:
            key = ctx.keys[name]
            if resume.completed.get(name) != key:
                continue
            value = self.pipeline.cache.peek(key)
            if value is None:
                continue  # artifact vanished; the step re-executes normally
            self.pipeline.cache.hits += 1
            if ctx.journal is not None:
                ctx.journal.step_start(name, key)
            self._record_success(name, "replayed", attempts=0, wall=0.0, worker=None)

    def seed_frontier(self) -> None:
        now = time.perf_counter()
        for name in self.order:
            if name in self.done:
                continue
            self.pending_deps[name] -= self.done
            if not self.pending_deps[name]:
                self.ready.append(name)
                self.ready_at[name] = now

    def tick(self) -> None:
        advanced = self.monitor.observe()
        self._trace_renewals(advanced)
        self.collect_results()
        self.handle_deaths()
        self.maybe_speculate()
        self.assign_ready()
        self.check_all_lost()

    # -- results ---------------------------------------------------------------

    def collect_results(self) -> None:
        for result in lease_io.iter_results(self.run_dir):
            flight = self.in_flight.get(result.step)
            if (
                flight is None
                or result.epoch != flight.epoch
                or result.worker not in flight.workers
                or result.outcome == "fenced"
            ):
                continue  # stale epoch, unknown worker, or fenced — ignore
            if result.outcome in ("ok", "retried", "cached"):
                if not result.stored:
                    self._record_failure(
                        result.step, "failed",
                        f"dist: artifact for {result.step!r} was not stored "
                        "(cache unavailable on the worker)",
                        result.attempts, result.wall, cache_unavailable=True,
                    )
                    continue
                del self.in_flight[result.step]
                self._record_success(
                    result.step, result.outcome, result.attempts, result.wall,
                    worker=result.worker, flight=flight,
                )
                self._resolve_dependents(result.step)
            else:  # failed | timeout
                self._record_failure(
                    result.step, result.outcome, result.error,
                    result.attempts, result.wall,
                )

    # -- liveness --------------------------------------------------------------

    def _trace_renewals(self, advanced: set[str]) -> None:
        tracer = self.ctx.tracer
        if tracer is None or not advanced:
            return
        for flight in self.in_flight.values():
            for wid in sorted(flight.workers & advanced):
                tracer.instant(
                    "lease.renew", "dist", step=flight.step, holder=wid,
                    epoch=flight.epoch,
                )

    def handle_deaths(self) -> None:
        newly_dead = self.monitor.dead_workers() - self.known_dead
        if not newly_dead:
            return
        tracer = self.ctx.tracer
        for wid in sorted(newly_dead):
            self.known_dead.add(wid)
            gap = self.monitor.heartbeat_gap(wid)
            _log.warning(kv("dist.worker_dead", worker=wid, gap=round(gap, 3)))
            if tracer is not None:
                tracer.instant(
                    "heartbeat.gap", "dist", holder=wid, gap=round(gap, 3)
                )
        for name in list(self.in_flight):
            flight = self.in_flight[name]
            dead_here = flight.workers & newly_dead
            if not dead_here:
                continue
            flight.workers -= dead_here
            flight.killed_by |= dead_here
            if tracer is not None:
                for wid in sorted(dead_here):
                    tracer.instant(
                        "lease.expire", "dist", step=name, holder=wid,
                        epoch=flight.epoch,
                    )
            if len(flight.killed_by) >= self.config.poison_threshold:
                self._quarantine(name, flight)
            elif not flight.workers:
                self._reassign(name, flight)

    def _quarantine(self, name: str, flight: _Flight) -> None:
        del self.in_flight[name]
        self.quarantined.append(name)
        if self.ctx.tracer is not None:
            self.ctx.tracer.instant(
                "step.quarantine", "dist", step=name,
                workers_killed=sorted(flight.killed_by),
            )
        _log.warning(
            kv("dist.quarantine", step=name, workers_killed=len(flight.killed_by))
        )
        self._record_failure(
            name, "failed",
            f"poisoned: step killed {len(flight.killed_by)} distinct workers "
            f"({sorted(flight.killed_by)}); quarantined",
            attempts=0, wall=time.perf_counter() - flight.first_assigned_at,
        )

    def _reassign(self, name: str, flight: _Flight) -> None:
        """Hand a dead worker's step to a survivor under a bumped epoch."""
        replacement = self._pick_idle_worker()
        if replacement is None:
            return  # no idle survivor yet; retried next tick (workers empty)
        flight.epoch += 1
        flight.workers = {replacement}
        flight.assigned_at = time.perf_counter()
        flight.speculated = False
        self.reassignments += 1
        lease_io.write_assignment(
            self.run_dir,
            lease_io.Assignment(step=name, epoch=flight.epoch, workers=(replacement,)),
        )
        if self.ctx.tracer is not None:
            self.ctx.tracer.instant(
                "step.reassign", "dist", step=name, holder=replacement,
                epoch=flight.epoch,
            )
        if self.ctx.journal is not None:
            self.ctx.journal.step_reassign(
                name, self.ctx.keys[name], worker=replacement, epoch=flight.epoch
            )
        _log.info(kv("dist.reassign", step=name, worker=replacement, epoch=flight.epoch))

    # -- speculation -----------------------------------------------------------

    def maybe_speculate(self) -> None:
        deadline = self.config.speculate_after
        if deadline is None:
            return
        now = time.perf_counter()
        for name, flight in self.in_flight.items():
            if flight.speculated or not flight.workers:
                continue
            if now - flight.assigned_at <= deadline:
                continue
            twin = self._pick_idle_worker()
            if twin is None:
                continue
            flight.workers.add(twin)
            flight.speculated = True
            self.speculations += 1
            lease_io.write_assignment(
                self.run_dir,
                lease_io.Assignment(
                    step=name, epoch=flight.epoch,
                    workers=tuple(sorted(flight.workers)),
                ),
            )
            if self.ctx.tracer is not None:
                self.ctx.tracer.instant(
                    "step.speculate", "dist", step=name, holder=twin,
                    epoch=flight.epoch,
                )
            _log.info(kv("dist.speculate", step=name, worker=twin))

    # -- assignment ------------------------------------------------------------

    def _busy_workers(self) -> set[str]:
        busy: set[str] = set()
        for flight in self.in_flight.values():
            busy |= flight.workers
        return busy

    def _pick_idle_worker(self) -> str | None:
        idle = self.monitor.alive_workers() - self._busy_workers() - self.known_dead
        return min(idle) if idle else None

    def assign_ready(self) -> None:
        if not self.ready:
            # Also drives reassignment retries for steps whose death beat
            # every idle worker (flight.workers empty).
            for name, flight in self.in_flight.items():
                if not flight.workers:
                    self._reassign(name, flight)
            return
        remaining: list[str] = []
        for name in self.ready:
            wid = self._pick_idle_worker()
            if wid is None:
                remaining.append(name)
                continue
            self._assign(name, wid)
        self.ready = remaining
        for name, flight in self.in_flight.items():
            if not flight.workers:
                self._reassign(name, flight)

    def _assign(self, name: str, wid: str) -> None:
        now = time.perf_counter()
        trace_start = self.ctx.tracer.now() if self.ctx.tracer is not None else 0.0
        self.in_flight[name] = _Flight(
            step=name, epoch=0, workers={wid}, assigned_at=now,
            ready_at=self.ready_at.get(name, now), first_assigned_at=now,
            trace_start=trace_start,
        )
        lease_io.write_assignment(
            self.run_dir, lease_io.Assignment(step=name, epoch=0, workers=(wid,))
        )
        if self.ctx.journal is not None:
            self.ctx.journal.step_start(name, self.ctx.keys[name])
        if self.ctx.tracer is not None:
            self.ctx.tracer.instant(
                "lease.acquire", "dist", step=name, holder=wid, epoch=0
            )

    def _resolve_dependents(self, name: str) -> None:
        now = time.perf_counter()
        for child in self.dependents[name]:
            deps = self.pending_deps[child]
            deps.discard(name)
            if not deps and child not in self.done and child not in self.unavailable:
                self.ready.append(child)
                self.ready_at[child] = now

    # -- degradation -----------------------------------------------------------

    def check_all_lost(self) -> None:
        if self.finished() or self.monitor.alive_workers():
            return
        self.degraded_all_lost = True
        _log.warning(kv("dist.all_workers_lost", remaining=len(self.order) - len(self.done)))
        for name in list(self.in_flight):
            del self.in_flight[name]
            self._record_failure(
                name, "failed", "all workers lost; run degraded", 0, 0.0
            )
        for name in list(self.ready):
            self._record_failure(
                name, "failed", "all workers lost; run degraded", 0, 0.0
            )
        self.ready.clear()
        # Anything still blocked is now permanently starved.
        for name in self.order:
            if (
                name not in self.done
                and name not in self.unavailable
            ):
                self._record_skip(name, ["all workers lost"])

    # -- recording (journal + metrics + trace, mirroring Pipeline._record_*) ---

    def _record_success(
        self,
        name: str,
        outcome: str,
        attempts: int,
        wall: float,
        worker: str | None,
        flight: _Flight | None = None,
    ) -> None:
        ctx = self.ctx
        self.done.add(name)
        key = ctx.keys[name]
        now = time.perf_counter()
        queue_seconds = (
            max(0.0, flight.first_assigned_at - flight.ready_at)
            if flight is not None
            else 0.0
        )
        started = flight.first_assigned_at - self.t0 if flight is not None else 0.0
        ctx.outcomes[name] = StepOutcome(name, outcome, attempts, "", wall)
        ctx.metrics.record(
            name, key, outcome == "cached", wall, started, now - self.t0,
            outcome=outcome, attempts=attempts,
            queue_seconds=queue_seconds, compute_seconds=wall,
        )
        if ctx.tracer is not None:
            start = flight.trace_start if flight is not None else ctx.tracer.now()
            ctx.tracer.add_span(
                f"step:{name}", "step", start, ctx.tracer.now(),
                tid=f"dist:{worker}" if worker is not None else "dist",
                step=name, key=key, deps=list(self.steps[name].depends_on),
                outcome=outcome, attempts=attempts,
                compute=round(wall, 6), worker=worker,
            )
        if ctx.journal is not None:
            ctx.journal.step_done(name, key, outcome, attempts)
        if name in self.pending_deps:
            self.pending_deps[name].clear()

    def _record_failure(
        self,
        name: str,
        status: str,
        error: str,
        attempts: int,
        wall: float,
        cache_unavailable: bool = False,
    ) -> None:
        from repro.core.pipeline import PipelineError, StepTimeout

        ctx = self.ctx
        self.in_flight.pop(name, None)
        self.unavailable.add(name)
        _log.warning(kv("step.failed", step=name, status=status, attempts=attempts))
        ctx.outcomes[name] = StepOutcome(
            name, status, attempts, error, wall, cache_unavailable
        )
        ctx.metrics.record(
            name, ctx.keys[name], False, wall, 0.0, 0.0, outcome=status,
            attempts=attempts, error=error, cache_unavailable=cache_unavailable,
        )
        if ctx.tracer is not None:
            now = ctx.tracer.now()
            ctx.tracer.add_span(
                f"step:{name}", "step", now, now,
                step=name, key=ctx.keys[name],
                deps=list(self.steps[name].depends_on),
                outcome=status, attempts=attempts, error=error.split("(")[0],
                wall=round(wall, 6),
            )
        if ctx.journal is not None:
            ctx.journal.step_done(name, ctx.keys[name], status, attempts, error=error)
        self._skip_subtree(name)
        if ctx.on_error == "raise" and self.pending_raise is None:
            exc_type = StepTimeout if status == "timeout" else PipelineError
            self.pending_raise = exc_type(
                f"step {name!r} {status} in dist run: {error}"
            )

    def _record_skip(self, name: str, failed_deps: list[str]) -> None:
        self.unavailable.add(name)
        self.pipeline._record_skip(
            self.steps[name], self.ctx.keys, failed_deps, self.ctx.metrics,
            self.ctx.outcomes, self.ctx.journal, self.ctx.tracer,
        )

    def _skip_subtree(self, failed: str) -> None:
        """Cascade ``skipped_upstream`` through the downstream subtree."""
        frontier = [failed]
        while frontier:
            current = frontier.pop()
            for child in self.dependents[current]:
                if child in self.done or child in self.unavailable:
                    continue
                self._record_skip(child, [current])
                if child in self.ready:
                    self.ready.remove(child)
                frontier.append(child)

    # -- output ----------------------------------------------------------------

    def collect_values(self) -> dict[str, Any]:
        """Load every successful step's artifact, in step order."""
        values: dict[str, Any] = {}
        for name in self.order:
            if name not in self.done:
                continue
            value = self.pipeline.cache.peek(self.ctx.keys[name])
            if value is not None:
                values[name] = value
        return values

    def fleet_stats(self) -> dict[str, Any]:
        publishes: dict[str, int] = {}
        for record in lease_io.collect_worker_logs(self.run_dir):
            if record.get("event") == "publish":
                step = str(record.get("step"))
                publishes[step] = publishes.get(step, 0) + 1
        return {
            "backend": "dist",
            "workers": self.config.workers,
            "dead_workers": sorted(self.known_dead),
            "reassignments": self.reassignments,
            "speculations": self.speculations,
            "quarantined": list(self.quarantined),
            "degraded_all_lost": self.degraded_all_lost,
            "publishes": publishes,
        }
