"""The incremental serve pipeline: WAL feeds → study → experiments.

Mirrors :func:`repro.report.experiments.report_pipeline`, but the study's
inputs come from the service's ingest WAL instead of the synthetic
generators. The dirtiness mechanism is entirely in the params: each feed
step carries its WAL *chunk token* (``"<rows>:<digest>"``, see
:meth:`repro.serve.wal.IngestWAL.chunk`), so the content-addressed cache
keys fold the ingested bytes in. Appending response rows changes only the
``responses`` chunk → new keys for ``responses`` → ``study`` → every
``exp:*``; the ``telemetry`` step's key is untouched and replays from
cache. That is the whole incremental-recompute story — no new cache
machinery, just input hashing where params already live.

Step functions materialize their rows through
:func:`repro.serve.wal.snapshot_rows`, which catches up a per-process
reader of the log and verifies the digest (falling back to a full replay
when the reader no longer matches the disk) — a step can never observe
rows appended after its key was computed, so artifacts are pure functions
of (chunk, params) and restart-after-crash converges to the
byte-identical clean rebuild.

Each feed step also extends what it built last time instead of parsing
every row again: it keeps, per WAL directory, the value it returned and
a digest state over the rows that value came from. When that digest
extended by the rows past them equals the verified chunk, only those
rows are parsed and appended (``JobTable.concat`` or
``ResponseSet.merge``); otherwise the step parses in full. Either way
the value is the one a full parse returns, byte for byte, and a
malformed row reaches the skip counters once. A forked worker starts with no memo.

Poison-row tolerance: both feed steps parse with ``on_bad_rows="skip"``
(the PR-4 tolerant readers), so a malformed ingested row costs a
``SkippedRow`` instant on the trace bus, never a failed subtree. Rows
that are *systematically* fatal further down (a poisoned parse crash) are
the circuit breaker's job (see ``repro.serve.service``).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.cluster.partitions import DEFAULT_CLUSTER
from repro.cluster.records import JobTable
from repro.cluster.sacct import _HEADER, parse_sacct
from repro.core.instrument import build_instrument
from repro.core.pipeline import ArtifactCache, Pipeline, PipelineStep, RetryPolicy, fingerprint_callable
from repro.core.study import Study
from repro.io.jsonl import read_responses_jsonl
from repro.report.experiments import EXPERIMENTS, _experiment_step
from repro.serve.wal import KINDS, digest_rows, parse_chunk, release_reader, snapshot_rows

__all__ = ["serve_pipeline", "INGEST_STEPS", "release_feed_memos"]

#: The two feed steps, by WAL kind. Service-side quarantine logic maps
#: step names back to feeds through this table.
INGEST_STEPS: Mapping[str, str] = {"responses": "responses", "telemetry": "sacct"}


#: (WAL directory, kind) -> (rows parsed, sha256 over them, the value).
_built: dict[tuple[Path, str], tuple[int, Any, Any]] = {}
os.register_at_fork(after_in_child=_built.clear)


def release_feed_memos(wal_dir) -> None:
    """Drop one WAL directory's cached reader and feed values."""
    resolved = Path(wal_dir).resolve()
    for kind in KINDS:
        _built.pop((resolved, kind), None)
    release_reader(resolved)


def _extend(wal, kind: str, chunk: str, parse: Callable, join: Callable):
    """The feed's value for ``chunk``, reusing the value built last time
    when the rows it came from are a prefix of this chunk's rows."""
    rows = snapshot_rows(wal, kind, chunk)
    count, digest = parse_chunk(chunk)
    key = (Path(wal).resolve(), kind)
    memo = _built.get(key)
    value = None
    if memo is not None and memo[0] <= count:
        done, state, prior = memo
        # The snapshot's digest is verified, so matching it with the old
        # rows' state extended by rows[done:] proves the old rows equal
        # rows[:done].
        h = digest_rows(rows[done:], state)
        if h.hexdigest().startswith(digest):
            try:
                # The blank first line keeps the tail's first row off line
                # 1, where the readers strip a UTF-8 BOM that a full parse
                # leaves on any later row.
                if done == count:
                    value = prior
                else:
                    value = join(prior, parse([""] + rows[done:]))
            except Exception:
                value = None  # a full parse raises the batch path's error
    if value is None:
        h = digest_rows(rows)
        value = parse(rows)
    _built[key] = (count, h, value)
    return value


def _parse_responses(rows):
    from repro.survey.responses import ResponseSet

    questionnaire = build_instrument()
    if not rows:
        return ResponseSet(questionnaire, [])
    text = "\n".join(rows) + "\n"
    return read_responses_jsonl(
        questionnaire, text, on_bad_rows="skip", skipped=[]
    )


def _parse_sacct(rows):
    text = _HEADER + "\n" + "\n".join(rows) + ("\n" if rows else "")
    return parse_sacct(text, on_bad_rows="skip", skipped=[])


def _responses_step(context, wal, chunk):
    from repro.survey.responses import ResponseSet

    return _extend(wal, "responses", chunk, _parse_responses, ResponseSet.merge)


def _telemetry_step(context, wal, chunk):
    return _extend(wal, "sacct", chunk, _parse_sacct, JobTable.concat)


def _serve_study_step(context, window_seconds, baseline_cohort, current_cohort):
    return Study(
        responses=context["responses"],
        telemetry=context["telemetry"],
        cluster=DEFAULT_CLUSTER,
        window_seconds=window_seconds,
        baseline_cohort=baseline_cohort,
        current_cohort=current_cohort,
    )


def serve_pipeline(
    wal_dir,
    chunks: Mapping[str, str],
    *,
    window_seconds: float,
    experiment_ids: Sequence[str] | None = None,
    exclude: Sequence[str] = (),
    baseline_cohort: str = "2011",
    current_cohort: str = "2024",
    cache: ArtifactCache | None = None,
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
) -> Pipeline:
    """Build the cached ingest→study→experiments DAG for one refresh.

    ``chunks`` maps WAL kind (``"responses"``/``"sacct"``) to the chunk
    token each feed step should pin — normally the WAL's current frontier,
    but the service pins a *quarantined* feed to its last-good token so
    the rest of the study keeps refreshing on stale-but-sane input.
    ``exclude`` drops quarantined ``exp:<id>`` steps from the DAG
    entirely (their subtrees are circuit-broken). ``retry``/``timeout``
    stay out of cache keys, as everywhere else.
    """
    wal = str(wal_dir)
    ids = sorted(EXPERIMENTS) if experiment_ids is None else list(experiment_ids)
    unknown = [eid for eid in ids if eid not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments {unknown}; known: {sorted(EXPERIMENTS)}")
    excluded = set(exclude)
    steps = [
        PipelineStep(
            name="responses",
            fn=_responses_step,
            params={"wal": wal, "chunk": str(chunks["responses"])},
        ),
        PipelineStep(
            name="telemetry",
            fn=_telemetry_step,
            params={"wal": wal, "chunk": str(chunks["sacct"])},
        ),
        PipelineStep(
            name="study",
            fn=_serve_study_step,
            params={
                "window_seconds": float(window_seconds),
                "baseline_cohort": baseline_cohort,
                "current_cohort": current_cohort,
            },
            depends_on=("responses", "telemetry"),
        ),
    ]
    for eid in ids:
        name = f"exp:{eid}"
        if name in excluded:
            continue
        steps.append(
            PipelineStep(
                name=name,
                fn=_experiment_step,
                params={
                    "experiment_id": eid,
                    "fn_fingerprint": fingerprint_callable(EXPERIMENTS[eid].fn),
                },
                depends_on=("study",),
            )
        )
    return Pipeline(steps, cache, default_retry=retry, default_timeout=timeout)
