"""Incremental serve refreshes equal batch builds, and do only new work.

A refresh catches up a cached WAL reader and extends the feed values it
built last time (``repro.serve.pipeline``). These tests hold that path to
the batch one: after every step of an ingest sequence that rotates
segments, heals a torn tail, recreates the WAL directory, carries poison
rows, re-sends a batch and finally ingests a duplicate job id, every
served artifact (and both feed values) must be byte-identical to a
``serve_pipeline`` build in an empty cache over a copy of the WAL that no
in-process memo has seen.
"""

import io
import shutil

import pytest

import repro.cluster.sacct as sacct_module
import repro.serve.pipeline as serve_pipeline_module
import repro.serve.wal as wal_module
from repro.audit.digests import artifact_digest, structural_digest
from repro.cluster import write_sacct
from repro.core import build_default_study
from repro.core.faults import PoisonRows
from repro.core.pipeline import ArtifactCache
from repro.io import write_responses_jsonl
from repro.serve import ServeConfig, StudyService
from repro.serve.pipeline import serve_pipeline

#: F8 and X9 need more fields and GPU months than this study has; they
#: fail the same way on both paths and are left out to keep it quick.
EXPERIMENTS = ("F1", "F3", "F5", "T1", "T3", "T6", "X1", "X2", "X4", "X7")


@pytest.fixture(scope="module")
def lines():
    study = build_default_study(
        seed=11, n_baseline=30, n_current=30, months=3, jobs_per_day=4.0
    )
    buf = io.StringIO()
    write_responses_jsonl(study.responses, buf)
    responses = buf.getvalue().splitlines()
    buf = io.StringIO()
    write_sacct(study.telemetry, buf)
    sacct = buf.getvalue().splitlines()[1:]  # the header is not a row
    return responses, sacct


def halves(rows):
    """Every other row, then the rest: a base covering every month and
    both cohorts (the study needs both, F5 needs three months) and rows
    arriving late."""
    return rows[0::2], rows[1::2]


@pytest.fixture
def served(monkeypatch):
    """The value each feed step returned last, by (WAL directory, kind)."""
    values = {}
    real = serve_pipeline_module._extend

    def recording(wal, kind, chunk, parse, join):
        values[(wal, kind)] = real(wal, kind, chunk, parse, join)
        return values[(wal, kind)]

    monkeypatch.setattr(serve_pipeline_module, "_extend", recording)
    return values


def open_service(root):
    return StudyService(
        root,
        ServeConfig(months=3, experiments=EXPERIMENTS, wal_rotate_bytes=4096),
    )


def batch_build(svc, scratch):
    """A from-scratch build over a copy of the WAL: a new path, so no
    cached reader or feed value applies, and an empty cache."""
    copy = scratch / "wal-copy"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(svc.wal_dir, copy)
    chunks = {kind: svc.wal.chunk(kind) for kind in ("responses", "sacct")}
    pipeline = serve_pipeline(
        copy,
        chunks,
        window_seconds=svc.config.window_seconds,
        experiment_ids=list(EXPERIMENTS),
        cache=ArtifactCache(),
    )
    results = pipeline.run(executor="sequential", on_error="keep_going")
    serve_pipeline_module.release_feed_memos(copy)
    return results, pipeline.last_report


def assert_matches_batch(svc, served, scratch):
    result = svc.refresh()
    assert result.ran and not result.failed, result.failed
    expected, _ = batch_build(svc, scratch)
    for step, kind in (("responses", "responses"), ("telemetry", "sacct")):
        assert structural_digest(served[(str(svc.wal_dir), kind)]) == (
            structural_digest(expected[step])
        ), step
    for eid in EXPERIMENTS:
        answer = svc.request(eid)
        assert answer.status == "fresh", (eid, answer.reason)
        assert artifact_digest(answer.artifact) == artifact_digest(
            expected[f"exp:{eid}"]
        ), eid


def crash(svc):
    """Abandon a service the way SIGKILL would: its WAL fd closes, but
    nothing in-process is released."""
    svc.wal.close(sync=False)


def test_incremental_refreshes_equal_batch_builds(tmp_path, lines, served):
    responses, sacct = lines
    base, late = halves(sacct)
    r_base, r_late = halves(responses)
    root, scratch = tmp_path / "svc", tmp_path / "scratch"
    scratch.mkdir()
    svc = open_service(root)
    svc.ingest("responses", r_base + PoisonRows(count=2).rows("responses"))
    svc.ingest("sacct", base + PoisonRows(count=2).rows("sacct"))
    assert_matches_batch(svc, served, scratch)

    # Appends that rotate WAL segments, each feed in turn.
    segments = len(list(svc.wal_dir.glob("seg-*.wal")))
    svc.ingest("sacct", late[:60], batch="s1")
    assert len(list(svc.wal_dir.glob("seg-*.wal"))) > segments
    assert_matches_batch(svc, served, scratch)
    svc.ingest("responses", r_late[:10], batch="r1")
    assert_matches_batch(svc, served, scratch)

    # A UTF-8 BOM on the first row of a later batch: a full parse sees
    # that row past line 1 and skips it, so the tail parse must too.
    svc.ingest("responses", ["\ufeff" + r_late[10]], batch="bom")
    assert_matches_batch(svc, served, scratch)

    # A re-sent batch is deduped; one that grew appends only its tail.
    assert svc.ingest("sacct", late[:60], batch="s1").accepted == 0
    assert svc.ingest("sacct", late[:90], batch="s1").accepted == 30
    assert_matches_batch(svc, served, scratch)

    # A torn tail, healed by a new service in the same process.
    crash(svc)
    segment = sorted(svc.wal_dir.glob("seg-*.wal"))[-1]
    with open(segment, "ab") as fh:
        fh.write(b'{"seq": 999, "kind": "sacct", "row": "torn')
    svc = open_service(root)
    assert svc.wal.healed_bytes > 0
    svc.ingest("sacct", late[90:130] + PoisonRows(count=1, seed=5).rows("sacct"))
    svc.ingest("responses", r_late[10:20], batch="r2")
    assert_matches_batch(svc, served, scratch)

    # The WAL directory deleted and recreated at the same path: as many
    # rows as before, in another order, then rows no build has seen.
    crash(svc)
    shutil.rmtree(svc.wal_dir)
    svc = open_service(root)
    svc.ingest(
        "responses",
        r_late[:20] + r_base + PoisonRows(count=2).rows("responses"),
    )
    svc.ingest("responses", r_late[20:])
    svc.ingest("sacct", late[:130] + base + PoisonRows(count=3, seed=9).rows("sacct"))
    svc.ingest("sacct", late[130:])
    assert_matches_batch(svc, served, scratch)

    # A duplicate job id fails the telemetry step with the batch error.
    svc.ingest("sacct", [sacct[100]], batch="dup")
    result = svc.refresh()
    assert result.failed == ("telemetry",)
    _, report = batch_build(svc, scratch)
    errors = {
        o.name: o.error for o in report.outcomes if o.status == "failed"
    }
    served_errors = {
        o.name: o.error for o in result.report.outcomes if o.status == "failed"
    }
    assert served_errors == errors == {"telemetry": errors["telemetry"]}
    assert "duplicate job ids" in errors["telemetry"]
    svc.close()


class TestWorkCount:
    def test_a_sacct_append_parses_and_decodes_only_new_rows(
        self, tmp_path, lines, monkeypatch
    ):
        responses, sacct = lines
        base, late = halves(sacct)
        svc = open_service(tmp_path)
        svc.ingest("responses", responses)
        svc.ingest("sacct", base)
        assert not svc.refresh().failed

        parsed, decoded = [], []
        real_parse_row = sacct_module._parse_row
        real_parse_segment = wal_module._parse_segment

        def counting_parse_row(line, lineno):
            parsed.append(line)
            return real_parse_row(line, lineno)

        def counting_parse_segment(raw):
            out = real_parse_segment(raw)
            decoded.extend(out[0])
            return out

        monkeypatch.setattr(sacct_module, "_parse_row", counting_parse_row)
        monkeypatch.setattr(wal_module, "_parse_segment", counting_parse_segment)
        start = 0
        for k in (1, 17, 60):
            parsed.clear()
            decoded.clear()
            rows = late[start : start + k]
            start += k
            svc.ingest("sacct", rows)
            result = svc.refresh()
            assert not result.failed
            assert len(parsed) == k
            assert [r["row"] for r in decoded] == rows
        svc.close()

    def test_closing_the_service_releases_its_memos(self, tmp_path, lines):
        responses, sacct = lines
        svc = open_service(tmp_path)
        svc.ingest("responses", responses)
        svc.ingest("sacct", sacct)
        svc.refresh()
        key = svc.wal_dir.resolve()
        assert key in wal_module._readers
        assert (key, "sacct") in serve_pipeline_module._built
        svc.close()
        assert key not in wal_module._readers
        assert all(k[0] != key for k in serve_pipeline_module._built)
