"""The output oracles fail on a deliberately altered artifact."""

import argparse
import io
from dataclasses import replace

import pytest

import worker
from repro.cluster import write_sacct
from repro.core import build_default_study
from repro.io import write_responses_jsonl
from repro.serve import ServeConfig, StudyService


@pytest.fixture(scope="module")
def lines():
    study = build_default_study(seed=7, n_baseline=10, n_current=10, months=1, jobs_per_day=2.0)
    buf = io.StringIO()
    write_responses_jsonl(study.responses, buf)
    responses = buf.getvalue().splitlines()
    buf = io.StringIO()
    write_sacct(study.telemetry, buf)
    return responses, buf.getvalue().splitlines()


@pytest.fixture
def service(tmp_path, lines):
    responses, sacct = lines
    svc = StudyService(tmp_path, ServeConfig(months=1, experiments=("T1", "X1")))
    svc.ingest("responses", responses[:-3], batch="r")
    svc.ingest("sacct", sacct, batch="s")
    svc.refresh()
    svc.ingest("responses", responses, batch="r")  # the rest, through the stream path
    svc.request("T1")
    yield svc
    svc.close()


def test_serve_oracle_accepts_the_served_artifacts(service):
    assert worker.serve_mismatches(service, ["T1", "X1"]) == []


def test_serve_oracle_rejects_an_altered_artifact(service, monkeypatch):
    real = service.request

    def altered(eid, deadline=None):
        answer = real(eid, deadline)
        if eid != "X1":
            return answer
        table = answer.artifact
        return replace(answer, artifact=replace(table, title=table.title + " (altered)"))

    monkeypatch.setattr(service, "request", altered)
    assert worker.serve_mismatches(service, ["T1", "X1"]) == ["X1"]


def test_serve_oracle_rejects_a_stale_answer(service, lines):
    responses, _ = lines
    service.ingest("responses", responses + ['{"bad": true}'], batch="r")
    service.config = replace(service.config, default_deadline=0.0)
    service.last_refresh_seconds = 1.0  # any refresh now outlasts the deadline: shed STALE
    assert worker.serve_mismatches(service, ["T1"]) == ["T1"]


def _ctx(tmp_path):
    args = argparse.Namespace(workload="report_iterate", seed=1, index=0, work=tmp_path)
    return worker.Context(args, None)


def test_replay_oracle_rejects_a_replay_that_differs_from_its_edit(tmp_path):
    ctx = _ctx(tmp_path)
    iterate = worker.ReportIterate(ctx)
    iterate.pairs = [(1, "aaa", "aaa"), (2, "bbb", "bbc")]
    iterate.check()
    assert ctx.tally.failed == 1 and "replay 2" in ctx.tally.errors[0]


def test_cold_oracle_rejects_an_altered_render(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "in_memory_render", lambda seed: "the report\n")
    ctx = _ctx(tmp_path)
    cold = worker.ReportCold(ctx)
    cold.renders = [
        ("result 0", worker._digest("the report\n")),
        ("cached_result 0", worker._digest("the report, altered\n")),
    ]
    cold.check()
    assert ctx.tally.failed == 1 and "cached_result 0" in ctx.tally.errors[0]
