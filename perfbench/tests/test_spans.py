"""Self-time attribution adds up to the traced window."""

import pytest

import layers
import spans
from spans import WAIT, WORK

MAIN = (1, 1)
READER = (1, 2)
POOL = (2, 9)


def span(lane, layer, t0, t1, kind=WORK, name="", **attrs):
    return [lane[0], lane[1], layer, name, t0, t1, kind, attrs]


def test_pipeline_waiting_on_its_pool_is_not_work():
    trace = [
        span(MAIN, "core.pipeline", 0.0, 10.0),
        span(POOL, "cluster.workload", 1.0, 4.0),
        span(MAIN, "core.cache.put", 4.0, 5.0),
    ]
    out = spans.attribute(trace, (0.0, 12.0), {MAIN: (0.0, 12.0)})
    assert out["cluster.workload"] == pytest.approx(3.0)
    assert out["core.cache.put"] == pytest.approx(1.0)
    assert out["core.pipeline"] == pytest.approx(6.0)  # 0-1, 5-10
    assert out["unattributed"] == pytest.approx(2.0)  # harness, 10-12
    assert sum(out.values()) == pytest.approx(12.0)


def test_parallel_work_is_split_between_lanes():
    trace = [
        span(MAIN, "core.pipeline", 0.0, 4.0),
        span(POOL, "report.experiments", 0.0, 4.0),
        span((3, 9), "report.experiments", 0.0, 2.0),
        span((3, 9), "synth", 2.0, 4.0),
    ]
    out = spans.attribute(trace, (0.0, 4.0), {MAIN: (0.0, 4.0)})
    assert out == {"report.experiments": pytest.approx(3.0), "synth": pytest.approx(1.0)}


def test_service_lock_waiters_and_sleepers_do_no_work():
    trace = [
        span(MAIN, "loadgen", 0.0, 10.0, WAIT, "join"),
        span(READER, "serve.service", 1.0, 2.5, name="request"),
        span((1, 3), "serve.service", 0.5, 2.0, name="request"),
        span((1, 3), "serve.service", 0.6, 2.0, name="refresh"),
        span((1, 3), "core.pipeline", 0.7, 1.9),
        span((1, 3), "report.experiments", 0.8, 1.8),
        span(READER, "loadgen", 3.0, 10.0, WAIT, "sleep"),
    ]
    lanes = {MAIN: (0.0, 10.0), READER: (0.0, 10.0), (1, 3): (0.0, 2.0)}
    out = spans.attribute(trace, (0.0, 10.0), lanes)
    # The reader's request waits 1.0-2.0 for the lock the feed lane holds;
    # before that both threads share the instants they work in.
    assert out["report.experiments"] == pytest.approx(0.1 + 0.8)
    assert out["serve.service"] == pytest.approx(0.05 + 0.05 + 0.1 + 0.5)
    assert out["core.pipeline"] == pytest.approx(0.1)  # 1.8-1.9, nobody else works
    assert out["unattributed"] == pytest.approx(0.5 + 0.05 + 0.05 + 0.1 + 0.1 + 0.5)
    assert out["loadgen.idle"] == pytest.approx(7.0)
    assert sum(out.values()) == pytest.approx(10.0)


def test_spans_outside_the_window_are_clipped():
    trace = [span(MAIN, "synth", -5.0, 1.0), span(MAIN, "synth", 9.0, 20.0)]
    out = spans.attribute(trace, (0.0, 10.0), {MAIN: (0.0, 10.0)})
    assert out["synth"] == pytest.approx(2.0)
    assert sum(out.values()) == pytest.approx(10.0)


def test_useful_calls_compare_with_the_last_artifact_of_a_lineage():
    exp = [
        span(MAIN, "report.experiments", 0.0, 0.1, name="T1", digest="a"),  # set-up
        span(MAIN, "report.experiments", 2.0, 2.1, name="T1", digest="a"),
        span(MAIN, "report.experiments", 4.0, 4.1, name="T1", digest="b"),
        span(MAIN, "report.experiments", 6.0, 6.1, name="T1", digest="b"),
    ]
    appends = [
        span(MAIN, "serve.wal.append", 1.0, 1.1, name="sacct", accepted=5),
        span(MAIN, "serve.wal.append", 3.0, 3.1, name="responses", accepted=2),
        span(MAIN, "serve.wal.append", 5.0, 5.1, name="sacct", accepted=0),  # a re-send
    ]
    tally = layers.useful_calls(exp, appends, [-1.0], w0=1.0)
    assert tally["all"] == [3, 1]
    assert tally["sacct"] == [1, 0]
    assert tally["responses"] == [2, 1]
    fresh_root = layers.useful_calls(exp, appends, [-1.0, 5.5], w0=1.0)
    assert fresh_root["all"] == [3, 2]


def test_recorder_nests_and_counts(tmp_path):
    rec = spans.Recorder(tmp_path)
    assert rec.begin("synth") is None  # inactive: no spans, no cost
    rec.active = True
    with rec.work("core.pipeline"):
        with rec.work("core.cache.put") as inner:
            rec.count("fsyncs")
            rec.count("fsyncs")
        with rec.wait("sleep"):
            pass
        with rec.work("core.pipeline"):  # recursive: part of the open span
            pass
    assert inner[7] == {"fsyncs": 2}
    assert [s[2] for s in rec.collect()] == ["core.cache.put", "loadgen", "core.pipeline"]
