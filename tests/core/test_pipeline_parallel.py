"""Parallel DAG executor: determinism, scheduling, and single-flight.

The core guarantee is that executor choice is unobservable in the results:
for any valid step DAG, parallel execution returns the same context dict
(same values, same iteration order) and addresses the same cache keys as
sequential execution, including under ``force=True`` and warm caches. The
property-based suite drives that over arbitrary seeded topologies.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.pipeline as pipeline_module
from repro.core import ArtifactCache, Pipeline, PipelineStep
from repro.core.pipeline import PipelineError


def _combine(context, **params):
    """Deterministic, order-sensitive function of declared inputs + params.

    Module-level so the process executor can pickle it.
    """
    acc = tuple(sorted(context.items()))
    return (params.get("salt", 0), acc)


def _make_dag(n_steps: int, edge_bits: int, salts: tuple[int, ...]) -> list[PipelineStep]:
    """Decode a DAG from drawn integers: step i may depend on any j < i."""
    steps = []
    bit = 0
    for i in range(n_steps):
        deps = []
        for j in range(i):
            if (edge_bits >> bit) & 1:
                deps.append(f"s{j}")
            bit += 1
        steps.append(
            PipelineStep(
                name=f"s{i}",
                fn=_combine,
                params={"salt": salts[i % len(salts)] + i},
                depends_on=tuple(deps),
            )
        )
    return steps


@st.composite
def dags(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    edge_bits = draw(st.integers(min_value=0, max_value=2 ** (n * (n - 1) // 2) - 1))
    salts = tuple(draw(st.lists(st.integers(0, 99), min_size=1, max_size=4)))
    return _make_dag(n, edge_bits, salts)


class TestParallelMatchesSequential:
    @settings(max_examples=30, deadline=None)
    @given(dags())
    def test_same_context_and_keys(self, steps):
        seq_pipe = Pipeline(steps, ArtifactCache())
        par_pipe = Pipeline(steps, ArtifactCache())
        seq = seq_pipe.run(max_workers=1)
        par = par_pipe.run(max_workers=4, executor="thread")
        assert seq == par
        assert list(seq) == list(par)  # same iteration order
        assert seq_pipe.keys() == par_pipe.keys()

    @settings(max_examples=15, deadline=None)
    @given(dags())
    def test_force_true_equivalent(self, steps):
        cache = ArtifactCache()
        pipe = Pipeline(steps, cache)
        first = pipe.run(max_workers=4, executor="thread")
        forced = pipe.run(force=True, max_workers=4, executor="thread")
        sequential_forced = Pipeline(steps, ArtifactCache()).run(force=True, max_workers=1)
        assert first == forced == sequential_forced

    @settings(max_examples=15, deadline=None)
    @given(dags())
    def test_warm_cache_equivalent(self, steps):
        cache = ArtifactCache()
        cold = Pipeline(steps, cache).run(max_workers=1)
        warm_pipe = Pipeline(steps, cache)
        warm = warm_pipe.run(max_workers=4, executor="thread")
        assert cold == warm
        assert warm_pipe.last_metrics.steps_cached == len(steps)

    def test_process_executor_matches_sequential(self):
        # One fixed diamond through the real process pool (hypothesis would
        # spawn a pool per example, which is needlessly slow).
        steps = _make_dag(5, edge_bits=0b1011011, salts=(3, 7))
        seq = Pipeline(steps, ArtifactCache()).run(max_workers=1)
        pool = Pipeline(steps, ArtifactCache())
        par = pool.run(max_workers=2, executor="process")
        assert seq == par
        assert pool.last_metrics.mode == "process"


class TestScheduling:
    def test_independent_steps_overlap(self):
        """Two sleep steps on two workers finish in ~one sleep, not two."""
        barrier = threading.Barrier(2, timeout=5)

        def mk(name):
            def fn(context):
                barrier.wait()  # only passes if both steps run concurrently
                return name

            return PipelineStep(name=name, fn=fn)

        pipe = Pipeline([mk("a"), mk("b")])
        out = pipe.run(max_workers=2, executor="thread")
        assert out == {"a": "a", "b": "b"}

    def test_dependency_order_respected(self):
        seen = []
        lock = threading.Lock()

        def mk(name, deps=()):
            def fn(context):
                with lock:
                    seen.append(name)
                return name

            return PipelineStep(name=name, fn=fn, depends_on=tuple(deps))

        Pipeline(
            [mk("a"), mk("b"), mk("c", ("a", "b")), mk("d", ("c",))]
        ).run(max_workers=4, executor="thread")
        assert seen.index("c") > seen.index("a")
        assert seen.index("c") > seen.index("b")
        assert seen.index("d") > seen.index("c")

    def test_step_error_propagates(self):
        def boom(context):
            raise ValueError("step exploded")

        steps = [
            PipelineStep(name="ok", fn=lambda context: 1),
            PipelineStep(name="bad", fn=boom),
        ]
        with pytest.raises(ValueError, match="step exploded"):
            Pipeline(steps).run(max_workers=2, executor="thread")

    def test_none_result_rejected_parallel(self):
        steps = [
            PipelineStep(name="a", fn=lambda context: 1),
            PipelineStep(name="none", fn=lambda context: None),
        ]
        with pytest.raises(PipelineError, match="returned None"):
            Pipeline(steps).run(max_workers=2, executor="thread")

    def test_unknown_executor_rejected(self):
        pipe = Pipeline([PipelineStep(name="a", fn=lambda context: 1)])
        with pytest.raises(PipelineError, match="unknown executor"):
            pipe.run(executor="gpu")

    def test_bad_worker_count_rejected(self):
        pipe = Pipeline([PipelineStep(name="a", fn=lambda context: 1)])
        with pytest.raises(PipelineError, match="max_workers"):
            pipe.run(max_workers=0)


class TestSingleFlight:
    def test_concurrent_get_or_compute_computes_once(self):
        cache = ArtifactCache()
        computes = []

        def slow():
            computes.append(1)
            time.sleep(0.05)
            return "value"

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(cache.get_or_compute("k", slow)))
            for _ in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(computes) == 1
        assert {value for value, _ in results} == {"value"}
        assert sum(1 for _, cached in results if not cached) == 1

    def test_concurrent_pipelines_share_one_compute(self):
        cache = ArtifactCache()
        computes = []

        def fn(context):
            computes.append(1)
            time.sleep(0.05)
            return 42

        def run():
            Pipeline([PipelineStep(name="gen", fn=fn)], cache).run()

        threads = [threading.Thread(target=run) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(computes) == 1  # three pipelines rode the first's flight


def _refuse_pool(*args, **kwargs):
    raise AssertionError("executor='auto' must not start a process pool")


class TestAutoExecutor:
    """``executor="auto"`` (the default) runs in-process, whatever
    ``max_workers`` says; only an explicit executor name starts a pool."""

    @pytest.mark.parametrize("max_workers", [None, 4])
    def test_auto_runs_sequentially(self, monkeypatch, max_workers):
        monkeypatch.setattr(pipeline_module, "ProcessPoolExecutor", _refuse_pool)
        steps = _make_dag(4, edge_bits=0b000111, salts=(1,))
        pipe = Pipeline(steps, ArtifactCache())
        out = pipe.run(max_workers=max_workers)
        assert pipe.last_metrics.mode == "sequential"
        assert pipe.last_metrics.max_workers == 1
        assert out == Pipeline(steps, ArtifactCache()).run(executor="sequential")


class TestMetrics:
    def test_metrics_recorded_per_step(self):
        steps = _make_dag(4, edge_bits=0b000111, salts=(1,))
        pipe = Pipeline(steps, ArtifactCache())
        pipe.run(max_workers=2, executor="thread")
        metrics = pipe.last_metrics
        assert metrics.mode == "thread"
        assert metrics.max_workers == 2
        assert {m.name for m in metrics.steps} == {s.name for s in steps}
        assert metrics.steps_run == len(steps)
        assert metrics.steps_cached == 0
        assert metrics.wall_seconds > 0.0
        assert 0.0 <= metrics.worker_utilization() <= 1.0

    def test_cached_steps_counted(self):
        cache = ArtifactCache()
        steps = _make_dag(3, edge_bits=0b011, salts=(5,))
        Pipeline(steps, cache).run(max_workers=1)
        pipe = Pipeline(steps, cache)
        pipe.run(max_workers=1)
        assert pipe.last_metrics.steps_cached == 3
        assert pipe.last_metrics.steps_run == 0
        assert pipe.last_metrics.mode == "sequential"

    def test_render_mentions_every_step(self):
        pipe = Pipeline(_make_dag(3, edge_bits=0, salts=(2,)), ArtifactCache())
        pipe.run(max_workers=2, executor="thread")
        text = pipe.last_metrics.render()
        for name in ("s0", "s1", "s2"):
            assert name in text
