"""Percentile rule, open-loop accounting and the metric-name grammar."""

import json

import pytest

import benchstats
from conftest import BENCH


class TestTailPercentile:
    @pytest.mark.parametrize(
        "n, expected",
        [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
         (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
    )
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert benchstats.tail_percentile(n) == expected

    def test_ten_samples_lie_beyond_the_chosen_percentile(self):
        xs = [float(i) for i in range(1000)]
        p = benchstats.tail_percentile(len(xs))
        cut = benchstats.quantile(xs, p / 100)
        assert sum(x > cut for x in xs) >= 10

    def test_quantile_interpolates(self):
        assert benchstats.quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
        assert benchstats.quantile([5.0], 0.99) == 5.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class TestOpenLoop:
    def test_due_times_follow_the_schedule_not_completions(self):
        clock = FakeClock()
        loop = benchstats.OpenLoop(start=1.0, interval=0.5, clock=clock)
        latencies = []
        while (due := loop.wait(until=4.0, sleep=clock.sleep)) is not None:
            # The op due at 2.0 stalls for 1.2 s; the ops due during the
            # stall are sent late and their latency counts from due time.
            clock.now += 1.2 if due == 2.0 else 0.01
            latencies.append((due, clock.now - due))
        dues = [d for d, _ in latencies]
        assert dues == [1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
        by_due = dict(latencies)
        assert by_due[2.0] == pytest.approx(1.2)
        assert by_due[2.5] == pytest.approx(0.71)  # sent at 3.2, answered at 3.21
        assert by_due[3.0] == pytest.approx(0.22)
        assert by_due[3.5] == pytest.approx(0.01)

    def test_lateness_is_recorded_per_send(self):
        clock = FakeClock()
        loop = benchstats.OpenLoop(start=0.0, interval=1.0, clock=clock)
        loop.wait(until=10.0, sleep=clock.sleep)
        clock.now = 2.5  # the generator itself was held up
        loop.wait(until=10.0, sleep=clock.sleep)
        loop.wait(until=10.0, sleep=clock.sleep)
        assert loop.late == [0.0, pytest.approx(1.5), pytest.approx(0.5)]

    def test_nothing_is_sent_at_or_after_the_end(self):
        clock = FakeClock()
        loop = benchstats.OpenLoop(start=0.0, interval=1.0, clock=clock)
        sent = 0
        while loop.wait(until=3.0, sleep=clock.sleep) is not None:
            sent += 1
        assert sent == 3 and clock.now == 2.0

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            benchstats.OpenLoop(0.0, 0.0)


class TestNames:
    @pytest.mark.parametrize(
        "name", ["setup_s", "core.cache.get_s", "import.s", "x", "9lives", "a-b.c_d"]
    )
    def test_valid(self, name):
        assert benchstats.valid_name(name)

    @pytest.mark.parametrize(
        "name", ["", "_x", ".s", "-s", "a b", "a/b", "é", "x" * 65, "read:p99"]
    )
    def test_invalid(self, name):
        assert not benchstats.valid_name(name)

    @pytest.mark.parametrize("unit", ["ms", "s", "1/s", "count", "%", "MB", "ratio"])
    def test_units(self, unit):
        assert benchstats.valid_unit(unit)

    @pytest.mark.parametrize("unit", ["", "m s", "x" * 17, "µs"])
    def test_bad_units(self, unit):
        assert not benchstats.valid_unit(unit)


def test_benchmark_json_follows_the_grammar():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(benchstats.valid_name(n) for n in names)
    assert len(names) == len(set(names))
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        assert benchstats.valid_unit(m["unit"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and benchstats.valid_unit(m["unit"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_seed_sequences_are_fixed():
    assert benchstats.derive_seeds("w", 3, 4) == benchstats.derive_seeds("w", 3, 4)
    assert benchstats.derive_seeds("w", 3, 2) == benchstats.derive_seeds("w", 3, 4)[:2]
    assert benchstats.derive_seeds("w", 3, 4) != benchstats.derive_seeds("w", 4, 4)


def test_reference_loop_reports_positive_milliseconds():
    assert benchstats.reference_ms(repeats=2) > 0
