"""Integration tests: every registered experiment regenerates from a study."""

import pytest

import repro.report.experiments as experiments_module
from repro.report import EXPERIMENTS, FigureSeries, Table, run_all_experiments, run_experiment
from repro.report.experiments import run_all_experiments_with_metrics


class TestRegistry:
    def test_core_and_extension_ids_registered(self):
        core = {
            "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8",
            "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8",
        }
        extensions = {"X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9", "X10"}
        assert set(EXPERIMENTS) == core | extensions

    def test_metadata_complete(self):
        for experiment in EXPERIMENTS.values():
            assert experiment.kind in ("table", "figure")
            assert experiment.title
            assert experiment.description

    def test_unknown_id(self, study):
        with pytest.raises(KeyError, match="T99"):
            run_experiment("T99", study)


def _refuse_pool(*args, **kwargs):
    raise AssertionError("executor='auto' must not start a process pool")


class TestFanOutExecutor:
    def test_auto_runs_inline(self, study, monkeypatch):
        monkeypatch.setattr(experiments_module, "ProcessPoolExecutor", _refuse_pool)
        artifacts, metrics = run_all_experiments_with_metrics(study)
        assert metrics.mode == "sequential" and metrics.max_workers == 1
        assert list(artifacts) == sorted(EXPERIMENTS)

    def test_explicit_process_still_pools(self, study):
        artifacts, metrics = run_all_experiments_with_metrics(
            study, max_workers=2, executor="process"
        )
        assert metrics.mode == "process" and metrics.max_workers == 2
        assert list(artifacts) == sorted(EXPERIMENTS)


@pytest.fixture(scope="module")
def artifacts(study):
    return run_all_experiments(study)


class TestAllExperimentsRun:
    def test_every_id_produced(self, artifacts):
        assert set(artifacts) == set(EXPERIMENTS)

    @pytest.mark.parametrize("eid", sorted(["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "F6"]))
    def test_tables_render(self, artifacts, eid):
        art = artifacts[eid]
        assert isinstance(art, Table)
        text = art.render_ascii()
        assert art.title in text
        assert len(art.rows) >= 1
        md = art.render_markdown()
        assert md.startswith("###")

    @pytest.mark.parametrize("eid", ["F1", "F2", "F3", "F4", "F5", "F7", "F8"])
    def test_figures_export(self, artifacts, eid):
        art = artifacts[eid]
        assert isinstance(art, FigureSeries)
        d = art.to_dict()
        assert d["series"]
        assert art.render_ascii()


class TestHeadlineShapes:
    """The qualitative 'who wins' claims every artifact must reproduce."""

    def test_t2_python_top_in_2024(self, artifacts):
        t2 = artifacts["T2"]
        assert t2.rows[0][0] == "python"

    def test_f1_python_largest_change(self, artifacts):
        f1 = artifacts["F1"]
        assert f1.x_label.split(": ")[1].split(", ")[0] == "python"

    def test_t3_gpu_row_significant(self, artifacts):
        t3 = artifacts["T3"]
        gpu_row = next(r for r in t3.rows if r[0] == "uses_gpu")
        assert "***" in gpu_row[-1]
        assert gpu_row[3].startswith("+")

    def test_t4_pytorch_leads_tensorflow(self, artifacts):
        t4 = artifacts["T4"]
        labels = [r[0].strip() for r in t4.rows]
        assert labels.index("pytorch") < labels.index("tensorflow")

    def test_t5_has_all_partitions(self, artifacts, study):
        t5 = artifacts["T5"]
        assert set(t5.column("partition")) == set(study.telemetry.partitions())

    def test_t6_git_positive(self, artifacts):
        t6 = artifacts["T6"]
        git_row = next(r for r in t6.rows if r[0] == "uses git")
        assert git_row[3].startswith("+")

    def test_f5_growth_note(self, artifacts):
        f5 = artifacts["F5"]
        assert any("%/month" in note for note in f5.notes)

    def test_f4_wide_jobs_note(self, artifacts):
        f4 = artifacts["F4"]
        assert any("core-hours" in note for note in f4.notes)

    def test_f8_spearman_note(self, artifacts):
        f8 = artifacts["F8"]
        assert any("Spearman" in note for note in f8.notes)
