"""Tests for the capacity model and workload generator."""

import hashlib
import pickle

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    Partition,
    SubmittedJob,
    WorkloadModel,
    WorkloadParams,
)
from repro.cluster.partitions import DEFAULT_CLUSTER


class TestPartition:
    def test_totals(self):
        p = Partition("cpu", nodes=10, cores_per_node=64, gpus_per_node=2)
        assert p.total_cores == 640
        assert p.total_gpus == 20

    def test_fits(self):
        p = Partition("gpu", nodes=2, cores_per_node=48, gpus_per_node=4)
        assert p.fits(96, 8)
        assert not p.fits(97, 0)
        assert not p.fits(1, 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition("", nodes=1, cores_per_node=1)
        with pytest.raises(ValueError):
            Partition("x", nodes=0, cores_per_node=1)
        with pytest.raises(ValueError):
            Partition("x", nodes=1, cores_per_node=0)
        with pytest.raises(ValueError):
            Partition("x", nodes=1, cores_per_node=1, gpus_per_node=-1)
        with pytest.raises(ValueError):
            Partition("x", nodes=1, cores_per_node=1, max_walltime=0)


class TestClusterConfig:
    def test_lookup(self):
        assert DEFAULT_CLUSTER["gpu"].gpus_per_node == 4
        assert "cpu" in DEFAULT_CLUSTER
        assert "quantum" not in DEFAULT_CLUSTER
        with pytest.raises(KeyError):
            DEFAULT_CLUSTER["quantum"]

    def test_totals(self):
        assert DEFAULT_CLUSTER.total_cores == sum(
            p.total_cores for p in DEFAULT_CLUSTER
        )
        assert DEFAULT_CLUSTER.total_gpus > 0

    def test_duplicate_partition_rejected(self):
        p = Partition("a", nodes=1, cores_per_node=1)
        with pytest.raises(ValueError):
            ClusterConfig("c", (p, p))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig("c", ())


class TestWorkloadParams:
    def test_window(self):
        assert WorkloadParams(months=2).window_seconds == pytest.approx(2 * 30 * 86400)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(months=0),
            dict(jobs_per_day=0),
            dict(gpu_growth_per_month=-0.1),
            dict(gpu_base_scale=0),
            dict(walltime_overrequest=0.5),
            dict(failure_rate=0.5, cancel_rate=0.4, timeout_rate=0.2),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            WorkloadParams(**kw)


class TestSubmittedJob:
    def test_validation(self):
        good = dict(
            job_id=1, user="u", field="physics", partition="cpu",
            submit=0.0, cores=4, gpus=0, runtime=100.0, requested_walltime=200.0,
        )
        SubmittedJob(**good)
        with pytest.raises(ValueError):
            SubmittedJob(**{**good, "cores": 0})
        with pytest.raises(ValueError):
            SubmittedJob(**{**good, "runtime": 0.0})
        with pytest.raises(ValueError):
            SubmittedJob(**{**good, "requested_walltime": 50.0})


@pytest.fixture(scope="module")
def small_workload():
    params = WorkloadParams(months=2, jobs_per_day=120)
    return params, WorkloadModel(params).generate(np.random.default_rng(11))


class TestWorkloadModel:
    def test_jobs_sorted_and_unique(self, small_workload):
        _, jobs = small_workload
        assert len(jobs) > 1000
        submits = [j.submit for j in jobs]
        assert submits == sorted(submits)
        ids = [j.job_id for j in jobs]
        assert len(set(ids)) == len(ids)

    def test_all_jobs_within_window(self, small_workload):
        params, jobs = small_workload
        assert all(0 <= j.submit <= params.window_seconds for j in jobs)

    def test_all_jobs_fit_their_partition(self, small_workload):
        _, jobs = small_workload
        for j in jobs:
            part = DEFAULT_CLUSTER[j.partition]
            assert part.fits(j.cores, j.gpus), (j.partition, j.cores, j.gpus)
            assert j.requested_walltime <= part.max_walltime + 1e-6

    def test_gpu_jobs_only_on_gpu_partition(self, small_workload):
        _, jobs = small_workload
        for j in jobs:
            if j.gpus > 0:
                assert j.partition == "gpu"

    def test_deterministic(self):
        params = WorkloadParams(months=1, jobs_per_day=50)
        a = WorkloadModel(params).generate(np.random.default_rng(3))
        b = WorkloadModel(params).generate(np.random.default_rng(3))
        assert a == b

    def test_gpu_rate_grows(self):
        """Later months contain more GPU submissions than early months."""
        params = WorkloadParams(months=24, jobs_per_day=60, gpu_growth_per_month=0.08)
        jobs = WorkloadModel(params).generate(np.random.default_rng(5))
        month = 30 * 86400.0
        early = sum(1 for j in jobs if j.gpus > 0 and j.submit < 6 * month)
        late = sum(1 for j in jobs if j.gpus > 0 and j.submit >= 18 * month)
        assert late > early * 1.8

    def test_requires_core_partitions(self):
        tiny = ClusterConfig("t", (Partition("cpu", nodes=1, cores_per_node=4),))
        with pytest.raises(ValueError):
            WorkloadModel(cluster=tiny)

    def test_field_mix_drives_field_distribution(self, small_workload):
        _, jobs = small_workload
        fields = {j.field for j in jobs}
        assert "astrophysics" in fields and "biology" in fields

    def test_user_activity_heavy_tailed(self, small_workload):
        """Top user in a field submits several times the median user."""
        _, jobs = small_workload
        from collections import Counter

        counts = Counter(j.user for j in jobs if j.field == "astrophysics")
        values = sorted(counts.values())
        assert values[-1] >= 4 * values[len(values) // 2]

    @pytest.mark.parametrize(
        "seed, n_jobs, digest",
        [
            (7, 4247, "b99947d1e7dbe2ee6a1ad4d79d6ad01f052f4b8ca72078bfe2b839265c5fe5c7"),
            (2025, 4268, "d7687fab4287122af62298e751d9a147f96dc7bb785903293dd632334dc9b7de"),
        ],
    )
    def test_stream_is_pinned(self, seed, n_jobs, digest):
        """The generated stream is byte-stable: any change to the order or
        kind of random draws (or to how a draw becomes a job field) changes
        this digest and every seeded study downstream of it."""
        params = WorkloadParams(months=2, jobs_per_day=60.0)
        jobs = WorkloadModel(params).generate(np.random.default_rng(seed))
        assert len(jobs) == n_jobs
        assert hashlib.sha256(pickle.dumps(jobs, protocol=4)).hexdigest() == digest
