"""Synthetic workload generation.

Produces the *submission stream* the scheduler simulator consumes. The model
captures the structure the study's telemetry analyses depend on:

* per-field job mixes (astrophysicists submit wide MPI jobs, biologists
  submit job-array swarms, ML-heavy fields submit GPU jobs);
* a nonhomogeneous Poisson arrival process with an exponentially growing
  GPU-job rate (the F5 "GPU-hours growth" signal);
* power-of-two-ish width distributions and lognormal runtimes;
* requested walltimes that over-estimate runtimes (what backfill sees);
* a heavy-tailed user activity distribution within each field, so
  consumption concentration (Gini) is realistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.cluster.partitions import ClusterConfig, DEFAULT_CLUSTER

__all__ = ["SubmittedJob", "WorkloadParams", "WorkloadModel", "diurnal_intensity"]

DAY = 86400.0
WEEK = 7.0 * DAY


def diurnal_intensity(times) -> np.ndarray:
    """Relative submission intensity at absolute times (mean 1 over a week).

    Combines a sinusoidal daily cycle peaking mid-afternoon (hour ~15, with
    a ~3:1 peak-to-trough ratio) with a weekday/weekend factor (weekends at
    40% of weekday level). Day 0 of the window is a Monday.
    """
    t = np.asarray(times, dtype=float)
    hour = (t % DAY) / 3600.0
    daily = 1.0 + 0.5 * np.sin(2.0 * np.pi * (hour - 9.0) / 24.0)
    weekday = (t % WEEK) / DAY  # 0..7, Monday start
    weekly = np.where(weekday < 5.0, 1.0, 0.4)
    intensity = daily * weekly
    # Normalize so the weekly mean is exactly 1 (computed analytically:
    # daily integrates to 1 per day; weekly factor means (5*1 + 2*0.4)/7).
    return intensity / ((5.0 + 2.0 * 0.4) / 7.0)


def _choice_cdf(p) -> np.ndarray:
    """The CDF ``Generator.choice(n, p=p)`` builds: ``int(cdf.searchsorted(
    rng.random(), side="right"))`` draws the index it would, from one uniform."""
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


_GPU_COUNTS = (1, 1, 1, 2, 4, 8)
_GPU_COUNT_CDF = _choice_cdf([0.45, 0.2, 0.1, 0.15, 0.07, 0.03])


@dataclass(frozen=True, slots=True)
class SubmittedJob:
    """A job as submitted (before scheduling)."""

    job_id: int
    user: str
    field: str
    partition: str
    submit: float
    cores: int
    gpus: int
    runtime: float
    requested_walltime: float

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"job {self.job_id}: cores must be >= 1")
        if self.gpus < 0:
            raise ValueError(f"job {self.job_id}: gpus must be >= 0")
        if self.runtime <= 0:
            raise ValueError(f"job {self.job_id}: runtime must be positive")
        if self.requested_walltime < self.runtime:
            raise ValueError(f"job {self.job_id}: walltime below runtime")


@dataclass(frozen=True)
class FieldMix:
    """Per-field job-mix parameters.

    Attributes
    ----------
    weight:
        Relative share of total submissions from this field.
    gpu_share:
        Fraction of the field's jobs that are GPU jobs.
    wide_share:
        Fraction of CPU jobs that are wide (multi-node MPI-style).
    mean_runtime_hours:
        Geometric mean runtime of the field's jobs.
    n_users:
        Distinct users in the field; activity is Zipf-distributed.
    """

    weight: float
    gpu_share: float
    wide_share: float
    mean_runtime_hours: float
    n_users: int

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if not 0.0 <= self.gpu_share <= 1.0:
            raise ValueError("gpu_share out of [0,1]")
        if not 0.0 <= self.wide_share <= 1.0:
            raise ValueError("wide_share out of [0,1]")
        if self.mean_runtime_hours <= 0:
            raise ValueError("mean_runtime_hours must be positive")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")


# Defaults shaped by the same field taxonomy the survey uses.
DEFAULT_FIELD_MIXES: dict[str, FieldMix] = {
    "astrophysics": FieldMix(weight=0.16, gpu_share=0.15, wide_share=0.45, mean_runtime_hours=4.0, n_users=25),
    "physics": FieldMix(weight=0.14, gpu_share=0.12, wide_share=0.35, mean_runtime_hours=4.0, n_users=30),
    "chemistry": FieldMix(weight=0.13, gpu_share=0.20, wide_share=0.30, mean_runtime_hours=5.0, n_users=28),
    "biology": FieldMix(weight=0.12, gpu_share=0.10, wide_share=0.05, mean_runtime_hours=3.0, n_users=40),
    "neuroscience": FieldMix(weight=0.08, gpu_share=0.45, wide_share=0.05, mean_runtime_hours=4.0, n_users=20),
    "engineering": FieldMix(weight=0.14, gpu_share=0.30, wide_share=0.20, mean_runtime_hours=4.0, n_users=35),
    "earth_sciences": FieldMix(weight=0.08, gpu_share=0.08, wide_share=0.40, mean_runtime_hours=7.0, n_users=15),
    "economics": FieldMix(weight=0.04, gpu_share=0.05, wide_share=0.02, mean_runtime_hours=2.0, n_users=18),
    "social_sciences": FieldMix(weight=0.03, gpu_share=0.10, wide_share=0.02, mean_runtime_hours=1.5, n_users=15),
    "mathematics": FieldMix(weight=0.03, gpu_share=0.05, wide_share=0.10, mean_runtime_hours=3.0, n_users=10),
    "computer_science": FieldMix(weight=0.05, gpu_share=0.60, wide_share=0.10, mean_runtime_hours=3.0, n_users=15),
}


@dataclass(frozen=True)
class WorkloadParams:
    """Tunable workload parameters.

    Attributes
    ----------
    months:
        Length of the study window in 30-day months.
    jobs_per_day:
        Mean CPU-side submission rate at window start.
    gpu_growth_per_month:
        Exponential monthly growth factor minus one for the GPU arrival
        rate (0.04 = 4%/month, roughly +60% per year).
    gpu_base_scale:
        Multiplier on the mix-derived GPU arrival rate at window start;
        the default leaves headroom so demand approaches (not exceeds)
        GPU capacity by the end of the default 24-month window.
    field_mixes:
        Per-field mixes; defaults to :data:`DEFAULT_FIELD_MIXES`.
    walltime_overrequest:
        Mean multiplicative factor users pad requested walltime by.
    failure_rate, cancel_rate, timeout_rate:
        Probabilities of non-COMPLETED terminal states, applied by the
        scheduler simulator.
    diurnal:
        Modulate submissions by time-of-day and day-of-week (weekday
        working-hours peak, ~3x the overnight trough; weekends quieter).
        The weekly average rate is preserved, so totals match the
        non-diurnal configuration.
    """

    months: int = 24
    jobs_per_day: float = 450.0
    gpu_growth_per_month: float = 0.04
    gpu_base_scale: float = 0.8
    field_mixes: Mapping[str, FieldMix] = field(
        default_factory=lambda: dict(DEFAULT_FIELD_MIXES)
    )
    walltime_overrequest: float = 2.0
    failure_rate: float = 0.06
    cancel_rate: float = 0.03
    timeout_rate: float = 0.02
    diurnal: bool = False

    def __post_init__(self) -> None:
        if self.months < 1:
            raise ValueError("months must be >= 1")
        if self.jobs_per_day <= 0:
            raise ValueError("jobs_per_day must be positive")
        if self.gpu_growth_per_month < 0:
            raise ValueError("gpu_growth_per_month must be non-negative")
        if self.gpu_base_scale <= 0:
            raise ValueError("gpu_base_scale must be positive")
        if not self.field_mixes:
            raise ValueError("field_mixes is empty")
        if self.walltime_overrequest < 1.0:
            raise ValueError("walltime_overrequest must be >= 1.0")
        total_terminal = self.failure_rate + self.cancel_rate + self.timeout_rate
        if total_terminal >= 1.0:
            raise ValueError("failure/cancel/timeout rates sum to >= 1")

    @property
    def window_seconds(self) -> float:
        return self.months * 30.0 * DAY


class WorkloadModel:
    """Generates a submission stream for a cluster configuration."""

    def __init__(
        self,
        params: WorkloadParams | None = None,
        cluster: ClusterConfig | None = None,
    ) -> None:
        self.params = params or WorkloadParams()
        self.cluster = cluster or DEFAULT_CLUSTER
        self._user_cdf_cache: dict[str, np.ndarray] = {}
        for required in ("cpu", "gpu", "serial"):
            if required not in self.cluster:
                raise ValueError(f"cluster must define a {required!r} partition")

    # -- internals --------------------------------------------------------

    def _arrival_times(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Submission times for (cpu_jobs, gpu_jobs) over the window.

        CPU arrivals are homogeneous Poisson; GPU arrivals are a
        nonhomogeneous Poisson process with rate growing exponentially
        month over month, realized via thinning.
        """
        p = self.params
        window = p.window_seconds

        # The diurnal profile's maximum relative intensity (used as the
        # thinning envelope when enabled).
        diurnal_peak = float(diurnal_intensity(np.array([15.5 * 3600.0]))[0]) if p.diurnal else 1.0

        def thin_diurnal(times: np.ndarray) -> np.ndarray:
            if not p.diurnal or times.size == 0:
                return times
            keep = rng.random(times.size) < diurnal_intensity(times) / diurnal_peak
            return times[keep]

        n_cpu = rng.poisson(p.jobs_per_day * window / DAY * diurnal_peak)
        cpu_times = thin_diurnal(np.sort(rng.uniform(0.0, window, size=n_cpu)))

        # GPU base rate: a fraction of overall traffic, derived from mixes.
        gpu_weight = sum(m.weight * m.gpu_share for m in p.field_mixes.values())
        total_weight = sum(m.weight for m in p.field_mixes.values())
        base_gpu_rate = (
            p.gpu_base_scale * p.jobs_per_day * (gpu_weight / total_weight) / DAY
        )  # per second
        growth = np.log1p(p.gpu_growth_per_month) / (30.0 * DAY)  # per sec
        peak_rate = base_gpu_rate * np.exp(growth * window) * diurnal_peak
        n_candidates = rng.poisson(peak_rate * window)
        candidates = np.sort(rng.uniform(0.0, window, size=n_candidates))
        accept = rng.random(n_candidates) < np.exp(growth * (candidates - window))
        gpu_times = thin_diurnal(candidates[accept])
        return cpu_times, gpu_times

    def _field_for_jobs(
        self, n: int, gpu: bool, rng: np.random.Generator
    ) -> np.ndarray:
        mixes = self.params.field_mixes
        names = list(mixes)
        weights = np.array(
            [
                mixes[f].weight * (mixes[f].gpu_share if gpu else (1.0 - mixes[f].gpu_share))
                for f in names
            ],
            dtype=float,
        )
        if weights.sum() <= 0:
            weights = np.array([mixes[f].weight for f in names], dtype=float)
        weights = weights / weights.sum()
        idx = rng.choice(len(names), size=n, p=weights)
        return np.array(names, dtype=object)[idx]

    def _user_cdf(self, field_name: str) -> np.ndarray:
        cached = self._user_cdf_cache.get(field_name)
        if cached is None:
            # Zipf-ish activity: user of rank k gets weight 1/k.
            mix = self.params.field_mixes[field_name]
            weights = 1.0 / (np.arange(mix.n_users, dtype=float) + 1.0)
            cached = _choice_cdf(weights / weights.sum())
            self._user_cdf_cache[field_name] = cached
        return cached

    def _user_for(self, field_name: str, rng: np.random.Generator) -> str:
        k = int(self._user_cdf(field_name).searchsorted(rng.random(), side="right"))
        return f"{field_name[:4]}{k:03d}"

    def _cpu_job_shape(
        self, field_name: str, rng: np.random.Generator
    ) -> tuple[str, int, int]:
        mix = self.params.field_mixes[field_name]
        cpu_part = self.cluster["cpu"]
        if rng.random() < mix.wide_share * 0.6:
            # Wide MPI-style job: power-of-two node counts (2..8 nodes).
            nodes = int(2 ** rng.integers(1, 4))
            cores = nodes * cpu_part.cores_per_node
            return "cpu", min(cores, cpu_part.total_cores), 0
        if rng.random() < 0.5:
            # Small-to-medium multicore job on the shared partition.
            cores = int(2 ** rng.integers(0, 7))  # 1..64 cores
            return "serial", cores, 0
        if rng.random() < 0.12 and "bigmem" in self.cluster:
            cores = int(2 ** rng.integers(3, 7))
            return "bigmem", cores, 0
        cores = int(2 ** rng.integers(2, 7))  # 4..64 cores
        return "cpu", cores, 0

    def _gpu_job_shape(self, rng: np.random.Generator) -> tuple[str, int, int]:
        gpu_part = self.cluster["gpu"]
        gpus = _GPU_COUNTS[int(_GPU_COUNT_CDF.searchsorted(rng.random(), side="right"))]
        gpus = min(gpus, gpu_part.total_gpus)
        cores = min(gpus * 8, gpu_part.total_cores)
        return "gpu", cores, gpus

    def _runtime(self, field_name: str, rng: np.random.Generator, partition: str) -> float:
        mix = self.params.field_mixes[field_name]
        cap = self.cluster[partition].max_walltime
        runtime = rng.lognormal(np.log(mix.mean_runtime_hours * 3600.0), 1.2)
        return min(max(runtime, 60.0), cap * 0.98)

    # -- public API ---------------------------------------------------------

    def generate(self, rng: np.random.Generator) -> list[SubmittedJob]:
        """Generate the full submission stream, sorted by submit time."""
        p = self.params
        cpu_times, gpu_times = self._arrival_times(rng)
        cpu_fields = self._field_for_jobs(cpu_times.size, gpu=False, rng=rng)
        gpu_fields = self._field_for_jobs(gpu_times.size, gpu=True, rng=rng)

        jobs: list[SubmittedJob] = []
        job_id = 0
        for submit, field_name in zip(cpu_times, cpu_fields):
            partition, cores, gpus = self._cpu_job_shape(str(field_name), rng)
            runtime = self._runtime(str(field_name), rng, partition)
            walltime = min(
                runtime * (1.0 + rng.exponential(p.walltime_overrequest - 1.0)),
                self.cluster[partition].max_walltime,
            )
            walltime = max(walltime, runtime)
            jobs.append(
                SubmittedJob(
                    job_id=job_id,
                    user=self._user_for(str(field_name), rng),
                    field=str(field_name),
                    partition=partition,
                    submit=float(submit),
                    cores=cores,
                    gpus=gpus,
                    runtime=runtime,
                    requested_walltime=float(walltime),
                )
            )
            job_id += 1
        for submit, field_name in zip(gpu_times, gpu_fields):
            partition, cores, gpus = self._gpu_job_shape(rng)
            runtime = self._runtime(str(field_name), rng, partition)
            walltime = min(
                runtime * (1.0 + rng.exponential(p.walltime_overrequest - 1.0)),
                self.cluster[partition].max_walltime,
            )
            walltime = max(walltime, runtime)
            jobs.append(
                SubmittedJob(
                    job_id=job_id,
                    user=self._user_for(str(field_name), rng),
                    field=str(field_name),
                    partition=partition,
                    submit=float(submit),
                    cores=cores,
                    gpus=gpus,
                    runtime=runtime,
                    requested_walltime=float(walltime),
                )
            )
            job_id += 1
        jobs.sort(key=lambda j: j.submit)
        return jobs
