"""The repository's benchmark: one command, every metric, outputs checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload report_cold --seed 1 --seconds 20 --trace 0

Each run starts a few fresh interpreters (``worker.py``), one per set-up
it measures, and splits ``--seconds`` of timed work among them. With
``--trace 0`` the last line of standard output is the JSON result with
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` one
worker runs traced and the result holds every per-layer metric. A
summary with sample counts goes to standard error. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import benchstats

HERE = Path(__file__).resolve().parent
#: Every run, set-up and oracles included, must end well inside 180 s.
BUDGET_S = 170.0

#: Shares of --seconds given to each worker process, in order. A share of
#: zero is a set-up-only process: report_cold's set-up is the import, so
#: its timed work goes to one process and the second only sets up again.
#: serve_stream gets the most timed work: a feed batch every few seconds
#: gives it the fewest samples per second.
PLANS = {
    "report_cold": (1.0, 0.0),
    "report_iterate": (0.5, 0.5),
    "serve_stream": (0.65, 0.65),
}
#: The sample kinds behind result_s (gated) and cached_result_s (in the
#: per-layer table: its run-to-run spread on a shared host is as wide as
#: the largest bound allowed, so it is reported, not gated).
KINDS = {
    "report_cold": ("result", "cached_result"),
    "report_iterate": ("result", "cached_result"),
    "serve_stream": ("lag_sacct", "lag_responses"),
}


class BenchError(RuntimeError):
    pass


def load_spec(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            if not (benchstats.valid_name(metric["name"]) and benchstats.valid_unit(metric["unit"])):
                raise BenchError(f"bad metric name or unit: {metric}")
    return spec


def run_worker(root: Path, work: Path, args, index: int, seconds: float, traced: bool,
               deadline: float) -> dict:
    out = work / f"worker{index}.json"
    # A traced worker repeats the untraced one's inputs (index 0), so the
    # pair measures the tracing overhead and nothing else.
    seed_index = 0 if traced else index
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--index", str(seed_index),
        "--seconds", repr(seconds), "--work", str(work / f"w{index}"),
        "--inputs", str(work / "inputs"), "--out", str(out),
    ]
    if traced:
        cmd.append("--traced")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned)], env=env, cwd=root, timeout=timeout,
        stdout=sys.stderr, stderr=sys.stderr,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {index} exited {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def _samples(workers: list[dict], kind: str) -> list[float]:
    return [x for w in workers for x in w["samples"].get(kind, [])]


def summarize(workers: list[dict]) -> None:
    """Median and tail of every sample kind, with its count, to stderr."""
    kinds = sorted({k for w in workers for k in w["samples"]})
    for kind in kinds:
        xs = _samples(workers, kind)
        tail = benchstats.tail_percentile(len(xs))
        tail_s = f", p{tail:g} {benchstats.quantile(xs, tail / 100):.4f}" if tail else ""
        print(f"  {kind}: n={len(xs)} median {benchstats.median(xs):.4f} s{tail_s}", file=sys.stderr)
    for w in workers:
        for err in w["errors"]:
            print(f"  failed: {err}", file=sys.stderr)


def end_to_end(workload: str, workers: list[dict]) -> dict[str, float]:
    timed = [w for w in workers if w["window_s"] > 0]
    results = _samples(timed, KINDS[workload][0])
    if not results:
        raise BenchError("no successful results")
    return {
        "result_s": benchstats.median(results),
        "peak_rss_mb": benchstats.median([w["peak_rss_mb"] for w in timed]),
        "setup_s": benchstats.median([w["setup_s"] for w in workers]),
    }


def per_layer(workload: str, untraced: dict, traced: dict) -> dict[str, float]:
    out = dict(traced["layers"])
    primary, cached = KINDS[workload]
    cached_s = untraced["samples"].get(cached)
    out["cached_result_s"] = benchstats.median(cached_s) if cached_s else 0.0
    base, with_trace = untraced["samples"].get(primary), traced["samples"].get(primary)
    out["trace.overhead_share"] = (
        benchstats.median(with_trace) / benchstats.median(base) - 1.0
        if base and with_trace else 0.0
    )
    reads = untraced["samples"].get("read", [])
    acks = untraced["samples"].get("ingest_ack", [])
    out["serve.read_p50_ms"] = benchstats.median(reads) * 1e3 if reads else 0.0
    tail = benchstats.tail_percentile(len(reads))
    out["serve.read_p99_ms"] = benchstats.quantile(reads, tail / 100) * 1e3 if tail else 0.0
    out["serve.ingest_ack_ms"] = benchstats.median(acks) * 1e3 if acks else 0.0
    attempted = untraced["attempted"] + traced["attempted"]
    out["ops_failed_share"] = (untraced["failed"] + traced["failed"]) / max(attempted, 1)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", choices=sorted(PLANS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + BUDGET_S
    steal_before = benchstats.steal_seconds()
    speed_before = benchstats.reference_ms()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout (src/repro is missing)", file=sys.stderr)
        return 2
    spec = load_spec(root)

    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.workload == "serve_stream":
        # Input generation is not set-up: it runs in its own interpreter.
        study_seed = benchstats.derive_seeds("serve_stream-inputs", args.seed, 1)[0]
        subprocess.run(
            [sys.executable, str(HERE / "streamgen.py"), "--seed", str(study_seed),
             "--out", str(work / "inputs")],
            env=dict(os.environ, PYTHONPATH=str(root / "src")), cwd=root, check=True,
            timeout=deadline - time.monotonic(), stdout=sys.stderr, stderr=sys.stderr,
        )

    shares = PLANS[args.workload]
    if args.trace:
        # One untraced and one traced process with the same timed share:
        # the traced one gives the layer table, the pair the overhead.
        plan = [(max(shares), False), (max(shares), True)]
    else:
        plan = [(share, False) for share in shares]
    workers = [
        run_worker(root, work, args, i, share * args.seconds, traced, deadline)
        for i, (share, traced) in enumerate(plan)
    ]
    print(f"{args.workload} seed {args.seed}:", file=sys.stderr)
    summarize(workers)
    # Host drift, the main source of run-to-run spread on a shared host:
    # a fixed reference loop before and after, and the time the
    # hypervisor gave to other guests.
    print(f"  reference loop: {speed_before:.1f} ms before, "
          f"{benchstats.reference_ms():.1f} ms after", file=sys.stderr)
    steal_after = benchstats.steal_seconds()
    if steal_before is not None and steal_after is not None:
        cpu_s = (time.monotonic() - started) * (os.cpu_count() or 1)
        print(f"  host steal: {(steal_after - steal_before) / cpu_s:.1%} of CPU time",
              file=sys.stderr)

    if args.trace:
        metrics = per_layer(args.workload, workers[0], workers[1])
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(args.workload, workers)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        sys.exit(1)
