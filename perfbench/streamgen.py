"""Seeded input generator for the ``serve_stream`` workload.

Exports one synthetic study through ``repro generate`` and cuts it into
what a live deployment would send a resident service: a *base* (about the
first four simulated months of ``sacct`` rows plus most survey responses)
and a *stream* of small batches alternating a one-simulated-day ``sacct``
dump with a few responses. Some batches are marked for re-sending under
the same batch id (at-least-once delivery).

The export lists every CPU-side job before any GPU job, so ``sacct`` rows
are re-ordered by submit time before they are cut: a file-order prefix
would hold no GPU jobs, and the GPU experiments (F8, X1, X9) would fail.
F5 needs at least three months of telemetry, which is why the base
covers four.

Run as a script it writes ``stream.json`` into ``--out``::

    PYTHONPATH=src python3 perfbench/streamgen.py --seed 7 --out stream-inputs
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

DAY = 86400.0
BASE_DAYS = 120
RESPONSES_HELD = 64
RESPONSES_PER_BATCH = 4
#: Every RESEND_EVERY-th batch is delivered twice under one batch id.
RESEND_EVERY = 4


def _submit(row: str) -> float:
    return float(row.split("|", 5)[4])


def cut_stream(
    sacct_lines: list[str],
    response_lines: list[str],
    *,
    base_days: int = BASE_DAYS,
    responses_held: int = RESPONSES_HELD,
    responses_per_batch: int = RESPONSES_PER_BATCH,
    resend_every: int = RESEND_EVERY,
) -> dict:
    """Split an export into ``{"base": ..., "batches": [...]}``.

    ``sacct_lines`` may start with the export header (dropped). Rows keep
    their text byte for byte; only their order changes (stable sort by
    submit time, so equal submit times keep file order).
    """
    rows = [line for line in sacct_lines if line and not line.startswith("JobID|")]
    rows.sort(key=_submit)
    base_end = base_days * DAY
    base_sacct = [r for r in rows if _submit(r) < base_end]
    days: dict[int, list[str]] = {}
    for r in rows[len(base_sacct):]:
        days.setdefault(int(_submit(r) // DAY), []).append(r)
    sacct_batches = [days[d] for d in sorted(days)]

    responses = [line for line in response_lines if line.strip()]
    held = min(responses_held, len(responses) - 1)
    base_responses = responses[: len(responses) - held]
    tail = responses[len(base_responses):]
    response_batches = [
        tail[i : i + responses_per_batch]
        for i in range(0, len(tail), responses_per_batch)
    ]

    batches = []
    for i in range(max(len(sacct_batches), len(response_batches))):
        for kind, source in (("sacct", sacct_batches), ("responses", response_batches)):
            if i < len(source):
                n = len(batches)
                batches.append(
                    {
                        "id": f"{kind}-{n:04d}",
                        "kind": kind,
                        "rows": source[i],
                        "resend": n % resend_every == resend_every - 1,
                    }
                )
    return {
        "base": {"sacct": base_sacct, "responses": base_responses},
        "batches": batches,
    }


def generate(seed: int, out: Path, *, months: int = 6, jobs_per_day: float = 200.0) -> Path:
    """Export a study with ``repro generate`` and write ``out/stream.json``."""
    from repro.cli import main

    export = out / "export"
    code = main(
        [
            "generate", "--seed", str(seed), "--months", str(months),
            "--jobs-per-day", str(jobs_per_day), "--out", str(export),
        ],
        out=io.StringIO(),
    )
    if code != 0:
        raise RuntimeError(f"repro generate exited {code}")
    stream = cut_stream(
        (export / "accounting.sacct").read_text(encoding="utf-8").splitlines(),
        (export / "responses.jsonl").read_text(encoding="utf-8").splitlines(),
    )
    path = out / "stream.json"
    path.write_text(json.dumps(stream, sort_keys=True), encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    generate(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
