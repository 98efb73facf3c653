"""The serve_stream input generator."""

import streamgen

HEADER = "JobID|User|Account|Partition|Submit|Start|End|AllocCPUS|AllocTRES|Timelimit|State"


def row(job, submit, partition="cpu"):
    return f"{job}|u|a|{partition}|{submit:.3f}|{submit:.3f}|{submit + 60:.3f}|1|cpu=1|60|COMPLETED"


def test_rows_are_cut_by_submit_time_not_file_order():
    day = streamgen.DAY
    # File order lists every GPU job after the CPU jobs, as the export does.
    cpu = [row(i, t * day + 5) for i, t in enumerate([0, 1, 3, 4])]
    gpu = [row(10 + i, t * day + 9, "gpu") for i, t in enumerate([0, 3, 4])]
    stream = streamgen.cut_stream(
        [HEADER] + cpu + gpu, [f'{{"r": {i}}}' for i in range(10)],
        base_days=2, responses_held=4, responses_per_batch=2, resend_every=3,
    )
    base = stream["base"]["sacct"]
    assert base == [cpu[0], gpu[0], cpu[1]]  # submit order, header dropped
    sacct = [b["rows"] for b in stream["batches"] if b["kind"] == "sacct"]
    assert sacct == [[cpu[2], gpu[1]], [cpu[3], gpu[2]]]  # one day per dump
    assert stream["base"]["responses"] == [f'{{"r": {i}}}' for i in range(6)]
    kinds = [b["kind"] for b in stream["batches"]]
    assert kinds == ["sacct", "responses", "sacct", "responses"]
    assert [b["resend"] for b in stream["batches"]] == [False, False, True, False]
    assert len({b["id"] for b in stream["batches"]}) == 4


def test_same_seed_gives_byte_identical_batches(tmp_path):
    small = {"months": 4, "jobs_per_day": 4.0}
    a = streamgen.generate(5, tmp_path / "a", **small).read_bytes()
    b = streamgen.generate(5, tmp_path / "b", **small).read_bytes()
    c = streamgen.generate(6, tmp_path / "c", **small).read_bytes()
    assert a == b
    assert a != c
