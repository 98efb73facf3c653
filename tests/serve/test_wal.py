"""Unit tests for the durable ingest WAL (append, dedupe, heal, rotate)."""

import json
import shutil
import time

import pytest

import repro.serve.wal as wal_module
from repro.serve.wal import (
    IngestWAL,
    WALError,
    WALUnavailable,
    parse_chunk,
    release_reader,
    snapshot_rows,
)

ROWS = [f'{{"row": {i}}}' for i in range(8)]


class TestAppend:
    def test_round_trip(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            receipt = wal.append("responses", ROWS)
            assert receipt.accepted == len(ROWS)
            assert receipt.deduped == 0
            assert (receipt.first_seq, receipt.last_seq) == (0, len(ROWS) - 1)
            assert wal.count("responses") == len(ROWS)
            assert wal.rows("responses") == ROWS
            assert wal.count("sacct") == 0

    def test_blank_lines_and_crlf_are_normalized(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            receipt = wal.append("responses", ["a\r\n", "", "b\n", "   "])
            assert receipt.accepted == 2
            assert wal.rows("responses") == ["a", "b"]

    def test_unknown_kind_rejected(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            with pytest.raises(WALError, match="kind"):
                wal.append("telemetry", ROWS)  # step name, not a WAL kind

    def test_kinds_are_independent_streams(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:3])
            wal.append("sacct", ROWS[3:])
            assert wal.rows("responses") == ROWS[:3]
            assert wal.rows("sacct") == ROWS[3:]


class TestBatchDedupe:
    def test_full_resend_is_absorbed(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS, batch="b1")
            receipt = wal.append("responses", ROWS, batch="b1")
            assert receipt.accepted == 0
            assert receipt.deduped == len(ROWS)
            assert wal.count("responses") == len(ROWS)

    def test_partial_resend_appends_only_the_tail(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:5], batch="b1")
            receipt = wal.append("responses", ROWS, batch="b1")
            assert receipt.accepted == 3
            assert receipt.deduped == 5
            assert wal.rows("responses") == ROWS

    def test_dedupe_survives_restart(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:5], batch="b1")
        with IngestWAL(tmp_path) as wal:
            receipt = wal.append("responses", ROWS, batch="b1")
            assert receipt.deduped == 5
            assert wal.rows("responses") == ROWS

    def test_same_batch_id_on_different_kinds_is_distinct(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:2], batch="x")
            receipt = wal.append("sacct", ROWS[:2], batch="x")
            assert receipt.accepted == 2

    def test_unbatched_appends_never_dedupe(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:2])
            wal.append("responses", ROWS[:2])
            assert wal.count("responses") == 4


class TestChunks:
    def test_chunk_token_tracks_content(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            empty = wal.chunk("responses")
            wal.append("responses", ROWS[:4])
            first = wal.chunk("responses")
            wal.append("responses", ROWS[4:])
            second = wal.chunk("responses")
        assert empty != first != second
        assert parse_chunk(first)[0] == 4
        assert parse_chunk(second)[0] == 8

    def test_chunk_is_a_pure_function_of_the_rows(self, tmp_path):
        with IngestWAL(tmp_path / "a") as one:
            one.append("responses", ROWS, batch="b1")
            chunk_a = one.chunk("responses")
        with IngestWAL(tmp_path / "b") as two:
            two.append("responses", ROWS[:3], batch="b1")
            two.append("responses", ROWS, batch="b1")  # crash-retry shape
            chunk_b = two.chunk("responses")
        assert chunk_a == chunk_b

    def test_snapshot_rows_pins_the_prefix(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:4])
            chunk = wal.chunk("responses")
            wal.append("responses", ROWS[4:])  # arrives after the key was cut
        assert snapshot_rows(tmp_path, "responses", chunk) == ROWS[:4]

    def test_snapshot_rows_rejects_digest_mismatch(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:4])
            count, _ = parse_chunk(wal.chunk("responses"))
        with pytest.raises(WALError, match="do not match chunk"):
            snapshot_rows(tmp_path, "responses", f"{count}:{'0' * 16}")


class TestSnapshotReader:
    """``snapshot_rows`` catches up one cached reader per directory."""

    @pytest.fixture
    def decoded(self, monkeypatch):
        records = []
        real = wal_module._parse_segment

        def counting(raw):
            out = real(raw)
            records.extend(out[0])
            return out

        monkeypatch.setattr(wal_module, "_parse_segment", counting)
        return records

    def test_only_records_written_since_the_last_call_are_decoded(
        self, tmp_path, decoded
    ):
        with IngestWAL(tmp_path, rotate_bytes=128) as wal:
            wal.append("responses", ROWS[:3])
            wal.append("sacct", ROWS[:2])
            assert snapshot_rows(tmp_path, "responses", wal.chunk("responses")) == ROWS[:3]
            decoded.clear()
            wal.append("responses", ROWS[3:])  # rotates into new segments
            chunk = wal.chunk("responses")
            assert snapshot_rows(tmp_path, "responses", chunk) == ROWS
            assert [r["row"] for r in decoded] == ROWS[3:]
            decoded.clear()
            assert snapshot_rows(tmp_path, "responses", chunk) == ROWS
            assert snapshot_rows(tmp_path, "sacct", wal.chunk("sacct")) == ROWS[:2]
            assert decoded == []
        release_reader(tmp_path)

    def test_a_rewrite_in_place_at_the_same_length_still_raises(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS)
            chunk = wal.chunk("responses")
        assert snapshot_rows(tmp_path, "responses", chunk) == ROWS
        segment = sorted(tmp_path.glob("seg-*.wal"))[-1]
        raw = segment.read_bytes()
        # The reader trusts a segment whose size and mtime it has seen;
        # a later rewrite lands on a later mtime tick, as it would in use.
        time.sleep(0.05)
        segment.write_bytes(raw.replace(b'3}"', b'9}"'))
        assert segment.stat().st_size == len(raw)
        with pytest.raises(WALError, match="do not match chunk"):
            snapshot_rows(tmp_path, "responses", chunk)
        release_reader(tmp_path)

    def test_a_recreated_directory_is_replayed_from_scratch(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:4])
            assert snapshot_rows(tmp_path, "responses", wal.chunk("responses")) == ROWS[:4]
        shutil.rmtree(tmp_path)
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[::-1])
            chunk = wal.chunk("responses")
        assert snapshot_rows(tmp_path, "responses", chunk) == ROWS[::-1]
        release_reader(tmp_path)

    def test_a_shorter_log_than_the_chunk_raises(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS)
            chunk = wal.chunk("responses")
        assert snapshot_rows(tmp_path, "responses", chunk) == ROWS
        segment = sorted(tmp_path.glob("seg-*.wal"))[-1]
        raw = segment.read_bytes()
        segment.write_bytes(raw[: raw.index(b"\n") + 1])  # truncated to one record
        with pytest.raises(WALError, match="holds 1 responses row"):
            snapshot_rows(tmp_path, "responses", chunk)
        release_reader(tmp_path)


class TestRecovery:
    def test_restart_replays_everything(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:5])
            wal.append("sacct", ROWS[5:])
            chunk = wal.chunk("responses")
        with IngestWAL(tmp_path) as wal:
            assert wal.rows("responses") == ROWS[:5]
            assert wal.rows("sacct") == ROWS[5:]
            assert wal.chunk("responses") == chunk

    def test_torn_tail_is_healed_on_reopen(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS)
        segment = sorted(tmp_path.glob("seg-*.wal"))[-1]
        raw = segment.read_bytes()
        segment.write_bytes(raw[:-10])  # torn mid-record, no trailing newline
        with IngestWAL(tmp_path) as wal:
            assert wal.healed_bytes > 0
            assert wal.count("responses") == len(ROWS) - 1
            # The heal truncated the file, so the next append starts clean.
            wal.append("responses", [ROWS[-1]])
            assert wal.rows("responses") == ROWS
        with IngestWAL(tmp_path) as wal:
            assert wal.healed_bytes == 0  # second reopen finds a clean log

    def test_poison_line_is_counted_and_skipped(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:3])
        segment = sorted(tmp_path.glob("seg-*.wal"))[-1]
        raw = segment.read_bytes()
        lines = raw.split(b"\n")
        lines[1] = b"\x80\x81 not json"  # interior corruption, not a tail
        segment.write_bytes(b"\n".join(lines))
        with IngestWAL(tmp_path) as wal:
            assert wal.poison_lines == 1
            assert wal.count("responses") == 2

    def test_rotation_spreads_segments_and_replays_in_order(self, tmp_path):
        with IngestWAL(tmp_path, rotate_bytes=128) as wal:
            for i, row in enumerate(ROWS):
                wal.append("responses", [row], batch=f"b{i}")
        segments = sorted(tmp_path.glob("seg-*.wal"))
        assert len(segments) > 1
        with IngestWAL(tmp_path) as wal:
            assert wal.rows("responses") == ROWS
            assert wal.stats()["segments"] == len(segments)


class TestDegradation:
    def test_oserror_disables_the_wal(self, tmp_path):
        def chaos(kind, data, fd):
            raise OSError(28, "injected: no space left on device")

        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:2])
            wal.chaos = chaos
            with pytest.raises(WALUnavailable):
                wal.append("responses", ROWS[2:4])
            assert wal.unavailable
            assert "space" in (wal.error or "")
            wal.chaos = None
            with pytest.raises(WALUnavailable):  # stays down until reopen
                wal.append("responses", ROWS[4:6])
            # Reads still serve the durable prefix.
            assert wal.count("responses") == 2

    def test_read_only_open_never_writes(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS)
        segment = sorted(tmp_path.glob("seg-*.wal"))[-1]
        raw = segment.read_bytes()
        segment.write_bytes(raw[:-10])  # torn tail
        ro = IngestWAL(tmp_path, read_only=True)
        assert segment.read_bytes() == raw[:-10]  # no heal, no truncate
        with pytest.raises(WALUnavailable):
            ro.append("responses", ["x"])
        ro.close()


class TestStats:
    def test_stats_shape(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:3])
            stats = wal.stats()
        assert stats["rows"] == {"responses": 3, "sacct": 0}
        assert stats["segments"] == 1
        assert stats["unavailable"] is False
        json.dumps(stats)  # status.json embeds this verbatim
