"""Tests for the on-disk spill format: writer, reader, crash safety."""

import json
import os

import pytest

from repro.results.spill import (
    FLOW_FIELDS,
    FLOWS_FILENAME,
    INDEX_FILENAME,
    SUMMARY_FILENAME,
    SpillReader,
    SpillWriter,
    load_summary,
    record_to_row,
    write_summary,
)
from repro.sim.stats import FlowRecord


def make_record(i: int, finished: bool = True) -> FlowRecord:
    return FlowRecord(
        flow_id=i,
        src=i % 8,
        dst=(i + 1) % 8,
        size=1_000 + i,
        start_ns=i * 10,
        finish_ns=i * 10 + 500 if finished else None,
        slowdown=1.0 + i / 100.0 if finished else None,
        is_incast=(i % 5 == 0),
        tag="t" if i % 2 else None,
        retransmissions=i % 3,
    )


class TestSpillRoundTrip:
    def test_records_survive_intact(self, tmp_path):
        records = [make_record(i, finished=(i % 7 != 0)) for i in range(10_000)]
        run_dir = str(tmp_path / "run")
        with SpillWriter(run_dir, chunk_rows=128) as writer:
            for rec in records:
                writer.write(rec)
        got = list(SpillReader(run_dir).iter_records())
        assert got == records

    def test_header_names_format_and_columns(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with SpillWriter(run_dir) as writer:
            writer.write(make_record(0))
        header = SpillReader(run_dir).header()
        assert header["kind"] == "repro.results.flows"
        assert header["fields"] == list(FLOW_FIELDS)

    def test_count_rows_uses_index(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with SpillWriter(run_dir, chunk_rows=10) as writer:
            for i in range(55):
                writer.write(make_record(i))
        reader = SpillReader(run_dir)
        assert reader._index is not None
        assert reader.count_rows() == 55

    def test_rejects_zero_chunk_rows(self, tmp_path):
        with pytest.raises(ValueError):
            SpillWriter(str(tmp_path / "run"), chunk_rows=0)

    def test_missing_flows_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SpillReader(str(tmp_path))


class TestCrashSafety:
    def test_truncated_tail_is_dropped(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with SpillWriter(run_dir, chunk_rows=8) as writer:
            for i in range(100):
                writer.write(make_record(i))
        path = os.path.join(run_dir, FLOWS_FILENAME)
        # Simulate a crash mid-write: chop the file mid-line.
        with open(path, "r", encoding="ascii") as handle:
            data = handle.read()
        with open(path, "w", encoding="ascii") as handle:
            handle.write(data[: len(data) - 25])
        got = list(SpillReader(run_dir).iter_records())
        assert 0 < len(got) < 100
        # every record that did come back is complete and in order
        assert [r.flow_id for r in got] == list(range(len(got)))

    def test_unclosed_writer_leaves_readable_chunks(self, tmp_path):
        # A writer that never reaches close() (process killed) has flushed
        # every full chunk; only the pending partial chunk is lost.
        run_dir = str(tmp_path / "run")
        writer = SpillWriter(run_dir, chunk_rows=10)
        for i in range(25):
            writer.write(make_record(i))
        # no close(): 20 rows flushed, 5 pending lost
        got = list(SpillReader(run_dir).iter_records())
        assert [r.flow_id for r in got] == list(range(20))
        writer.close()

    def test_corrupt_index_falls_back_to_scan(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with SpillWriter(run_dir, chunk_rows=4) as writer:
            for i in range(9):
                writer.write(make_record(i))
        with open(os.path.join(run_dir, INDEX_FILENAME), "w") as handle:
            handle.write("{not json")
        reader = SpillReader(run_dir)
        assert reader._index is None
        assert reader.count_rows() == 9

    def test_missing_index_scans(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with SpillWriter(run_dir, chunk_rows=4) as writer:
            for i in range(9):
                writer.write(make_record(i))
        os.remove(os.path.join(run_dir, INDEX_FILENAME))
        reader = SpillReader(run_dir)
        assert reader.count_rows() == 9
        assert len(list(reader)) == 9

    def test_close_leaves_no_temp_residue(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with SpillWriter(run_dir, chunk_rows=4) as writer:
            for i in range(9):
                writer.write(make_record(i))
        assert sorted(os.listdir(run_dir)) == sorted([FLOWS_FILENAME, INDEX_FILENAME])

    def test_failed_index_write_leaves_no_partial_index(self, tmp_path, monkeypatch):
        # A write that dies after the file is opened must not leave a
        # truncated flows.idx.json behind; readers then scan the flows file.
        import repro.results.spill as spill

        run_dir = str(tmp_path / "run")
        writer = SpillWriter(run_dir, chunk_rows=4)
        for i in range(9):
            writer.write(make_record(i))

        def half_dump(payload, handle, **kwargs):
            text = json.dumps(payload, **kwargs)
            handle.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(spill.json, "dump", half_dump)
        with pytest.raises(OSError, match="disk full"):
            writer.close()
        monkeypatch.undo()
        assert not os.path.exists(os.path.join(run_dir, INDEX_FILENAME))
        reader = SpillReader(run_dir)
        assert reader._index is None
        assert [r.flow_id for r in reader.iter_records()] == list(range(9))


class TestSummary:
    def test_round_trip(self, tmp_path):
        run_dir = str(tmp_path / "run")
        os.makedirs(run_dir)
        write_summary(run_dir, {"flows": {"total": 3}, "extras": {"scheme": "BFC"}})
        summary = load_summary(run_dir)
        assert summary["flows"] == {"total": 3}
        assert summary["extras"]["scheme"] == "BFC"
        assert summary["kind"] == "repro.results.summary"

    def test_write_is_atomic(self, tmp_path):
        run_dir = str(tmp_path / "run")
        os.makedirs(run_dir)
        write_summary(run_dir, {"a": 1})
        # no temp residue
        assert sorted(os.listdir(run_dir)) == ["summary.json"]

    def test_rejects_foreign_json(self, tmp_path):
        run_dir = str(tmp_path / "run")
        os.makedirs(run_dir)
        with open(os.path.join(run_dir, "summary.json"), "w") as handle:
            json.dump({"kind": "something.else"}, handle)
        with pytest.raises(ValueError):
            load_summary(run_dir)


#: Values the encoder has to get exactly right: no tag, a non-ASCII tag,
#: infinite and NaN slowdowns, ints past 2**53.
AWKWARD = [
    FlowRecord(1, 0, 1, 1_000, 0, None, None, False, None, 0),
    FlowRecord(2, 3, 4, 2**53 + 1, 2**63 + 5, 2**64, float("inf"), True, "incast-é☃\u2028", 7),
    FlowRecord(3, -1, 2, 10, 1, 2, float("nan"), False, 'quote"back\\slash\n', 2**70),
    FlowRecord(4, 5, 6, 0, 0, 0, -float("inf"), True, "\U0001f600", 0),
]


def test_rows_and_summaries_encode_as_json_dumps(tmp_path):
    run_dir = str(tmp_path / "run")
    with SpillWriter(run_dir) as writer:
        for record in AWKWARD:
            writer.write(record)
    with open(os.path.join(run_dir, FLOWS_FILENAME), "rb") as handle:
        rows = handle.read().splitlines(keepends=True)[1:]
    assert rows == [
        (json.dumps(record_to_row(record), separators=(",", ":")) + "\n").encode("ascii")
        for record in AWKWARD
    ]
    summary = {"rows": [record_to_row(record) for record in AWKWARD], "b": {"z": 1, "a": None}}
    write_summary(run_dir, summary)
    with open(os.path.join(run_dir, SUMMARY_FILENAME), "rb") as handle:
        written = handle.read()
    expected = dict(summary, kind="repro.results.summary", version=1)
    assert written == (
        json.dumps(expected, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("ascii")
