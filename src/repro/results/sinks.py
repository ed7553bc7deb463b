"""The harvest seam: where measurement records go as they are produced.

The experiment runner pushes every flow record and every sampler tick into
a :class:`ResultSink`.  Two implementations:

* :class:`InMemorySink` — the default; owns the same ``FlowStats`` /
  ``BufferSampler`` / ``QueueSampler`` objects the runner used to own
  directly, fed in the same order, so results are byte-identical to the
  pre-seam harvest.
* :class:`SpillSink` — streams flow records to disk through a
  :class:`~repro.results.spill.SpillWriter` and folds sampler ticks into
  fixed-size aggregates, so peak harvest memory is independent of flow
  count and sample count.  ``finalize`` writes ``summary.json`` and returns
  streaming stand-ins (:class:`StreamingFlowStats`,
  :class:`StreamingBufferSampler`, :class:`StreamingQueueSampler`) that
  satisfy the same scalar-metric API as the in-memory objects.

The sink is a pure observer: choosing a sink never changes what is
simulated, only where the measurements live.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.sim.stats import BufferSampler, FlowRecord, FlowStats, QueueSampler

from .sketch import QuantileSketch, ReservoirSampler, StreamingStats
from .spill import SpillWriter, write_summary


class ResultSink:
    """Receives measurement records as the runner produces them."""

    #: Path of the spilled artifact directory, or ``None`` for in-memory.
    results_ref: Optional[str] = None

    def on_flow_record(self, record: FlowRecord) -> None:
        raise NotImplementedError

    def on_buffer_sample(self, switch_name: str, occupancy_bytes: int) -> None:
        raise NotImplementedError

    def on_queue_sample(self, backlog_bytes: int) -> None:
        raise NotImplementedError

    def on_occupied_sample(self, count: int) -> None:
        raise NotImplementedError

    def finalize(self, extras: Optional[Dict[str, object]] = None):
        """Flush and return ``(flow_stats, buffer_sampler, queue_sampler)``."""
        raise NotImplementedError


class InMemorySink(ResultSink):
    """Default sink: accumulate everything in RAM, exactly as before."""

    def __init__(self) -> None:
        self.flow_stats = FlowStats()
        self.buffer_sampler = BufferSampler()
        self.queue_sampler = QueueSampler()

    def on_flow_record(self, record: FlowRecord) -> None:
        self.flow_stats.add(record)

    def on_buffer_sample(self, switch_name: str, occupancy_bytes: int) -> None:
        self.buffer_sampler.record(switch_name, occupancy_bytes)

    def on_queue_sample(self, backlog_bytes: int) -> None:
        self.queue_sampler.record_queue(backlog_bytes)

    def on_occupied_sample(self, count: int) -> None:
        self.queue_sampler.record_occupied(count)

    def finalize(self, extras: Optional[Dict[str, object]] = None):
        return self.flow_stats, self.buffer_sampler, self.queue_sampler


# ---------------------------------------------------------------------------
# Streaming stand-ins for the in-memory collectors
# ---------------------------------------------------------------------------


class StreamingFlowStats:
    """Fixed-size flow aggregate satisfying the ``FlowStats`` metric API.

    Scalar metrics (``completion_rate``, ``mean_slowdown``,
    ``slowdown_percentile``) come from O(1) counters and quantile sketches.
    Record-level access (``iter_records``, ``completed``, ``slowdowns``,
    ``records``) reads the spilled artifact back from disk — lazy for
    ``iter_records``; the others materialize what they return, which is fine
    for analysis but defeats bounded memory if used during a run.
    """

    def __init__(self, spill_dir: Optional[str] = None) -> None:
        self.spill_dir = spill_dir
        self.total = 0
        self.completed_count = 0
        self.incast_total = 0
        self.incast_completed = 0
        self._sum_normal = 0.0
        self._n_normal = 0
        self._sum_all = 0.0
        self._n_all = 0
        self.sketch_normal = QuantileSketch()
        self.sketch_all = QuantileSketch()

    # -- ingest -----------------------------------------------------------------

    def add(self, record: FlowRecord) -> None:
        self.total += 1
        if record.is_incast:
            self.incast_total += 1
        done = record.finish_ns is not None
        if done:
            self.completed_count += 1
            if record.is_incast:
                self.incast_completed += 1
        if done and record.slowdown is not None:
            self._sum_all += record.slowdown
            self._n_all += 1
            self.sketch_all.add(record.slowdown)
            if not record.is_incast:
                self._sum_normal += record.slowdown
                self._n_normal += 1
                self.sketch_normal.add(record.slowdown)

    def merge(self, other: "StreamingFlowStats") -> None:
        self.total += other.total
        self.completed_count += other.completed_count
        self.incast_total += other.incast_total
        self.incast_completed += other.incast_completed
        self._sum_normal += other._sum_normal
        self._n_normal += other._n_normal
        self._sum_all += other._sum_all
        self._n_all += other._n_all
        self.sketch_normal.merge(other.sketch_normal)
        self.sketch_all.merge(other.sketch_all)

    # -- scalar metrics (bounded memory) ------------------------------------------

    def completion_rate(self) -> float:
        if not self.total:
            return 0.0
        return self.completed_count / self.total

    def mean_slowdown(self, include_incast: bool = False) -> float:
        if include_incast:
            return self._sum_all / self._n_all if self._n_all else 0.0
        return self._sum_normal / self._n_normal if self._n_normal else 0.0

    def slowdown_percentile(self, q: float, include_incast: bool = False) -> float:
        sketch = self.sketch_all if include_incast else self.sketch_normal
        return sketch.percentile(q)

    # -- record-level access (reads the spill back) --------------------------------

    def iter_records(self) -> Iterator[FlowRecord]:
        if self.spill_dir is None:
            raise RuntimeError(
                "StreamingFlowStats has no spill directory to read records from"
            )
        from .spill import SpillReader

        return SpillReader(self.spill_dir).iter_records()

    @property
    def records(self) -> List[FlowRecord]:
        return list(self.iter_records())

    def completed(self, include_incast: bool = False) -> List[FlowRecord]:
        return [
            r
            for r in self.iter_records()
            if r.finish_ns is not None and (include_incast or not r.is_incast)
        ]

    def slowdowns(self, include_incast: bool = False) -> List[float]:
        return [
            r.slowdown
            for r in self.completed(include_incast)
            if r.slowdown is not None
        ]

    # -- (de)serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "completed": self.completed_count,
            "incast_total": self.incast_total,
            "incast_completed": self.incast_completed,
            "sum_slowdown_normal": self._sum_normal,
            "n_slowdown_normal": self._n_normal,
            "sum_slowdown_all": self._sum_all,
            "n_slowdown_all": self._n_all,
            "sketch_normal": self.sketch_normal.to_dict(),
            "sketch_all": self.sketch_all.to_dict(),
        }

    @classmethod
    def from_dict(
        cls, data: Dict[str, object], spill_dir: Optional[str] = None
    ) -> "StreamingFlowStats":
        stats = cls(spill_dir=spill_dir)
        stats.total = int(data["total"])
        stats.completed_count = int(data["completed"])
        stats.incast_total = int(data.get("incast_total", 0))
        stats.incast_completed = int(data.get("incast_completed", 0))
        stats._sum_normal = float(data.get("sum_slowdown_normal", 0.0))
        stats._n_normal = int(data.get("n_slowdown_normal", 0))
        stats._sum_all = float(data.get("sum_slowdown_all", 0.0))
        stats._n_all = int(data.get("n_slowdown_all", 0))
        stats.sketch_normal = QuantileSketch.from_dict(data["sketch_normal"])
        stats.sketch_all = QuantileSketch.from_dict(data["sketch_all"])
        return stats


class StreamingBufferSampler:
    """Fixed-size stand-in for :class:`~repro.sim.stats.BufferSampler`.

    Keeps exact count / max / sum, a quantile sketch, a bounded uniform
    reservoir of raw samples (for CDF plots from spilled artifacts), and
    exact per-switch count / max — all O(switches + constants).
    """

    def __init__(self, seed: int = 0, reservoir_k: int = 1024) -> None:
        self.stats = StreamingStats()
        self.sketch = QuantileSketch()
        self.reservoir = ReservoirSampler(reservoir_k, seed)
        self.per_switch: Dict[str, StreamingStats] = {}

    def record(self, switch_name: str, occupancy_bytes: int) -> None:
        self.stats.add(occupancy_bytes)
        self.sketch.add(occupancy_bytes)
        self.reservoir.add(occupancy_bytes)
        per = self.per_switch.get(switch_name)
        if per is None:
            per = self.per_switch[switch_name] = StreamingStats()
        per.add(occupancy_bytes)

    def max_occupancy(self) -> int:
        return int(self.stats.max)

    def percentile(self, q: float) -> float:
        return self.sketch.percentile(q)

    @property
    def sample_count(self) -> int:
        return self.stats.count

    def to_dict(self) -> Dict[str, object]:
        return {
            "stats": self.stats.to_dict(),
            "sketch": self.sketch.to_dict(),
            "reservoir": self.reservoir.to_dict(),
            "per_switch": {
                name: stats.to_dict() for name, stats in sorted(self.per_switch.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StreamingBufferSampler":
        sampler = cls()
        sampler.stats = StreamingStats.from_dict(data["stats"])
        sampler.sketch = QuantileSketch.from_dict(data["sketch"])
        sampler.reservoir = ReservoirSampler.from_dict(data["reservoir"])
        sampler.per_switch = {
            name: StreamingStats.from_dict(sub)
            for name, sub in data.get("per_switch", {}).items()
        }
        return sampler


class StreamingQueueSampler:
    """Fixed-size stand-in for :class:`~repro.sim.stats.QueueSampler`."""

    def __init__(self, seed: int = 0, reservoir_k: int = 1024) -> None:
        self.queue_stats = StreamingStats()
        self.queue_sketch = QuantileSketch()
        self.queue_reservoir = ReservoirSampler(reservoir_k, seed)
        self.occupied_stats = StreamingStats()
        self.occupied_sketch = QuantileSketch()

    def record_queue(self, backlog_bytes: int) -> None:
        self.queue_stats.add(backlog_bytes)
        self.queue_sketch.add(backlog_bytes)
        self.queue_reservoir.add(backlog_bytes)

    def record_occupied(self, count: int) -> None:
        self.occupied_stats.add(count)
        self.occupied_sketch.add(count)

    def queue_percentile(self, q: float) -> float:
        return self.queue_sketch.percentile(q)

    def to_dict(self) -> Dict[str, object]:
        return {
            "queue_stats": self.queue_stats.to_dict(),
            "queue_sketch": self.queue_sketch.to_dict(),
            "queue_reservoir": self.queue_reservoir.to_dict(),
            "occupied_stats": self.occupied_stats.to_dict(),
            "occupied_sketch": self.occupied_sketch.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StreamingQueueSampler":
        sampler = cls()
        sampler.queue_stats = StreamingStats.from_dict(data["queue_stats"])
        sampler.queue_sketch = QuantileSketch.from_dict(data["queue_sketch"])
        sampler.queue_reservoir = ReservoirSampler.from_dict(data["queue_reservoir"])
        sampler.occupied_stats = StreamingStats.from_dict(data["occupied_stats"])
        sampler.occupied_sketch = QuantileSketch.from_dict(data["occupied_sketch"])
        return sampler


# ---------------------------------------------------------------------------
# The spilling sink
# ---------------------------------------------------------------------------


class SpillSink(ResultSink):
    """Streams flow records to ``run_dir`` and aggregates samples in O(1).

    ``seed`` only feeds the private reservoir RNGs (raw-sample retention);
    it never touches simulation state.
    """

    def __init__(
        self,
        run_dir: str,
        seed: int = 0,
        chunk_rows: Optional[int] = None,
        reservoir_k: int = 1024,
    ) -> None:
        writer_kwargs = {} if chunk_rows is None else {"chunk_rows": chunk_rows}
        self._writer = SpillWriter(run_dir, **writer_kwargs)
        self.run_dir = run_dir
        self.results_ref = run_dir
        self.flow_stats = StreamingFlowStats(spill_dir=run_dir)
        self.buffer_sampler = StreamingBufferSampler(seed=seed, reservoir_k=reservoir_k)
        self.queue_sampler = StreamingQueueSampler(seed=seed + 1, reservoir_k=reservoir_k)
        self._finalized = False

    def on_flow_record(self, record: FlowRecord) -> None:
        self._writer.write(record)
        self.flow_stats.add(record)

    def on_buffer_sample(self, switch_name: str, occupancy_bytes: int) -> None:
        self.buffer_sampler.record(switch_name, occupancy_bytes)

    def on_queue_sample(self, backlog_bytes: int) -> None:
        self.queue_sampler.record_queue(backlog_bytes)

    def on_occupied_sample(self, count: int) -> None:
        self.queue_sampler.record_occupied(count)

    def finalize(
        self, extras: Optional[Dict[str, object]] = None
    ) -> Tuple[StreamingFlowStats, StreamingBufferSampler, StreamingQueueSampler]:
        if not self._finalized:
            self._writer.close()
            summary = {
                "flows": self.flow_stats.to_dict(),
                "buffer": self.buffer_sampler.to_dict(),
                "queue": self.queue_sampler.to_dict(),
                "extras": extras or {},
            }
            write_summary(self.run_dir, summary)
            self._finalized = True
        return self.flow_stats, self.buffer_sampler, self.queue_sampler
