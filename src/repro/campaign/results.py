"""Tidy per-trial records and campaign result sets.

A campaign produces one :class:`TrialRecord` per trial: the trial's identity
(name, scheme, swept parameters, repeat index, seed) plus a flat dictionary of
deterministic scalar metrics harvested from the simulation.  Records are
JSON-serializable so a whole campaign can be written to a JSONL file, diffed
across commits, reloaded and aggregated without re-running any simulation.

Wall-clock time is kept on the record for reporting but excluded from
equality: two runs of the same campaign (serial or parallel, today or next
week) compare equal iff the simulated outcomes are identical.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.runner import ExperimentResult

class CampaignError(ValueError):
    """A campaign was defined or configured incorrectly (user input error).

    Distinct from the simulator's own ``ValueError``s so front-ends (the CLI)
    can render definition mistakes as clean usage errors while genuine
    simulation bugs keep their tracebacks.
    """


#: Version stamp written to the JSONL header line.
FORMAT_VERSION = 1

_HEADER_KIND = "repro.campaign.resultset"


@contextmanager
def atomic_writer(path: Path) -> Iterator[TextIO]:
    """Write ``path`` all at once: a temp file beside it, then ``os.replace``.

    A failure (or a kill) mid-write leaves the previous file untouched and
    no partial file behind, so a reader never sees a truncated result.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with partial.open("w", encoding="utf-8") as fh:
            yield fh
        os.replace(partial, path)
    finally:
        if partial.exists():
            partial.unlink()


def summarize_result(result: "ExperimentResult") -> Dict[str, float]:
    """Flatten one :class:`ExperimentResult` into deterministic scalar metrics.

    Everything here is a pure function of the simulation (no wall-clock), so
    the same config and seed always produce the same metrics dict.
    """
    pause = result.pause_fraction_by_class()
    return {
        "flows_offered": result.flows_offered,
        "completion_rate": result.completion_rate(),
        "p99_slowdown": result.p99_slowdown(),
        "mean_slowdown": result.mean_slowdown(),
        "dropped_packets": result.dropped_packets,
        "p99_buffer_bytes": result.buffer_sampler.percentile(99),
        "max_buffer_bytes": result.buffer_sampler.max_occupancy(),
        "max_pfc_pause_fraction": max(pause.values()) if pause else 0.0,
        "mean_utilization": result.mean_utilization(),
        "collision_fraction": result.collision_fraction or 0.0,
        "events_processed": result.events_processed,
    }


@dataclass
class TrialRecord:
    """One row of a campaign: trial identity plus its measured metrics."""

    name: str
    label: str
    scheme: str
    params: Dict[str, object] = field(default_factory=dict)
    repeat: int = 0
    seed: int = 1
    metrics: Dict[str, float] = field(default_factory=dict)
    wall_seconds: float = field(default=0.0, compare=False)
    #: Durable on-disk artifacts the trial left behind, keyed by kind —
    #: notably ``"results_dir"``: the spilled ``repro.results`` directory
    #: when the trial ran with ``results_dir`` set.  Excluded from equality
    #: (two runs of the same trial into different scratch dirs are the same
    #: trial) but persisted through JSONL, so a reloaded campaign can re-open
    #: full per-flow data via :meth:`ResultSet.analyzer_for`.
    artifacts: Dict[str, str] = field(default_factory=dict, compare=False)

    def get(self, key: str):
        """Look a key up across identity fields, params and metrics.

        This is what the aggregation helpers use, so ``"scheme"``, a swept
        parameter like ``"load"`` and a metric like ``"p99_slowdown"`` can all
        be used as grouping keys or values.
        """
        if key in ("name", "label", "scheme", "repeat", "seed", "wall_seconds"):
            return getattr(self, key)
        if key in self.params:
            return self.params[key]
        if key in self.metrics:
            return self.metrics[key]
        raise KeyError(
            f"record {self.name!r} has no field, param or metric {key!r}; "
            f"params: {sorted(self.params)}; metrics: {sorted(self.metrics)}"
        )

    def to_dict(self) -> Dict[str, object]:
        payload = {
            "name": self.name,
            "label": self.label,
            "scheme": self.scheme,
            "params": dict(self.params),
            "repeat": self.repeat,
            "seed": self.seed,
            "metrics": dict(self.metrics),
            "wall_seconds": self.wall_seconds,
        }
        # Written only when present, so files from artifact-less campaigns
        # stay byte-identical to the pre-artifact format.
        if self.artifacts:
            payload["artifacts"] = dict(self.artifacts)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TrialRecord":
        return cls(
            name=payload["name"],
            label=payload.get("label", payload["name"]),
            scheme=payload.get("scheme", ""),
            params=dict(payload.get("params", {})),
            repeat=int(payload.get("repeat", 0)),
            seed=int(payload.get("seed", 1)),
            metrics=dict(payload.get("metrics", {})),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            artifacts=dict(payload.get("artifacts", {})),
        )


GroupKey = Union[object, Tuple[object, ...]]


class ResultSet:
    """The outcome of a campaign: records, aggregation and persistence.

    Records are always present.  The full :class:`ExperimentResult` objects
    (flow records, samplers, ...) are retained only for result sets produced
    by running a campaign in this process; a set reloaded from JSONL carries
    records alone.
    """

    def __init__(
        self,
        records: Iterable[TrialRecord] = (),
        campaign: Optional[str] = None,
        results: Optional[Dict[str, "ExperimentResult"]] = None,
    ) -> None:
        self.campaign = campaign
        self.records: List[TrialRecord] = list(records)
        self._results: Dict[str, "ExperimentResult"] = dict(results or {})

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TrialRecord]:
        return iter(self.records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        # Order-insensitive: a resumed or parallel campaign may append records
        # in a different order without changing the outcome.
        key: Callable[[TrialRecord], str] = lambda r: r.name
        return sorted(self.records, key=key) == sorted(other.records, key=key)

    def names(self) -> List[str]:
        return [record.name for record in self.records]

    def record(self, name: str) -> TrialRecord:
        for rec in self.records:
            if rec.name == name:
                return rec
        raise KeyError(f"no record named {name!r} in campaign {self.campaign!r}")

    def filter(self, **criteria) -> "ResultSet":
        """Sub-select records by identity/param/metric equality."""
        kept = [
            rec
            for rec in self.records
            if all(rec.get(key) == value for key, value in criteria.items())
        ]
        return ResultSet(
            kept,
            campaign=self.campaign,
            results={r.name: self._results[r.name] for r in kept if r.name in self._results},
        )

    def merge(self, other: "ResultSet") -> "ResultSet":
        """Union of two result sets; on a name clash ``other`` wins."""
        by_name = {rec.name: rec for rec in self.records}
        by_name.update({rec.name: rec for rec in other.records})
        results = dict(self._results)
        results.update(other._results)
        return ResultSet(
            by_name.values(),
            campaign=self.campaign or other.campaign,
            results={n: r for n, r in results.items() if n in by_name},
        )

    # -- full experiment results -------------------------------------------

    def has_experiment_results(self) -> bool:
        return bool(self._results)

    def experiment_result(self, name: str) -> "ExperimentResult":
        try:
            return self._results[name]
        except KeyError:
            raise KeyError(
                f"no ExperimentResult retained for {name!r} (result sets loaded "
                "from JSONL carry records only; re-run the campaign for full results)"
            ) from None

    def experiment_results(self) -> Dict[str, "ExperimentResult"]:
        """Full results keyed by trial name (only for in-process runs)."""
        return dict(self._results)

    def experiment_results_by_label(self) -> Dict[str, "ExperimentResult"]:
        """Full results keyed by the trial's short label.

        This is the shape the figure tables and the CLI want:
        ``Campaign.from_configs`` keeps the original ``{label: config}`` keys
        as labels, so this round-trips a config map to a result map.

        Raises if any record lacks a retained result (run with
        ``keep_results=False``, or replayed from a JSONL resume) rather than
        silently returning a partial map.
        """
        missing = [rec.label for rec in self.records if rec.name not in self._results]
        if missing:
            raise KeyError(
                f"no ExperimentResult retained for {len(missing)} of "
                f"{len(self.records)} trial(s) (e.g. {missing[0]!r}); results "
                "are not kept with keep_results=False and cannot be recovered "
                "from a JSONL resume — re-run those trials for full results"
            )
        counts = Counter(rec.label for rec in self.records)
        duplicated = sorted(label for label, n in counts.items() if n > 1)
        if duplicated:
            raise KeyError(
                f"label(s) {duplicated[:3]} are not unique in this result set "
                "(e.g. after merging campaigns); key by trial name via "
                "experiment_results() instead"
            )
        return {rec.label: self._results[rec.name] for rec in self.records}

    # -- spilled artifacts ---------------------------------------------------

    def artifacts_by_label(self, kind: str = "results_dir") -> Dict[str, str]:
        """``{label: path}`` for every record carrying a ``kind`` artifact.

        Unlike :meth:`experiment_results_by_label` this survives a JSONL
        reload: artifact paths are persisted with the record, so a campaign
        run with ``results_dir`` set can be analyzed long after (and outside)
        the process that ran it.
        """
        return {
            rec.label: rec.artifacts[kind]
            for rec in self.records
            if kind in rec.artifacts
        }

    def analyzer_for(self, label: str):
        """A :class:`repro.results.ResultsAnalyzer` over one trial's spill dir.

        Raises ``KeyError`` if no record has that label or the record carries
        no ``results_dir`` artifact (trial ran with the in-memory harvest).
        """
        from repro.results import ResultsAnalyzer

        for rec in self.records:
            if rec.label == label:
                if "results_dir" not in rec.artifacts:
                    raise KeyError(
                        f"trial {label!r} has no results_dir artifact; run its "
                        "campaign with ExperimentConfig.results_dir set to spill "
                        "per-flow records to disk"
                    )
                return ResultsAnalyzer(rec.artifacts["results_dir"])
        raise KeyError(f"no record labelled {label!r} in campaign {self.campaign!r}")

    # -- aggregation --------------------------------------------------------

    def aggregate(
        self,
        metric: str,
        by: Sequence[str],
        agg: Callable[[Sequence[float]], float] = None,
    ) -> Dict[GroupKey, float]:
        """Group records by the ``by`` keys and reduce ``metric`` per group.

        ``by`` keys and ``metric`` may name identity fields, swept params or
        metrics (see :meth:`TrialRecord.get`).  The default reduction is the
        mean, which averages across repeats.
        """
        if agg is None:
            agg = lambda values: sum(values) / len(values)
        groups: Dict[GroupKey, List[float]] = {}
        for rec in self.records:
            key_parts = tuple(rec.get(k) for k in by)
            key: GroupKey = key_parts[0] if len(key_parts) == 1 else key_parts
            groups.setdefault(key, []).append(float(rec.get(metric)))
        return {key: agg(values) for key, values in groups.items()}

    def p99_slowdown_by(self, *by: str) -> Dict[GroupKey, float]:
        """Mean (over repeats) p99 FCT slowdown per ``by`` group."""
        return self.aggregate("p99_slowdown", by or ("scheme",))

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> Path:
        """Write the campaign as JSONL (header + one line per record), atomically."""
        path = Path(path)
        with atomic_writer(path) as fh:
            header = {
                "kind": _HEADER_KIND,
                "version": FORMAT_VERSION,
                "campaign": self.campaign,
            }
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.records:
                # default=str: params may carry non-JSON values (e.g. a
                # BfcConfig passed through .fixed()); their deterministic
                # repr keeps the record serializable and identity-stable.
                fh.write(json.dumps(rec.to_dict(), sort_keys=True, default=str) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "ResultSet":
        """Reload a JSONL file written by :meth:`save` (records only)."""
        path = Path(path)
        campaign: Optional[str] = None
        records: List[TrialRecord] = []
        with path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                payload = json.loads(line)
                if payload.get("kind") == _HEADER_KIND:
                    campaign = payload.get("campaign")
                    continue
                records.append(TrialRecord.from_dict(payload))
        return cls(records, campaign=campaign)
