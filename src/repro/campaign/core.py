"""Declarative experiment campaigns.

A :class:`Campaign` describes a grid of simulation runs — the paper's
evaluation is exactly such a grid ({scheme} x {workload knobs} x {repeats}) —
and expands it into named :class:`Trial` objects that an executor runs::

    from repro.campaign import Campaign

    results = (
        Campaign("fig5a")
        .schemes("BFC", "DCQCN")
        .sweep(load=[0.6, 0.8, 0.9])
        .repeats(3)
        .run(cores=4)
    )
    print(results.p99_slowdown_by("scheme", "load"))

Seeds are derived per repeat (not per scheme or sweep point), so every scheme
at every sweep point of repeat *r* sees the same random workload — schemes
stay comparable within a repeat, while repeats average over trace randomness.

Existing per-figure config factories plug in through
:meth:`Campaign.from_configs`, which wraps any ``{label: ExperimentConfig}``
mapping (nested sweeps included) without changing how the configs are built.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.runner import ExperimentConfig
from repro.workloads.distributions import EmpiricalSizeDistribution
from repro.workloads.trace import FlowTrace

from .executors import Executor, make_executor
from .results import CampaignError, ResultSet, TrialRecord

#: Parameters the default config builder interprets itself; everything else
#: must be an :class:`ExperimentConfig` field override.
_BUILDER_PARAMS = ("load", "incast", "workload", "scale")


@dataclass(frozen=True)
class Trial:
    """One fully-specified simulation run of a campaign."""

    name: str
    label: str
    scheme: str
    params: Dict[str, object] = field(default_factory=dict, compare=False)
    repeat: int = 0
    seed: int = 1
    config: ExperimentConfig = field(default=None, compare=False, repr=False)


def _format_param(key: str, value: object) -> str:
    if isinstance(value, float):
        return f"{key}={value:g}"
    return f"{key}={value}"


def _reseeded(config: ExperimentConfig, seed: int, name: str) -> ExperimentConfig:
    """Clone a config under a new seed and name.

    TrafficSpec-driven traffic (background workload, incast process) is
    regenerated under the new seed at run time; pre-generated
    ``explicit_flows`` are part of the config and stay fixed.  Campaigns that
    need fully resampled explicit flows per repeat should rebuild their
    configs per seed via :meth:`Campaign.from_config_factory`.
    """
    return replace(
        config, name=name, seed=seed, traffic=replace(config.traffic, seed=seed)
    )


def _config_fingerprint(config: ExperimentConfig) -> str:
    """Deterministic short digest of a config's contents.

    Trials built from prebuilt configs carry this in their params so resume
    identity notices a changed config (different scale, workload, knobs...)
    even though the trial name and seed are unchanged.  Stable across
    processes and sessions: session-dependent values (flow ids, runtime flow
    state) are excluded.
    """

    def canon(obj):
        if isinstance(obj, FlowTrace):
            return [
                (f.src, f.dst, f.size, f.start_ns, f.src_port, f.dst_port,
                 f.is_incast, f.tag)
                for f in obj.flows
            ]
        if isinstance(obj, EmpiricalSizeDistribution):
            return {"distribution": obj.name}
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {
                f.name: canon(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            }
        if isinstance(obj, (list, tuple)):
            return [canon(item) for item in obj]
        if isinstance(obj, dict):
            return {str(k): canon(v) for k, v in obj.items()}
        return obj if isinstance(obj, (int, float, str, bool, type(None))) else repr(obj)

    payload = json.dumps(canon(config), sort_keys=True, default=str)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]


def _check_unique_names(trials: List[Trial]) -> List[Trial]:
    """Reject expansions with colliding trial names.

    Duplicates would run (burning wall-clock) and then silently collapse to
    one record in the merge — e.g. a sweep axis listing the same value twice,
    or two values formatting to the same label.
    """
    seen: Dict[str, int] = {}
    for trial in trials:
        seen[trial.name] = seen.get(trial.name, 0) + 1
    dupes = sorted(name for name, count in seen.items() if count > 1)
    if dupes:
        raise CampaignError(
            f"duplicate trial name(s) {dupes[:3]}; check the sweep axes for "
            "repeated or same-formatting values"
        )
    return trials


def flatten_configs(
    configs: Mapping[str, object], prefix: str = ""
) -> List[Tuple[str, ExperimentConfig]]:
    """Flatten possibly-nested ``{label: config}`` maps to ``label/sublabel`` pairs."""
    flat: List[Tuple[str, ExperimentConfig]] = []
    for key, value in configs.items():
        label = f"{prefix}{key}"
        if isinstance(value, ExperimentConfig):
            flat.append((label, value))
        elif isinstance(value, Mapping):
            flat.extend(flatten_configs(value, prefix=f"{label}/"))
        else:
            raise TypeError(
                f"config map entry {label!r} is neither an ExperimentConfig "
                f"nor a mapping: {type(value).__name__}"
            )
    return flat


class Campaign:
    """Fluent builder for a grid of experiments.

    Every builder method returns ``self`` so grids read as one expression.
    The grid is expanded lazily by :meth:`trials`; :meth:`run` executes it
    through the resource-aware scheduler — serially by default, or on
    ``cores=N`` / ``"auto"`` CPU slots, where a ``shards=N`` trial counts as
    N of them — and returns a :class:`ResultSet`.  :meth:`plan` previews
    that execution without running anything.

    All execution paths produce bit-identical records; see
    ``docs/campaigns.md`` for the user guide and ``docs/determinism.md``
    for the underlying contracts.
    """

    def __init__(self, name: str, scale: str = "tiny", workload: str = "google"):
        self.name = name
        self._scale = scale
        self._workload = workload
        self._schemes: List[str] = []
        self._axes: Dict[str, List[object]] = {}
        self._fixed: Dict[str, object] = {}
        self._repeats = 1
        self._seeds: Optional[List[int]] = None
        self._base_seed = 1
        self._base_seed_set = False
        self._config_builder = None
        self._configs: Optional[List[Tuple[str, ExperimentConfig]]] = None
        self._config_factory = None
        self._builder_knobs_touched = False

    # -- grid definition -----------------------------------------------------

    def schemes(self, *names: str) -> "Campaign":
        """Select the congestion-control schemes (one grid axis)."""
        from repro.experiments.schemes import get_scheme

        for name in names:
            get_scheme(name)  # fail fast on unknown schemes
        self._schemes = list(names)
        return self

    def sweep(self, **axes: Sequence[object]) -> "Campaign":
        """Add swept parameter axes; the grid is their cartesian product."""
        for key, values in axes.items():
            values = list(values)
            if not values:
                raise CampaignError(f"sweep axis {key!r} has no values")
            self._axes[key] = values
        return self

    def fixed(self, **params: object) -> "Campaign":
        """Set parameters held constant across the whole campaign."""
        self._fixed.update(params)
        return self

    def repeats(self, count: int) -> "Campaign":
        """Repeat every grid point ``count`` times under per-repeat seeds."""
        if count < 1:
            raise CampaignError(f"repeats must be >= 1, got {count}")
        self._repeats = count
        return self

    def seeds(self, *seeds: int, base: Optional[int] = None) -> "Campaign":
        """Control seeding: an explicit per-repeat list, or a base to offset.

        ``seeds(11, 12, 13)`` pins the seed of each repeat; the repeat count
        follows the list.  ``seeds(base=7)`` derives repeat *r*'s seed as
        ``7 + r``.
        """
        if seeds and base is not None:
            raise CampaignError("pass explicit seeds or base=..., not both")
        if seeds:
            self._seeds = list(seeds)
            self._repeats = len(self._seeds)
        elif base is not None:
            self._base_seed = base
            self._base_seed_set = True
            self._seeds = None
        return self

    def scale(self, name: str) -> "Campaign":
        """Pick the topology/trace scale preset ("tiny", "small", "paper")."""
        self._scale = name
        self._builder_knobs_touched = True
        return self

    def workload(self, name: str) -> "Campaign":
        """Pick the flow-size distribution ("google", "fb_hadoop", ...)."""
        self._workload = name
        self._builder_knobs_touched = True
        return self

    def config_builder(self, builder) -> "Campaign":
        """Install a custom ``(campaign, scheme, params, seed, name) -> config``."""
        self._config_builder = builder
        self._builder_knobs_touched = True
        return self

    @classmethod
    def from_configs(
        cls, name: str, configs: Mapping[str, object]
    ) -> "Campaign":
        """Wrap an existing ``{label: config}`` map (nested maps are flattened).

        The labels become trial labels verbatim, so a result set maps back to
        the original keys via :meth:`ResultSet.experiment_results_by_label`.
        ``repeats``/``seeds`` still apply: each repeat re-seeds the configs.
        """
        campaign = cls(name)
        campaign._configs = flatten_configs(configs)
        return campaign

    @classmethod
    def from_config_factory(cls, name: str, factory) -> "Campaign":
        """Wrap a ``seed -> {label: config}`` factory instead of fixed configs.

        Unlike :meth:`from_configs`, the factory is re-invoked with each
        repeat's seed, so configs that bake traffic in at build time (e.g.
        pre-generated explicit flow lists) genuinely resample it per repeat.
        """
        campaign = cls(name)
        campaign._config_factory = factory
        return campaign

    # -- expansion -----------------------------------------------------------

    def _seed_for(self, repeat: int) -> int:
        if self._seeds is not None:
            if repeat >= len(self._seeds):
                raise CampaignError(
                    f"campaign {self.name!r}: {self._repeats} repeats but only "
                    f"{len(self._seeds)} explicit seed(s); pass one seed per "
                    "repeat or use seeds(base=...)"
                )
            return self._seeds[repeat]
        return self._base_seed + repeat

    def _grid_points(self) -> List[Dict[str, object]]:
        if not self._axes:
            return [dict(self._fixed)]
        keys = list(self._axes)
        points = []
        for combo in itertools.product(*(self._axes[k] for k in keys)):
            params = dict(self._fixed)
            params.update(dict(zip(keys, combo)))
            points.append(params)
        return points

    def trials(self) -> List[Trial]:
        """Expand the campaign into its full, deterministic trial list."""
        if self._config_factory is not None or self._configs is not None:
            if self._schemes or self._axes or self._fixed or self._builder_knobs_touched:
                raise CampaignError(
                    f"campaign {self.name!r} wraps prebuilt configs; "
                    ".schemes()/.sweep()/.fixed()/.scale()/.workload()/"
                    ".config_builder() have no effect on it — vary those in "
                    "the config factory, or build a grid campaign with "
                    "Campaign(name).schemes(...) instead"
                )
            if self._config_factory is not None:
                return _check_unique_names(self._expand_config_factory())
            return _check_unique_names(self._expand_configs())
        if not self._schemes:
            raise CampaignError(
                f"campaign {self.name!r} has no schemes; call .schemes(...) "
                "or build it with Campaign.from_configs(...)"
            )
        swept_keys = list(self._axes)
        trials: List[Trial] = []
        for repeat in range(self._repeats):
            seed = self._seed_for(repeat)
            for scheme in self._schemes:
                for params in self._grid_points():
                    if self._config_builder is None:
                        # Bake the builder defaults into the recorded params
                        # so records are self-describing and resume identity
                        # notices a changed scale/workload (labels are
                        # unaffected: they carry swept keys only).
                        params.setdefault("scale", self._scale)
                        params.setdefault("workload", self._workload)
                    label_parts = [scheme]
                    label_parts += [_format_param(k, params[k]) for k in swept_keys]
                    if self._repeats > 1:
                        label_parts.append(f"rep{repeat}")
                    label = "/".join(label_parts)
                    name = f"{self.name}/{label}"
                    config = self._build_config(scheme, params, seed, name)
                    if self._config_builder is not None:
                        # A custom builder's output is opaque to the params,
                        # so fingerprint the config for resume identity (the
                        # default builder is fully determined by its params).
                        params = dict(params)
                        params["config"] = _config_fingerprint(config)
                    trials.append(
                        Trial(
                            name=name,
                            label=label,
                            scheme=scheme,
                            params=dict(params),
                            repeat=repeat,
                            seed=seed,
                            config=config,
                        )
                    )
        return _check_unique_names(trials)

    def _expand_config_factory(self) -> List[Trial]:
        trials: List[Trial] = []
        for repeat in range(self._repeats):
            seed = self._seed_for(repeat)
            for label, config in flatten_configs(self._config_factory(seed)):
                full_label = f"{label}/rep{repeat}" if self._repeats > 1 else label
                name = f"{self.name}/{full_label}"
                trial_config = replace(config, name=name)
                trials.append(
                    Trial(
                        name=name,
                        label=full_label,
                        scheme=config.scheme,
                        params={"config": _config_fingerprint(trial_config)},
                        repeat=repeat,
                        seed=seed,
                        config=trial_config,
                    )
                )
        return trials

    def _expand_configs(self) -> List[Trial]:
        trials: List[Trial] = []
        reseed = self._repeats > 1 or self._seeds is not None or self._base_seed_set
        for repeat in range(self._repeats):
            for label, config in self._configs:
                if reseed:
                    seed = self._seed_for(repeat)
                    full_label = f"{label}/rep{repeat}" if self._repeats > 1 else label
                    name = f"{self.name}/{full_label}"
                    trial_config = _reseeded(config, seed, name)
                else:
                    # Single repeat, default seeding: run the configs verbatim.
                    seed = config.seed
                    full_label = label
                    name = f"{self.name}/{full_label}"
                    trial_config = replace(config, name=name)
                trials.append(
                    Trial(
                        name=name,
                        label=full_label,
                        scheme=trial_config.scheme,
                        # The fingerprint stands in for grid params: resume
                        # identity must notice when the wrapped configs change
                        # under an unchanged label (e.g. another scale).
                        params={"config": _config_fingerprint(trial_config)},
                        repeat=repeat,
                        seed=seed,
                        config=trial_config,
                    )
                )
        return trials

    def _build_config(
        self, scheme: str, params: Dict[str, object], seed: int, name: str
    ) -> ExperimentConfig:
        if self._config_builder is not None:
            return self._config_builder(self, scheme, params, seed, name)
        # Default builder: the paper's background-workload-plus-incast setup,
        # same shape as the CLI's `run` command.
        from repro.experiments import scenarios
        from repro.workloads.distributions import WORKLOADS

        scale = scenarios.get_scale(str(params.get("scale", self._scale)))
        workload = str(params.get("workload", self._workload))
        try:
            distribution = WORKLOADS[workload]
        except KeyError:
            raise KeyError(
                f"unknown workload {workload!r}; available: {', '.join(sorted(WORKLOADS))}"
            ) from None
        load = float(params.get("load", 0.6))
        incast = float(params.get("incast", 0.05))
        overrides = {
            k: v for k, v in params.items() if k not in _BUILDER_PARAMS
        }
        # name/scheme/seed are bookkept by the campaign itself; accepting them
        # as parameters would desynchronize trial identity from the config.
        reserved = {"name", "scheme", "seed"} & set(overrides)
        if reserved:
            raise CampaignError(
                f"campaign {self.name!r}: parameter(s) {sorted(reserved)} are "
                "managed by the campaign; use .schemes(...) for the scheme "
                "and .seeds()/.repeats() for seeding"
            )
        config_fields = {f.name for f in fields(ExperimentConfig)} - {
            "name", "scheme", "seed"
        }
        unknown = sorted(set(overrides) - config_fields)
        if unknown:
            raise CampaignError(
                f"campaign {self.name!r}: unknown parameter(s) {unknown}; "
                f"use {', '.join(_BUILDER_PARAMS)} or ExperimentConfig fields "
                f"({', '.join(sorted(config_fields))})"
            )
        traffic = scenarios._background_traffic(
            scale,
            distribution,
            load,
            incast_load=incast if incast > 0 else None,
            seed=seed,
        )
        config = scenarios._base_config(name, scheme, scale, traffic, seed=seed)
        # replace() instead of passing **overrides down: every remaining field
        # (including traffic/clos, which _base_config binds positionally) is
        # overridable without keyword collisions.
        return replace(config, **overrides) if overrides else config

    # -- execution -----------------------------------------------------------

    def _split_resume(self, trials: List[Trial], resume: Optional[object]):
        """Partition trials against a resume file: (done, stale, pending).

        A recorded trial only counts as done under the same seed and
        parameters: trial names encode only the swept axes, so resuming
        after changing the seed or a fixed knob (workload, incast, ...)
        must re-run, not replay stale records that share the name.
        """
        loaded = ResultSet(campaign=self.name)
        if resume is not None and Path(resume).exists():
            loaded = ResultSet.load(resume)

        def identity(name, seed, params):
            return (name, seed, json.dumps(params, sort_keys=True, default=str))

        current_keys = {identity(t.name, t.seed, t.params) for t in trials}
        # Records that no longer correspond to any trial of this campaign
        # (e.g. the repeat count or sweep axes changed, renaming the trials)
        # are kept out of the returned set — they would double-count runs in
        # aggregates — but preserved when writing the file back: a narrower
        # resume must not erase history that an earlier, wider run computed.
        stale = []
        kept = []
        for rec in loaded.records:
            key = identity(rec.name, rec.seed, rec.params)
            (kept if key in current_keys else stale).append(rec)
        done = ResultSet(kept, campaign=loaded.campaign)
        done_keys = {identity(rec.name, rec.seed, rec.params) for rec in done.records}
        pending = [
            t for t in trials if identity(t.name, t.seed, t.params) not in done_keys
        ]
        return done, stale, pending

    def plan(
        self, cores: Optional[object] = None, resume: Optional[object] = None
    ):
        """Preview the resource-aware execution plan without running anything.

        Expands the campaign, drops trials already recorded in ``resume``
        (exactly as :meth:`run` would) and orders the remainder longest
        first on ``cores`` CPU slots (default one, as in :meth:`run`) — a
        sharded trial counts as ``shards`` slots.  Returns an
        :class:`~repro.campaign.scheduling.ExecutionPlan`; its
        :meth:`~repro.campaign.scheduling.ExecutionPlan.describe` is what the
        CLI prints for ``--dry-run``.
        """
        from .scheduling import plan_trials

        _, _, pending = self._split_resume(self.trials(), resume)
        return plan_trials(pending, 1 if cores is None else cores)

    def run(
        self,
        executor: Optional[Executor] = None,
        cores: Optional[object] = None,
        save: Optional[object] = None,
        resume: Optional[object] = None,
        keep_results: bool = True,
        workspace: Optional[object] = None,
    ) -> ResultSet:
        """Execute the campaign and return its :class:`ResultSet`.

        Without an ``executor``, trials run through the resource-aware
        scheduler on ``cores`` CPU slots (an int or ``"auto"``; default one,
        in this process), longest first, where a trial with ``shards=N``
        occupies ``N`` of them (see :mod:`repro.campaign.scheduling`).
        Passing both ``executor`` and ``cores`` is rejected.  All paths
        produce bit-identical records — only wall-clock time differs.

        ``resume`` names a JSONL file from a previous (possibly interrupted)
        run: trials already recorded there are skipped.  ``save`` writes the
        merged result set back out after every finished trial, atomically,
        so an interrupt loses only the trials in flight (``resume`` doubles
        as ``save`` when only ``resume`` is given).

        ``keep_results=False`` drops the full per-trial
        :class:`ExperimentResult` objects (and keeps them out of the
        process-pool pipe): the returned set carries tidy records only, which
        is all that record/JSONL consumers need and much lighter for large
        sweeps.

        ``workspace`` lands the whole run in an experiment workspace: pass a
        root directory (a fresh timestamped run folder is created under it)
        or a ready :class:`~repro.campaign.workspace.Workspace` (its existing
        ``results.jsonl``, if any, is resumed from — the coordinator-restart
        path).  The workspace's JSONL becomes the ``save`` target (passing
        ``save``/``resume`` alongside is ambiguous and rejected), and after
        the final persist the workspace collects per-trial artifacts and
        writes ``manifest.json`` and ``report.md`` — see
        ``docs/distributed.md``.
        """
        ws = None
        if workspace is not None:
            from .workspace import Workspace

            if save is not None or resume is not None:
                raise CampaignError(
                    "pass workspace=... or save=/resume=..., not both "
                    "(the workspace owns its results.jsonl)"
                )
            ws = (
                workspace
                if isinstance(workspace, Workspace)
                else Workspace.create(workspace, self.name)
            )
            save = ws.results_path
            if ws.results_path.exists():
                resume = ws.results_path
        trials = self.trials()
        done, stale, pending = self._split_resume(trials, resume)
        target = save if save is not None else resume
        chosen = make_executor(executor, cores, records_only=not keep_results)

        def persist(result_set: ResultSet) -> None:
            if target is None:
                return
            # History preservation on rewrite: a stale record is superseded
            # only once a record under the same name actually exists in the
            # set being written (same-name duplicates would blend two runs in
            # any reloaded aggregate).  Names not (yet) re-recorded — dropped
            # sweep points, or trials an interrupted re-seeded run has not
            # reached — keep their old records.
            written = {rec.name for rec in result_set.records}
            kept_stale = [rec for rec in stale if rec.name not in written]
            ResultSet(
                kept_stale + list(result_set.records), campaign=self.name
            ).save(target)

        # With a file to write, persist after every finished trial, so an
        # interrupted campaign loses only the trials that were in flight.
        finished: List[TrialRecord] = []

        def on_done(pair) -> None:
            finished.append(pair[0])
            persist(done.merge(ResultSet(finished, campaign=self.name)))

        outcome_pairs = (
            chosen.run(pending, on_done=on_done if target is not None else None)
            if pending
            else []
        )

        fresh = ResultSet(
            [record for record, _ in outcome_pairs],
            campaign=self.name,
            results={
                record.name: result
                for record, result in outcome_pairs
                if result is not None and keep_results
            },
        )
        merged = done.merge(fresh)
        merged.campaign = self.name
        # Always rewrite at the end: after a pure replay the file still needs
        # the pruned/merged state, and after streamed execution this restores
        # the canonical (trial-order) record order on disk.
        persist(merged)
        if ws is not None:
            plan_dict = None
            if hasattr(chosen, "plan"):
                try:
                    plan_dict = chosen.plan(trials).to_dict()
                except Exception:
                    plan_dict = None  # manifest provenance is best-effort
            ws.finalize(
                merged, campaign=self.name, executor=chosen, plan=plan_dict
            )
        return merged
