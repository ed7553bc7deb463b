"""Sharded == single-process determinism proof.

The contract of :mod:`repro.shard` is that running ONE experiment across
several OS processes is *measurement-invisible*: every canonical record a
single-process run produces — flow completions and slowdowns, switch
counters, buffer/queue samples in their exact order, pause fractions,
utilization, VFID statistics — is byte-for-byte identical when the same
config runs sharded.  Only ``events_processed`` legitimately differs (each
boundary crossing is two engine events instead of one, and every shard runs
its own sampling tick).

The scenario is the golden-records fig5a slice (see ``tests/golden_kernel``),
covering the three most distinct kernels: BFC (VFID tables, Bloom pauses),
DCQCN (ECN + per-switch RNG draws) and HPCC (INT stamping), so the proof
spans control packets, RNG state and telemetry crossing shard boundaries.

These tests also pin the coordinator's sampling replica
(:class:`repro.shard.coordinator._ShardSampler`) to the runner's
``_schedule_sampling`` loop: a change to either that breaks the interleaving
shows up here as a byte diff.
"""

import json
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign import Campaign, ParallelExecutor, SerialExecutor
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import fig5a_configs, fig9_configs
from repro.sim import units

from tests.golden_kernel import GOLDEN_SCHEMES, canonical_records, golden_configs


#: Every key a sharded run may report in ``ExperimentResult.shard_stats``.
#: The same table appears in docs/architecture.md ("shard_stats schema") —
#: keep the two in sync; :func:`assert_shard_stats_schema` enforces this one.
SHARD_STATS_KEYS = {
    # From PartitionSpec.stats (always present).
    "num_shards", "strategy", "shards", "cut_links", "cut_links_by_class",
    "window_ns",
    # Degenerate partitions fall back to the single-process runner.
    "degenerate",
    # Scheduling (present when the campaign scheduler reserved slots).
    "slot_budget", "oversubscribed",
    # Coordinator merge (present on every true multi-process run).
    "barriers", "boundary_packets",
    "events_per_shard", "boundary_ports_per_shard",
}


def assert_shard_stats_schema(stats):
    """Fail on any undocumented shard_stats key (schema-drift tripwire)."""
    assert stats is not None
    unknown = set(stats) - SHARD_STATS_KEYS
    assert not unknown, (
        f"undocumented shard_stats keys {sorted(unknown)}; add them to "
        "SHARD_STATS_KEYS here AND to the schema table in docs/architecture.md"
    )


def shard_canonical(result):
    """Canonical records comparable between sharded and serial runs.

    Identical to the golden reduction except for ``events_processed``: a
    sharded run fires one capture event per boundary crossing plus one
    sampling tick per shard, so the raw engine event count is the one
    quantity that is *expected* to differ.
    """
    records = canonical_records(result)
    records.pop("events_processed")
    # Round-trip through JSON so float formatting matches exactly.
    return json.loads(json.dumps(records, sort_keys=True))


@pytest.fixture(scope="module")
def serial_records():
    return {
        scheme: shard_canonical(run_experiment(config))
        for scheme, config in golden_configs().items()
    }


@pytest.fixture(scope="module")
def golden_sharded():
    """Sharded golden runs, memoized by ``(scheme, shards)``."""
    cache = {}

    def run(scheme, shards):
        if (scheme, shards) not in cache:
            config = replace(golden_configs()[scheme], shards=shards)
            cache[scheme, shards] = run_experiment(config)
        return cache[scheme, shards]

    return run


class TestShardedEqualsSerial:
    @pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
    @pytest.mark.parametrize("shards", [2, 4])
    def test_byte_identical_records(
        self, serial_records, golden_sharded, scheme, shards
    ):
        sharded = shard_canonical(golden_sharded(scheme, shards))
        serial = serial_records[scheme]
        for key in serial:
            assert sharded[key] == serial[key], (
                f"{scheme} shards={shards}: {key} diverged from the "
                "single-process run"
            )
        assert sharded == serial

    @pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
    def test_sharded_run_is_deterministic_run_to_run(self, golden_sharded, scheme):
        config = replace(golden_configs()[scheme], shards=2)
        first = shard_canonical(golden_sharded(scheme, 2))
        second = shard_canonical(run_experiment(config))
        assert first == second

    def test_shard_stats_reported(self):
        config = replace(golden_configs()["BFC"], shards=2)
        result = run_experiment(config)
        stats = result.shard_stats
        assert stats is not None
        assert_shard_stats_schema(stats)
        assert stats["num_shards"] == 2
        assert stats["cut_links"] > 0
        assert stats["window_ns"] == config.clos.link_delay_ns
        assert stats["barriers"] > 0
        assert stats["boundary_packets"] > 0
        assert sum(int(v) for v in stats["events_per_shard"].values()) == (
            result.events_processed
        )


class TestShardStatsAccounting:
    """Every kernel's sharded run reports stats that add up."""

    @pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
    @pytest.mark.parametrize("shards", [2, 4])
    def test_stats_account_for_every_event_and_port(
        self, golden_sharded, scheme, shards
    ):
        result = golden_sharded(scheme, shards)
        stats = result.shard_stats
        assert_shard_stats_schema(stats)
        assert stats["num_shards"] == shards
        assert "degenerate" not in stats
        assert stats["window_ns"] == golden_configs()[scheme].clos.link_delay_ns
        assert stats["barriers"] > 0
        assert stats["boundary_packets"] > 0
        populated = {
            shard
            for shard, size in stats["shards"].items()
            if size["hosts"] or size["switches"]
        }
        events = stats["events_per_shard"]
        assert set(events) == populated
        assert sum(int(v) for v in events.values()) == result.events_processed
        # Each cut link is a boundary egress port at both of its ends.
        ports = stats["boundary_ports_per_shard"]
        assert set(ports) == populated
        assert sum(ports.values()) == 2 * stats["cut_links"]


def test_schema_table_in_architecture_doc_matches_keys():
    """docs/architecture.md lists exactly SHARD_STATS_KEYS."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "architecture.md")
    text = doc.read_text()
    section = text.split("### `shard_stats` schema", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([a-z_]+)` \|", section, re.MULTILINE))
    assert documented == SHARD_STATS_KEYS


def four_pod(config):
    """The golden slice on four ToRs of four hosts (same 2:1 oversubscription)."""
    return replace(config, clos=replace(config.clos, num_tors=4, hosts_per_tor=4))


class TestFourPodFabric:
    """Partitions that the two-pod golden fabric cannot produce.

    On four pods, 3 shards split the pods unevenly (2 + 1 + 1), ``greedy``
    interleaves pods across shards instead of keeping them contiguous, and
    4 shards give every pod its own shard with the spine tier split across
    two of them.
    """

    @pytest.fixture(scope="class")
    def serial_four_pod(self):
        return {
            scheme: shard_canonical(run_experiment(four_pod(config)))
            for scheme, config in golden_configs().items()
        }

    @pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
    @pytest.mark.parametrize(
        "shards,strategy",
        [(2, "pod"), (2, "greedy"), (3, "pod"), (3, "greedy"), (4, "pod")],
    )
    def test_byte_identical_records(
        self, serial_four_pod, scheme, shards, strategy
    ):
        config = replace(
            four_pod(golden_configs()[scheme]),
            shards=shards,
            shard_strategy=strategy,
        )
        result = run_experiment(config)
        sharded = shard_canonical(result)
        serial = serial_four_pod[scheme]
        for key in serial:
            assert sharded[key] == serial[key], (
                f"{scheme} shards={shards} strategy={strategy}: {key} "
                "diverged from the single-process run"
            )
        assert sharded == serial
        stats = result.shard_stats
        assert_shard_stats_schema(stats)
        assert stats["strategy"] == strategy
        assert len(stats["events_per_shard"]) == shards


class TestRandomizedStorm:
    @pytest.mark.parametrize("draw", range(3))
    def test_fresh_scenarios_match_serial(self, draw):
        """Sharded == serial on scenarios no fixture ever saw."""
        rng = random.Random(0xBFC0 + draw)
        scheme = rng.choice(["BFC", "DCQCN", "HPCC"])
        seed = rng.randrange(1, 1_000)
        shards = rng.choice([2, 4])
        config = fig5a_configs("tiny", schemes=(scheme,), seed=seed)[scheme]
        config = replace(
            config,
            duration_ns=units.microseconds(120),
            drain_ns=units.microseconds(60),
        )
        serial = run_experiment(config)
        sharded = run_experiment(replace(config, shards=shards))
        assert shard_canonical(sharded) == shard_canonical(serial), (
            f"draw {draw}: {scheme} seed={seed} shards={shards} diverged"
        )
        assert_shard_stats_schema(sharded.shard_stats)


class TestSingleShardDegradesToPlainRunner:
    def test_shards_1_is_byte_identical_including_event_count(self):
        config = golden_configs()["DCQCN"]
        plain = run_experiment(config)
        one_shard = run_experiment(replace(config, shards=1))
        a = json.loads(json.dumps(canonical_records(plain), sort_keys=True))
        b = json.loads(json.dumps(canonical_records(one_shard), sort_keys=True))
        assert a == b  # includes events_processed: same engine, same schedule
        assert one_shard.shard_stats is None


class TestCrossDcSharding:
    """Per-DC sharding: the inter-DC link is the (large) lookahead window."""

    @pytest.fixture(scope="class")
    def fig9_config(self):
        config = fig9_configs("tiny", schemes=("BFC",), seed=3)["BFC"]
        return replace(
            config,
            duration_ns=units.microseconds(150),
            drain_ns=units.microseconds(75),
        )

    def test_two_dc_shards_byte_identical(self, fig9_config):
        serial = shard_canonical(run_experiment(fig9_config))
        sharded_result = run_experiment(replace(fig9_config, shards=2))
        assert shard_canonical(sharded_result) == serial
        stats = sharded_result.shard_stats
        assert stats["strategy"] == "dc"
        assert stats["cut_links_by_class"] == {"inter-dc": 1}
        # Lookahead equals the cross-DC propagation delay.
        assert stats["window_ns"] == fig9_config.cross_dc.gateway_delay_ns

    @pytest.mark.parametrize("scheme", ["DCQCN", "HPCC"])
    @pytest.mark.parametrize("shards,strategy", [(2, "dc"), (4, "pod")])
    def test_other_kernels_across_dcs_byte_identical(
        self, scheme, shards, strategy
    ):
        config = fig9_configs("tiny", schemes=(scheme,), seed=3)[scheme]
        config = replace(
            config,
            duration_ns=units.microseconds(150),
            drain_ns=units.microseconds(75),
        )
        serial = shard_canonical(run_experiment(config))
        sharded = run_experiment(
            replace(config, shards=shards, shard_strategy=strategy)
        )
        assert shard_canonical(sharded) == serial
        assert sharded.shard_stats["strategy"] == strategy
        assert_shard_stats_schema(sharded.shard_stats)

    def test_pod_sharding_across_dcs_byte_identical(self, fig9_config):
        serial = shard_canonical(run_experiment(fig9_config))
        sharded = run_experiment(
            replace(fig9_config, shards=4, shard_strategy="pod")
        )
        assert shard_canonical(sharded) == serial


class TestCampaignComposition:
    """Sharded trials ride through Serial/Parallel executors unchanged."""

    def test_parallel_executor_runs_sharded_trials(self):
        configs = {
            scheme: replace(config, shards=2)
            for scheme, config in golden_configs().items()
            if scheme in ("BFC", "DCQCN")
        }
        serial = Campaign.from_configs("shard-camp", configs).run(
            executor=SerialExecutor()
        )
        parallel = Campaign.from_configs("shard-camp", configs).run(
            executor=ParallelExecutor(workers=2)
        )
        assert serial == parallel
        for scheme in configs:
            label = f"shard-camp/{scheme}"
            a = shard_canonical(serial.experiment_result(label))
            b = shard_canonical(parallel.experiment_result(label))
            assert a == b, f"{scheme}: serial vs parallel sharded records diverged"


class TestFlowGraphSharding:
    """Dependency-driven workloads (collectives, RPC trees) under sharding.

    A flow graph launches flows at run time when prerequisites complete, so
    these scenarios prove the launcher's shard-locality invariant end to
    end: every prerequisite terminates at its dependent's source host, hence
    completions (and the launches they trigger) happen on the owning shard
    and the merged records are byte-identical to a single-process run —
    including ``start_ns``, which is stamped dynamically at launch.
    """

    @pytest.fixture(scope="class")
    def collective_config(self):
        from repro.experiments.scenarios import collective_configs

        config = collective_configs(
            "tiny", kinds=("all-to-all",), schemes=("BFC",), iterations=2,
            seed=7,
        )["all-to-all/BFC"]
        return replace(config, duration_ns=units.microseconds(300))

    @pytest.fixture(scope="class")
    def rpc_config(self):
        from repro.experiments.scenarios import rpc_fanout_configs

        config = rpc_fanout_configs(
            "tiny", schemes=("BFC",), background_load=0.20, seed=7
        )["BFC"]
        return replace(config, duration_ns=units.microseconds(300))

    def test_collective_two_shards_byte_identical(self, collective_config):
        serial = shard_canonical(run_experiment(collective_config))
        result = run_experiment(replace(collective_config, shards=2))
        sharded = shard_canonical(result)
        for key in serial:
            assert sharded[key] == serial[key], (
                f"collective: {key} diverged from single-process"
            )
        assert sharded == serial
        assert_shard_stats_schema(result.shard_stats)

    def test_rpc_two_shards_byte_identical(self, rpc_config):
        serial = shard_canonical(run_experiment(rpc_config))
        result = run_experiment(replace(rpc_config, shards=2))
        sharded = shard_canonical(result)
        for key in serial:
            assert sharded[key] == serial[key], (
                f"rpc: {key} diverged from single-process"
            )
        assert sharded == serial
        assert_shard_stats_schema(result.shard_stats)

    @pytest.mark.parametrize(
        "kind", ["ring-allreduce", "tree-allreduce", "all-to-all"]
    )
    def test_collective_kinds_four_shards_byte_identical(self, kind):
        from repro.experiments.scenarios import collective_configs

        config = collective_configs(
            "tiny", kinds=(kind,), schemes=("BFC",), iterations=2, seed=7,
        )[f"{kind}/BFC"]
        config = replace(config, duration_ns=units.microseconds(300))
        serial = shard_canonical(run_experiment(config))
        result = run_experiment(replace(config, shards=4))
        assert shard_canonical(result) == serial, (
            f"{kind}: four-shard records diverged from single-process"
        )
        assert_shard_stats_schema(result.shard_stats)

    def test_rpc_four_shards_byte_identical(self, rpc_config):
        serial = shard_canonical(run_experiment(rpc_config))
        result = run_experiment(replace(rpc_config, shards=4))
        assert shard_canonical(result) == serial
        assert_shard_stats_schema(result.shard_stats)

    def test_dynamic_start_times_survive_the_merge(self, collective_config):
        """Dependent flows' stamped start_ns reach the coordinator's records."""
        serial = run_experiment(collective_config)
        sharded = run_experiment(replace(collective_config, shards=2))
        starts_serial = sorted(
            (r.flow_id, r.start_ns) for r in serial.flow_stats.records
        )
        starts_sharded = sorted(
            (r.flow_id, r.start_ns) for r in sharded.flow_stats.records
        )
        assert starts_serial == starts_sharded
        # Dependency launches really happened: not every start is at time 0.
        assert len({start for _, start in starts_serial}) > 1
