"""Sharded == single-process determinism proof.

The contract of :mod:`repro.shard` is that running ONE experiment across
several OS processes is *measurement-invisible*: every canonical record a
single-process run produces — flow completions and slowdowns, switch
counters, buffer/queue samples in their exact order, pause fractions,
utilization, VFID statistics — is byte-for-byte identical when the same
config runs sharded.  Only ``events_processed`` legitimately differs (each
boundary crossing is two engine events instead of one, and every shard runs
its own sampling tick).

Sharding has one cut: one shard per data center, cut at the inter-DC link.
The scenario is the paper's cross-DC experiment (fig9 at ``tiny``) for every
golden kernel family: BFC (VFID tables, Bloom pauses), DCQCN (ECN +
per-switch RNG draws), HPCC (INT stamping), DCQCN+IRN on an undersized
buffer (drops and selective repeat) and BFC-Est (stale telemetry), so the
proof spans control packets, RNG state, telemetry and loss recovery
crossing the gateway link.  Flow graphs (collectives, RPC trees) run on two
copies of the golden fabric joined the same way, and so does the whole
golden slice, on that fabric and on a four-pod one.  A cut the topology does
not have — ``shards > 1`` on one DC, or more shards than DCs — is refused
before any worker process starts.
"""

import json
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign import Campaign, SerialExecutor
from repro.core.config import BfcConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import (
    collective_configs,
    fig5a_configs,
    fig9_configs,
    rpc_fanout_configs,
)
from repro.shard import PartitionError, ShardCoordinator
from repro.sim import units
from repro.topology.crossdc import CrossDcParams

from tests.golden_kernel import (
    GOLDEN_EST_STALENESS_NS,
    GOLDEN_SCHEMES,
    canonical_records,
    golden_configs,
)


#: Every key a sharded run may report in ``ExperimentResult.shard_stats``.
#: The same table appears in docs/architecture.md ("shard_stats schema") —
#: keep the two in sync; :func:`assert_shard_stats_schema` enforces this one.
SHARD_STATS_KEYS = {
    # From PartitionSpec.stats (always present).
    "num_shards", "shards", "cut_links", "cut_links_by_class", "window_ns",
    # Scheduling (present when the campaign scheduler reserved slots).
    "slot_budget", "oversubscribed",
    # Coordinator merge (present on every multi-process run).
    "barriers", "boundary_packets",
    "events_per_shard", "boundary_ports_per_shard",
}

#: Kernel families of the golden slice, run on the cross-DC scenario.
FIG9_SCHEMES = ["BFC", "DCQCN", "HPCC", "DCQCN+IRN", "BFC-Est"]

FIG9_SEED = 3

#: The lossy entry shrinks every switch buffer (gateways included) so tail
#: drops and selective-repeat recovery happen on both sides of the cut
#: (32x division gives ~180 drops; 8x gives none on this fabric).
FIG9_IRN_BUFFER_DIVISOR = 32


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


def fig9_golden_configs():
    """{scheme: fig9 tiny config}, with the golden slice's lossy/stale knobs."""
    configs = fig9_configs("tiny", schemes=FIG9_SCHEMES, seed=FIG9_SEED)
    irn = configs["DCQCN+IRN"]
    configs["DCQCN+IRN"] = replace(
        irn,
        buffer_bytes=irn.buffer_bytes // FIG9_IRN_BUFFER_DIVISOR,
        gateway_buffer_bytes=irn.gateway_buffer_bytes // FIG9_IRN_BUFFER_DIVISOR,
    )
    est = configs["BFC-Est"]
    configs["BFC-Est"] = replace(
        est,
        bfc_config=BfcConfig(mtu=est.mtu, telemetry_staleness_ns=GOLDEN_EST_STALENESS_NS),
    )
    return configs


def two_dc(config):
    """``config``'s fabric twice, joined by a 20 us gateway link (as in fig9)."""
    return replace(
        config,
        cross_dc=CrossDcParams(
            dc_params=config.clos,
            gateway_link_rate_bps=config.clos.link_rate_bps,
            gateway_delay_ns=20_000,
        ),
    )


@pytest.fixture(scope="module")
def serial_records():
    return {
        scheme: shard_canonical(run_experiment(config))
        for scheme, config in fig9_golden_configs().items()
    }


@pytest.fixture(scope="module")
def fig9_sharded():
    """Two-shard fig9 runs, memoized by scheme."""
    cache = {}

    def run(scheme):
        if scheme not in cache:
            config = replace(fig9_golden_configs()[scheme], shards=2)
            cache[scheme] = run_experiment(config)
        return cache[scheme]

    return run


class TestShardedEqualsSerial:
    @pytest.mark.parametrize("scheme", FIG9_SCHEMES)
    def test_byte_identical_records(self, serial_records, fig9_sharded, scheme):
        sharded = shard_canonical(fig9_sharded(scheme))
        serial = serial_records[scheme]
        for key in serial:
            assert sharded[key] == serial[key], (
                f"{scheme}: {key} diverged from the single-process run"
            )
        assert sharded == serial

    @pytest.mark.parametrize("scheme", FIG9_SCHEMES)
    def test_sharded_run_is_deterministic_run_to_run(self, fig9_sharded, scheme):
        config = replace(fig9_golden_configs()[scheme], shards=2)
        first = shard_canonical(fig9_sharded(scheme))
        second = shard_canonical(run_experiment(config))
        assert first == second

    def test_lossy_entry_drops_on_both_shards(self, fig9_sharded):
        result = fig9_sharded("DCQCN+IRN")
        assert result.dropped_packets > 0
        assert result.host_counters["selective_retransmissions"] > 0

    def test_shard_stats_reported(self, fig9_sharded):
        config = fig9_golden_configs()["BFC"]
        result = fig9_sharded("BFC")
        stats = result.shard_stats
        assert_shard_stats_schema(stats)
        assert stats["num_shards"] == 2
        assert stats["cut_links_by_class"] == {"inter-dc": 1}
        # Lookahead equals the cross-DC propagation delay.
        assert stats["window_ns"] == config.cross_dc.gateway_delay_ns
        assert stats["barriers"] > 0
        assert stats["boundary_packets"] > 0
        assert sum(int(v) for v in stats["events_per_shard"].values()) == (
            result.events_processed
        )


class TestShardStatsAccounting:
    """Every kernel's sharded run reports stats that add up."""

    @pytest.mark.parametrize("scheme", FIG9_SCHEMES)
    def test_stats_account_for_every_event_and_port(self, fig9_sharded, scheme):
        result = fig9_sharded(scheme)
        stats = result.shard_stats
        assert_shard_stats_schema(stats)
        assert stats["num_shards"] == 2
        assert stats["barriers"] > 0
        assert stats["boundary_packets"] > 0
        # One shard per DC: both halves of the fabric are the same size.
        assert stats["shards"]["0"] == stats["shards"]["1"]
        events = stats["events_per_shard"]
        assert set(events) == {"0", "1"}
        assert sum(int(v) for v in events.values()) == result.events_processed
        # Each cut link is a boundary egress port at both of its ends.
        ports = stats["boundary_ports_per_shard"]
        assert set(ports) == {"0", "1"}
        assert sum(ports.values()) == 2 * stats["cut_links"]


def four_pod(config):
    """The fabric on four ToRs of four hosts (same 2:1 oversubscription)."""
    return replace(config, clos=replace(config.clos, num_tors=4, hosts_per_tor=4))


#: DC shapes the golden slice runs on, each copied into two DCs by two_dc().
GOLDEN_FABRICS = {"two-pod": lambda config: config, "four-pod": four_pod}


@pytest.fixture(scope="module")
def golden_two_dc():
    """Golden-slice runs across two DCs, memoized by ``(fabric, scheme, shards)``."""
    cache = {}

    def run(fabric, scheme, shards):
        if (fabric, scheme, shards) not in cache:
            config = two_dc(GOLDEN_FABRICS[fabric](golden_configs()[scheme]))
            cache[fabric, scheme, shards] = run_experiment(replace(config, shards=shards))
        return cache[fabric, scheme, shards]

    return run


class TestGoldenSliceAcrossDcs:
    """The golden slice, DC-for-DC, split at the gateway link.

    Every golden scheme — the ring all-reduce flow graph of ``BFC-Collective``
    and the lossy ``DCQCN+IRN`` buffer included — on two copies of the golden
    two-pod fabric and of a four-pod one.  The traffic spans both DCs, so
    thousands of packets cross the cut in each run.
    """

    @pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
    @pytest.mark.parametrize("fabric", list(GOLDEN_FABRICS))
    def test_byte_identical_records(self, golden_two_dc, fabric, scheme):
        serial = shard_canonical(golden_two_dc(fabric, scheme, 1))
        result = golden_two_dc(fabric, scheme, 2)
        sharded = shard_canonical(result)
        for key in serial:
            assert sharded[key] == serial[key], (
                f"{fabric} {scheme}: {key} diverged from the single-process run"
            )
        assert sharded == serial
        assert result.shard_stats["boundary_packets"] > 0

    @pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
    def test_stats_account_for_every_event_and_port(self, golden_two_dc, scheme):
        result = golden_two_dc("two-pod", scheme, 2)
        stats = result.shard_stats
        assert_shard_stats_schema(stats)
        assert stats["num_shards"] == 2
        assert stats["shards"] == {
            "0": {"hosts": 8, "switches": 5},
            "1": {"hosts": 8, "switches": 5},
        }
        assert stats["cut_links_by_class"] == {"inter-dc": 1}
        assert stats["window_ns"] == 20_000
        events = stats["events_per_shard"]
        assert set(events) == {"0", "1"}
        assert sum(int(v) for v in events.values()) == result.events_processed
        assert stats["boundary_ports_per_shard"] == {"0": 1, "1": 1}


def test_schema_table_in_architecture_doc_matches_keys():
    """docs/architecture.md lists exactly SHARD_STATS_KEYS."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "architecture.md")
    text = doc.read_text()
    section = text.split("### `shard_stats` schema", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([a-z_]+)` \|", section, re.MULTILINE))
    assert documented == SHARD_STATS_KEYS


class TestRandomizedStorm:
    # The ``small`` draws diverge from serial when the engine key drops its
    # origin level, ``(time, seq)``: HPCC seed 862, BFC seed 456 and DCQCN
    # seed 434.  No ``tiny`` draw sees the key (docs/determinism.md).
    @pytest.mark.parametrize(
        "scale,draw",
        [("tiny", 0), ("tiny", 1), ("tiny", 2), ("small", 0), ("small", 13), ("small", 17)],
    )
    def test_fresh_scenarios_match_serial(self, scale, draw):
        """Sharded == serial on scenarios no fixture ever saw."""
        rng = random.Random(0xBFC0 + draw)
        scheme = rng.choice(["BFC", "DCQCN", "HPCC"])
        seed = rng.randrange(1, 1_000)
        config = fig9_configs(scale, schemes=(scheme,), seed=seed)[scheme]
        serial = run_experiment(config)
        sharded = run_experiment(replace(config, shards=2))
        assert shard_canonical(sharded) == shard_canonical(serial), (
            f"{scale} draw {draw}: {scheme} seed={seed} diverged"
        )
        assert_shard_stats_schema(sharded.shard_stats)


def _short_fig5a(scheme, seed):
    config = fig5a_configs("tiny", schemes=(scheme,), seed=seed)[scheme]
    return replace(
        config,
        duration_ns=units.microseconds(120),
        drain_ns=units.microseconds(60),
    )


class TestRefusedPartitions:
    """A cut the topology does not have is refused before any worker starts.

    The single-DC cases are the reproductions that once diverged from serial
    under the removed pod/greedy cuts (``fig5a_configs("tiny")``, 120 us plus
    a 60 us drain, 2 shards); seed 121 was the control that matched.  Every
    one of them is now a :class:`PartitionError`.
    """

    @pytest.fixture(autouse=True)
    def no_spawn(self, monkeypatch):
        def spawn(self):
            raise AssertionError("a refused partition started shard workers")

        monkeypatch.setattr(ShardCoordinator, "_spawn", spawn)

    @pytest.mark.parametrize(
        "scheme,seed", [("BFC", 120), ("HPCC", 989), ("BFC", 121)]
    )
    def test_single_dc_two_shards_is_refused(self, scheme, seed):
        config = replace(_short_fig5a(scheme, seed), shards=2)
        with pytest.raises(PartitionError, match="1-DC topology into 2 shards"):
            run_experiment(config)

    def test_more_shards_than_dcs_is_refused(self):
        config = fig9_configs("tiny", schemes=("BFC",), seed=FIG9_SEED)["BFC"]
        with pytest.raises(PartitionError, match="2-DC topology into 3 shards"):
            run_experiment(replace(config, shards=3))


class TestFormerDivergenceSeeds:
    """The refused single-DC reproductions, run clean across the per-DC cut.

    The same 120 us ``fig5a`` traces (seeds 120 and 989 once diverged under
    the removed pod/greedy cuts; 121 was the control) on two copies of their
    fabric: every tie that used to break differently inside a DC now stays
    on one shard.
    """

    @pytest.mark.parametrize(
        "scheme,seed", [("BFC", 120), ("HPCC", 989), ("BFC", 121)]
    )
    def test_two_dcs_match_serial(self, scheme, seed):
        config = two_dc(_short_fig5a(scheme, seed))
        serial = shard_canonical(run_experiment(config))
        result = run_experiment(replace(config, shards=2))
        assert shard_canonical(result) == serial, (
            f"{scheme} seed={seed}: two-DC sharded run diverged"
        )
        assert result.shard_stats["boundary_packets"] > 0


class TestSingleShardDegradesToPlainRunner:
    def test_shards_1_is_byte_identical_including_event_count(self):
        config = golden_configs()["DCQCN"]
        plain = run_experiment(config)
        one_shard = run_experiment(replace(config, shards=1))
        a = json.loads(json.dumps(canonical_records(plain), sort_keys=True))
        b = json.loads(json.dumps(canonical_records(one_shard), sort_keys=True))
        assert a == b  # includes events_processed: same engine, same schedule
        assert one_shard.shard_stats is None


class TestMergeSinkPath:
    """A sharded run spills the same artifacts as the serial run.

    The merge streams flow records and replayed sampling ticks into the
    spilling sink; only the raw engine event count may differ.
    """

    @pytest.mark.parametrize("scheme", ["BFC", "DCQCN"])
    def test_spilled_artifacts_match_serial(self, tmp_path, scheme):
        config = fig9_configs("tiny", schemes=(scheme,), seed=FIG9_SEED)[scheme]
        run_dirs = []
        for shards in (1, 2):
            run = replace(config, shards=shards, results_dir=str(tmp_path / str(shards)))
            run_dirs.append(Path(run_experiment(run).results_ref))
        serial, sharded = run_dirs

        def read(run_dir, name):
            return (run_dir / name).read_bytes()

        assert read(serial, "flows.jsonl") == read(sharded, "flows.jsonl")
        index = "flows.idx.json"
        assert json.loads(read(serial, index)) == json.loads(read(sharded, index))
        summaries = [json.loads(read(d, "summary.json")) for d in run_dirs]
        for run_summary in summaries:
            run_summary["extras"].pop("events_processed")
        assert summaries[0] == summaries[1]


class TestCampaignComposition:
    """Sharded trials ride through the serial and scheduled executors unchanged."""

    def test_parallel_executor_runs_sharded_trials(self):
        configs = {
            scheme: replace(config, shards=2)
            for scheme, config in fig9_golden_configs().items()
            if scheme in ("BFC", "DCQCN")
        }
        serial = Campaign.from_configs("shard-camp", configs).run(
            executor=SerialExecutor()
        )
        parallel = Campaign.from_configs("shard-camp", configs).run(cores=2)
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
    including ``start_ns``, which is stamped dynamically at launch.  Each
    graph runs on two copies of the golden fabric (:func:`two_dc`), one
    shard per copy.
    """

    @staticmethod
    def collective(kind):
        config = collective_configs(
            "tiny", kinds=(kind,), schemes=("BFC",), iterations=2, seed=7,
        )[f"{kind}/BFC"]
        return two_dc(replace(config, duration_ns=units.microseconds(300)))

    @pytest.fixture(scope="class")
    def rpc_config(self):
        config = rpc_fanout_configs(
            "tiny", schemes=("BFC",), background_load=0.20, seed=7
        )["BFC"]
        return two_dc(replace(config, duration_ns=units.microseconds(300)))

    @pytest.mark.parametrize(
        "kind", ["ring-allreduce", "tree-allreduce", "all-to-all"]
    )
    def test_collective_two_shards_byte_identical(self, kind):
        config = self.collective(kind)
        serial = shard_canonical(run_experiment(config))
        result = run_experiment(replace(config, shards=2))
        sharded = shard_canonical(result)
        for key in serial:
            assert sharded[key] == serial[key], (
                f"{kind}: {key} diverged from single-process"
            )
        assert sharded == serial
        assert result.shard_stats["boundary_packets"] > 0
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
        assert result.shard_stats["boundary_packets"] > 0
        assert_shard_stats_schema(result.shard_stats)

    def test_dynamic_start_times_survive_the_merge(self):
        """Dependent flows' stamped start_ns reach the coordinator's records."""
        config = self.collective("all-to-all")
        serial = run_experiment(config)
        sharded = run_experiment(replace(config, shards=2))
        starts_serial = sorted(
            (r.flow_id, r.start_ns) for r in serial.flow_stats.records
        )
        starts_sharded = sorted(
            (r.flow_id, r.start_ns) for r in sharded.flow_stats.records
        )
        assert starts_serial == starts_sharded
        # Dependency launches really happened: not every start is at time 0.
        assert len({start for _, start in starts_serial}) > 1
