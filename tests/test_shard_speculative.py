"""Edge cases of the time-warp shard runtime (repro.shard.speculative).

The determinism proof lives in ``tests/test_shard_determinism.py``; this
file attacks the mechanisms it relies on at their seams:

* checkpoints vs the engine's *lazy* cancellation (a handle cancelled
  after a capture must be alive again after rollback, and one cancelled
  before must stay dead);
* checkpoints vs calendar-queue *retuning* (bucket geometry is a pure
  speed knob, so capturing before or after a forced retune must replay
  the same event sequence);
* back-to-back rollbacks to the same checkpoint (restore must hand out
  independent worlds);
* rollback while a NIC packet train is mid-commitment
  (``nic_train_packets > 1``);
* a randomized storm cross-checking speculative against conservative
  records on freshly drawn scenarios;
* the :class:`SyncPolicy` resolution table, the snapshot store's pruning
  invariants, the deepcopy fallback, and the campaign cost model's
  speculation surcharge.
"""

import functools
import random
import warnings
from dataclasses import replace

import pytest

from repro.campaign import estimate_cost, sync_cost_factor
from repro.core.config import BfcConfig
from repro.core.discipline import BfcEgressDiscipline
from repro.core.switchlogic import BfcAgent
from repro.campaign.scheduling import SPECULATIVE_COST_FACTOR
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import fig5a_configs
from repro.shard import (
    ShardError,
    SnapshotContext,
    SnapshotStore,
    SyncPolicy,
    WorldSnapshot,
)
from repro.shard.speculative import ADAPTIVE_WINDOW_NS, DEFAULT_MAX_LEAP
from repro.sim import units
from repro.sim.engine import PureSimulator
from repro.sim.host import HostConfig
from repro.sim.packet import FlowKey, Packet, PacketKind

from tests.golden_kernel import golden_configs
from tests.test_shard_determinism import (
    assert_shard_stats_schema,
    shard_canonical,
)


# ---------------------------------------------------------------------------
# A minimal checkpointable world
# ---------------------------------------------------------------------------


class _MiniWorld:
    """Tiny stand-in for ``_ShardWorld``: a simulator plus an event log."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []

    def fire(self, tag):
        self.log.append((self.sim.now, tag))


class _Chain:
    """Self-rescheduling ticker: keeps the calendar busy during replay."""

    def __init__(self, world, step_ns, count):
        self.world = world
        self.step_ns = step_ns
        self.remaining = count

    def tick(self):
        self.world.log.append((self.world.sim.now, "chain"))
        self.remaining -= 1
        if self.remaining > 0:
            self.world.sim.schedule(self.step_ns, self.tick)


def _mini_world(seed=1):
    sim = PureSimulator(seed=seed)
    world = _MiniWorld(sim)
    return world


@pytest.fixture
def context():
    ctx = SnapshotContext([])
    yield ctx
    ctx.close()


# ---------------------------------------------------------------------------
# Cancellation across a snapshot boundary
# ---------------------------------------------------------------------------


class TestCancellationAcrossSnapshot:
    def test_cancel_after_capture_is_rolled_back(self, context):
        world = _mini_world()
        victim = world.sim.schedule(500, world.fire, "victim")
        world.sim.schedule(100, world.fire, "early")
        world.victim = victim

        snap = context.capture(world, -1, 0, {})
        assert snap.backend == "pickle"

        # The speculative timeline cancels the event...
        victim.cancel()
        world.sim.run(until=1_000)
        assert [tag for _, tag in world.log] == ["early"]

        # ... but the rollback world never saw the cancel: the handle in
        # the restored graph is an independent copy, so the event fires.
        restored = context.restore(snap)
        restored.sim.run(until=1_000)
        assert restored.log == [(100, "early"), (500, "victim")]
        assert not restored.victim.cancelled

    def test_cancel_before_capture_stays_dead(self, context):
        world = _mini_world()
        victim = world.sim.schedule(500, world.fire, "victim")
        world.sim.schedule(100, world.fire, "early")
        victim.cancel()

        snap = context.capture(world, -1, 0, {})
        restored = context.restore(snap)
        restored.sim.run(until=1_000)
        assert restored.log == [(100, "early")]

    def test_cancelling_restored_handle_does_not_leak_to_live_world(
        self, context
    ):
        world = _mini_world()
        world.victim = world.sim.schedule(500, world.fire, "victim")
        snap = context.capture(world, -1, 0, {})

        restored = context.restore(snap)
        restored.victim.cancel()
        restored.sim.run(until=1_000)
        assert restored.log == []

        world.sim.run(until=1_000)
        assert world.log == [(500, "victim")]


# ---------------------------------------------------------------------------
# Calendar-queue retune between snapshot and rollback
# ---------------------------------------------------------------------------


class TestRetuneAcrossSnapshot:
    def _seeded_world(self):
        world = _mini_world()
        rng = random.Random(42)
        for i in range(64):
            world.sim.schedule(rng.randrange(1, 50_000), world.fire, i)
        world.chain = _Chain(world, step_ns=700, count=40)
        world.sim.schedule(1, world.chain.tick)
        return world

    def test_retune_after_capture_does_not_taint_rollback(self, context):
        world = self._seeded_world()
        world.sim.run(until=5_000)
        snap = context.capture(world, world.sim.now, 0, {})

        # Live world retunes its calendar geometry mid-speculation, then
        # runs to the end: the reference outcome.
        world.sim._retune(force=True)
        world.sim.run(until=60_000)
        reference = list(world.log)

        # Rolling back discards the retuned calendar along with the rest
        # of the abandoned timeline; replay lands on the same sequence.
        restored = context.restore(snap)
        restored.sim.run(until=60_000)
        assert restored.log == reference

    def test_capture_of_retuned_calendar_replays_identically(self, context):
        world = self._seeded_world()
        world.sim.run(until=5_000)
        world.sim._retune(force=True)
        snap = context.capture(world, world.sim.now, 0, {})

        world.sim.run(until=60_000)
        reference = list(world.log)

        restored = context.restore(snap)
        restored.sim.run(until=60_000)
        assert restored.log == reference


# ---------------------------------------------------------------------------
# Back-to-back rollbacks
# ---------------------------------------------------------------------------


class TestBackToBackRollbacks:
    def test_restoring_twice_yields_independent_worlds(self, context):
        world = self._world_with_chain(context)
        snap = context.capture(world, -1, 0, {})

        first = context.restore(snap)
        first.sim.run(until=10_000)
        # Second rollback to the *same* checkpoint: the first restored
        # world already consumed its timeline, the second starts fresh.
        second = context.restore(snap)
        assert second.log == []
        second.sim.run(until=10_000)
        assert second.log == first.log

    def _world_with_chain(self, context):
        world = _mini_world()
        world.chain = _Chain(world, step_ns=500, count=12)
        world.sim.schedule(1, world.chain.tick)
        return world

    def test_store_survives_rollback_then_immediate_rollback(self):
        # rollback_to truncates abandoned snapshots; a second straggler
        # at an even earlier time must still find an anchor.
        store = SnapshotStore()
        for t in (-1, 100, 200, 300):
            store.add(WorldSnapshot(t, 0, {}, object()))
        target = store.rollback_to(250)
        assert target.time_ns == 200
        assert len(store) == 3  # 300 discarded with its timeline
        target = store.rollback_to(150)
        assert target.time_ns == 100
        assert len(store) == 2
        # The pre-run snapshot is the anchor of last resort.
        assert store.rollback_to(0).time_ns == -1

    def test_prune_always_leaves_an_anchor(self):
        store = SnapshotStore()
        for t in (-1, 100, 200, 300):
            store.add(WorldSnapshot(t, 0, {}, object()))
        store.prune(250)
        # Newest-strictly-before-GVT (200) plus everything later survives.
        assert store.latest_before(250).time_ns == 200
        assert len(store) == 2
        store.prune(10_000)
        assert len(store) == 1
        assert store.latest_before(10_000).time_ns == 300


# ---------------------------------------------------------------------------
# Rollback mid-train
# ---------------------------------------------------------------------------


class TestRollbackMidTrain:
    def test_speculative_trains_match_serial_trains(self, monkeypatch):
        """Rolling back while NIC packet trains are mid-commitment.

        With ``nic_train_packets=8`` a snapshot can land between a train's
        commitment and its unwind; the records must still match a serial
        run with the same train setting (shard workers fork from this
        process, so the patched HostConfig reaches them).
        """
        import repro.experiments.schemes as schemes

        monkeypatch.setattr(
            schemes,
            "HostConfig",
            functools.partial(HostConfig, nic_train_packets=8),
        )
        config = golden_configs()["BFC"]
        serial = shard_canonical(run_experiment(config))
        result = run_experiment(
            replace(config, shards=2, shard_sync="speculative")
        )
        assert shard_canonical(result) == serial
        stats = result.shard_stats
        assert_shard_stats_schema(stats)
        # The run genuinely rolled back with trains in flight.
        assert stats["speculation"]["rollbacks"] > 0


# ---------------------------------------------------------------------------
# Randomized storm
# ---------------------------------------------------------------------------


class TestRandomizedStorm:
    @pytest.mark.parametrize("draw", range(3))
    def test_fresh_scenarios_agree_across_sync_modes(self, draw):
        """Speculative == conservative on scenarios no fixture ever saw."""
        rng = random.Random(0xBFC0 + draw)
        scheme = rng.choice(["BFC", "DCQCN", "HPCC"])
        seed = rng.randrange(1, 1_000)
        shards = rng.choice([2, 4])
        config = fig5a_configs("tiny", schemes=(scheme,), seed=seed)[scheme]
        config = replace(
            config,
            duration_ns=units.microseconds(120),
            drain_ns=units.microseconds(60),
            shards=shards,
        )
        conservative = run_experiment(
            replace(config, shard_sync="conservative")
        )
        speculative = run_experiment(
            replace(config, shard_sync="speculative")
        )
        assert shard_canonical(speculative) == shard_canonical(conservative), (
            f"draw {draw}: {scheme} seed={seed} shards={shards} diverged"
        )
        assert speculative.shard_stats["speculation"]["snapshots"] > 0


# ---------------------------------------------------------------------------
# SyncPolicy resolution
# ---------------------------------------------------------------------------


class TestSyncPolicy:
    def test_conservative_requested(self):
        policy = SyncPolicy.resolve("conservative", 1_000)
        assert policy.mode == "conservative"
        assert policy.reason == "requested"

    def test_speculative_requested_even_on_wide_window(self):
        policy = SyncPolicy.resolve("speculative", 20_000)
        assert policy.mode == "speculative"
        assert policy.max_leap == DEFAULT_MAX_LEAP

    def test_adaptive_thresholds(self):
        assert SyncPolicy.resolve("adaptive", 1_000).mode == "speculative"
        assert SyncPolicy.resolve(
            "adaptive", ADAPTIVE_WINDOW_NS
        ).mode == "conservative"
        assert SyncPolicy.resolve("adaptive", None).mode == "conservative"

    def test_unknown_mode_raises(self):
        with pytest.raises(ShardError, match="shard_sync"):
            SyncPolicy.resolve("clairvoyant", 1_000)

    def test_accel_backend_falls_back_with_warning(self, monkeypatch):
        import repro.sim.engine as engine

        monkeypatch.setattr(engine, "ENGINE_BACKEND", "accel")
        with pytest.warns(RuntimeWarning, match="pure engine backend"):
            policy = SyncPolicy.resolve("speculative", 1_000)
        assert policy.mode == "conservative"
        assert policy.reason == "accel engine backend"


# ---------------------------------------------------------------------------
# Deepcopy fallback
# ---------------------------------------------------------------------------


class _Unpicklable:
    """Defeats pickle but cooperates with deepcopy."""

    def __reduce_ex__(self, protocol):
        raise TypeError("deliberately unpicklable")

    def __deepcopy__(self, memo):
        return _Unpicklable()


class TestDeepcopyFallback:
    def test_unpicklable_world_degrades_to_deepcopy(self, context):
        world = _mini_world()
        world.exotic = _Unpicklable()
        world.sim.schedule(100, world.fire, "tick")

        with pytest.warns(RuntimeWarning, match="not picklable"):
            snap = context.capture(world, -1, 0, {})
        assert snap.backend == "deepcopy"
        assert context.backend == "deepcopy"

        restored = context.restore(snap)
        restored.sim.run(until=1_000)
        assert restored.log == [(100, "tick")]

        # The fallback is sticky: later captures go straight to deepcopy
        # without warning again.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = context.capture(world, world.sim.now, 0, {})
        assert again.backend == "deepcopy"


# ---------------------------------------------------------------------------
# BFC flow-table handles across a snapshot
# ---------------------------------------------------------------------------


class TestEntryHandleAcrossSnapshot:
    def test_queued_packets_keep_pointing_at_their_table_entry(self, context):
        world = _mini_world()
        config = BfcConfig(hop_rtt_ns=2_000)
        world.agent = BfcAgent(world.sim, config)
        world.discipline = BfcEgressDiscipline(
            world.agent, egress_index=0, link_rate_bps=units.gbps(10), link_delay_ns=1_000
        )
        key = FlowKey(src=1, dst=2, src_port=7, dst_port=4791)
        count = int(world.discipline.thresholds.by_count[1] // 1_000) + 2
        world.packets = [
            Packet(PacketKind.DATA, flow_id=7, key=key, size=1_000, seq=i) for i in range(count)
        ]
        for packet in world.packets:
            world.discipline.enqueue(packet, ingress=3)
        vfid = world.packets[0].vfid
        assert world.agent.is_paused(vfid, 3)  # a paused flow with queued packets

        restored = context.restore(context.capture(world, -1, 0, {}))
        entry = restored.agent.flow_table.lookup(vfid, 3, 0)
        assert entry is not world.agent.flow_table.lookup(vfid, 3, 0)
        assert entry.paused_upstream and entry.packets == count
        # packet -> entry -> the very object the restored table holds
        assert all(packet.entry is entry for packet in restored.packets)

        # The restored world drains on its own handles; the live one is untouched.
        drained = [restored.discipline.dequeue() for _ in range(count)]
        assert [p.seq for p in drained] == list(range(count))
        assert all(p.entry is None for p in drained)
        assert restored.agent.flow_table.active_entries() == 0
        assert world.agent.flow_table.lookup(vfid, 3, 0).packets == count
        assert all(p.entry is not None for p in world.packets)


# ---------------------------------------------------------------------------
# Campaign cost model
# ---------------------------------------------------------------------------


class TestSpeculationCostModel:
    def _config(self, **overrides):
        config = fig5a_configs("tiny", schemes=("BFC",))["BFC"]
        return replace(config, **overrides) if overrides else config

    def test_unsharded_and_conservative_pay_no_surcharge(self):
        assert sync_cost_factor(self._config()) == 1.0
        assert sync_cost_factor(
            self._config(shards=1, shard_sync="speculative")
        ) == 1.0
        assert sync_cost_factor(
            self._config(shards=2, shard_sync="conservative")
        ) == 1.0

    def test_speculative_pays_the_rollback_surcharge(self):
        config = self._config(shards=2, shard_sync="speculative")
        assert sync_cost_factor(config) == SPECULATIVE_COST_FACTOR
        base = self._config(shards=2)
        assert estimate_cost(config) == (
            SPECULATIVE_COST_FACTOR * estimate_cost(base)
        )

    def test_adaptive_follows_the_static_window_estimate(self):
        # Pod split of the tiny clos: 1 us window -> speculates.
        assert sync_cost_factor(
            self._config(shards=2, shard_sync="adaptive")
        ) == SPECULATIVE_COST_FACTOR
        # Cross-DC split: 20 us window -> conservative, no surcharge.
        from repro.experiments.scenarios import fig9_configs

        fig9 = fig9_configs("tiny", schemes=("BFC",))["BFC"]
        assert sync_cost_factor(
            replace(fig9, shards=2, shard_sync="adaptive")
        ) == 1.0
