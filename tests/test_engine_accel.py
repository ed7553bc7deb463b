"""Tests for the compiled engine backend (``_accelcore`` + AccelSimulator).

The accel backend is the default engine wherever its C extension builds.
Its whole contract is *byte-identical behaviour* to the pure heapq
engine — same event order, same clock bookkeeping, same
cancellation and stop semantics — at a higher events/sec.  These tests pin
the contract four ways:

* EventHeap unit tests against the engine's 3-key total order and of its
  C set of cancelled seqs, and of ``AccelSimulator.post`` against
  ``PureSimulator.post``,
* randomized storms (some post-heavy) replayed on both backends and
  compared step for step,
* one golden-records scheme recomputed in a default-engine (accel)
  subprocess and compared byte-for-byte against the committed fixture,
* backend selection and the logged fallback to pure, in subprocesses.

When no C toolchain is available the whole module skips — loudly, with the
build error in the skip reason — and every other test module then runs on
the pure engine.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

from repro.sim import accel_build
from repro.sim.engine import PureSimulator, SimulationError

try:
    from repro.sim.engine_accel import AccelSimulator, unavailable_reason
except Exception as exc:  # pragma: no cover - import itself should not fail
    AccelSimulator, unavailable_reason = None, repr(exc)

if unavailable_reason is not None:  # pragma: no cover - toolchain-less hosts
    pytest.skip(
        f"accel engine backend unavailable: {unavailable_reason}",
        allow_module_level=True,
    )

REPO_ROOT = Path(__file__).resolve().parent.parent
#: The suite's environment minus any backend choice: each subprocess test
#: states the REPRO_ENGINE it means, or none for the default.
SUBPROCESS_ENV = {
    **{k: v for k, v in os.environ.items() if k != "REPRO_ENGINE"},
    "PYTHONPATH": os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
    ),
}


def _heap():
    module = accel_build.load()
    assert module is not None, accel_build.last_error
    return module.EventHeap()


class TestEventHeap:
    def test_the_simulator_keeps_no_python_heap(self):
        # The pending entries live in the C base; only the pure engine
        # makes the heapq list.
        assert "_heap" not in vars(AccelSimulator(seed=1))
        assert PureSimulator(seed=1)._heap == []

    def test_orders_by_three_key_lexicographic(self):
        heap = _heap()
        entries = [
            (50, 0, 3),
            (50, 0, 1),  # same time: seq breaks the tie
            (10, 9, 7),
            (50, 1, 0),  # same time, later origin
        ]
        fired = []
        for entry in entries:
            heap._insert(entry + (fired.append, (entry,)))
        heap._run(2**63 - 1, 2**63 - 1)
        assert fired == sorted(entries)
        assert heap.next_event_time() is None

    def test_len_and_peek(self):
        heap = _heap()
        assert heap.pending_events() == 0 and heap.next_event_time() is None
        heap._insert((42, 0, 0, (lambda: None), ()))
        assert heap.pending_events() == 1 and heap.next_event_time() == 42

    def test_compact_drops_cancelled_seqs(self):
        heap = _heap()
        fired = []
        for seq in range(100):
            heap._insert((seq, 0, seq, fired.append, (seq,)))
        heap._cancel(500)  # never inserted: reaped by the compaction too
        for seq in range(1, 64):
            heap._cancel(seq * 3 // 2)
        # The 64th cancelled seq (64 >= 64, 128 > 100 queued) compacts.
        assert heap.pending_events() == 37 and heap._cancelled == frozenset()
        heap._run(2**63 - 1, 2**63 - 1)
        assert fired == sorted(set(range(100)) - {seq * 3 // 2 for seq in range(1, 64)})

    def test_growth_beyond_initial_capacity(self):
        heap = _heap()
        fired = []
        order = random.Random(3).sample(range(5000), 5000)
        for seq in order:
            heap._insert((seq, 0, seq, fired.append, (seq,)))
        assert heap.pending_events() == 5000
        heap._run(2**63 - 1, 2**63 - 1)
        assert fired == list(range(5000))

    def test_insert_rejects_non_tuple_args(self):
        heap = _heap()
        with pytest.raises(TypeError):
            heap._insert((0, 0, 0, (lambda: None), [1, 2]))

    def test_cancelled_seqs_are_reaped_as_they_surface(self):
        # The C set of cancelled seqs grows through several resizes and is
        # emptied again one discard at a time as the run loop meets them.
        heap = _heap()
        fired = []
        order = random.Random(11).sample(range(5000), 5000)
        for seq in order:
            heap._insert((seq, 0, seq, fired.append, (seq,)))
        cancelled = set(random.Random(12).sample(range(5000), 2000))
        for seq in cancelled:
            heap._cancel(seq)  # 2000 of 5000: below the compaction share
        assert heap._cancelled == cancelled and heap.pending_events() == 5000
        heap._run(2**63 - 1, 2**63 - 1)
        assert fired == sorted(set(range(5000)) - cancelled)
        assert heap._cancelled == frozenset() and heap.pending_events() == 0


BACKENDS = pytest.mark.parametrize(
    "make", [PureSimulator, AccelSimulator], ids=["pure", "accel"]
)


class TestPost:
    """``AccelSimulator.post`` keeps every promise of ``PureSimulator.post``."""

    def test_bound_simulator_is_still_collected(self):
        # A queued bound method holds the simulator, which is the heap
        # holding it: the garbage collector must see that cycle
        # (tp_traverse) to free it.
        sim = AccelSimulator(seed=1)
        sim.post(5, sim.run_until_idle)
        alive = weakref.ref(sim)
        del sim
        gc.collect()
        assert alive() is None

    @BACKENDS
    @pytest.mark.parametrize("delay", [-1, -0.5])
    def test_negative_delay_raises(self, make, delay):
        sim = make(seed=1)
        with pytest.raises(SimulationError, match=r"into the past \(delay=-"):
            sim.post(delay, lambda: None)
        assert sim._seq == 0 and sim.pending_events() == 0

    @BACKENDS
    def test_float_delay_truncates_like_int(self, make):
        sim = make(seed=1)
        fired = []
        for delay in (7.9, 0.5, 3.0, 2.999):
            sim.post(delay, lambda d=delay: fired.append((sim.now, d)))
        sim.run_until_idle()
        assert fired == [(0, 0.5), (2, 2.999), (3, 3.0), (7, 7.9)]

    @BACKENDS
    def test_seq_advances(self, make):
        sim = make(seed=1)
        for _ in range(3):
            sim.post(10, lambda: None)
        assert sim._seq == 3
        assert sim.schedule(1, lambda: None).seq == 3
        assert sim._seq == 4 and sim.pending_events() == 4

    @BACKENDS
    def test_entry_takes_the_clock_as_its_origin(self, make):
        # Boundary entries on either side of each post's origin (the clock
        # when it was posted) bracket it among same-time events.
        sim = make(seed=1)
        log = []

        def step(depth):
            log.append((sim.now, "step"))
            if depth:
                sim.post(depth, step, depth - 1)

        sim.schedule(5, step, 3)
        sim.schedule_boundary(8, 6, log.append, (8, "origin 6"))  # after origin 5
        sim.schedule_boundary(10, 7, log.append, (10, "origin 7"))  # before origin 8
        sim.run_until_idle()
        assert log == [(5, "step"), (8, "step"), (8, "origin 6"),
                       (10, "origin 7"), (10, "step"), (11, "step")]

    @BACKENDS
    def test_posts_before_the_first_run_use_time_zero(self, make):
        sim = make(seed=1)
        log = []
        sim.schedule_boundary(4, 1, log.append, "origin 1")  # filed first
        sim.post(4, log.append, "post")
        sim.run_until_idle()
        assert log == ["post", "origin 1"]

    @BACKENDS
    def test_post_reads_the_clock_a_run_left(self, make):
        sim = make(seed=1)
        sim.run(until=100)  # an empty window still moves the clock
        log = []
        sim.schedule_boundary(105, 101, log.append, "origin 101")  # filed first
        sim.post(5, log.append, "post")
        sim.schedule_boundary(105, 99, log.append, "origin 99")
        sim.run_until_idle()
        assert log == ["origin 99", "post", "origin 101"]

    def test_firing_time_past_the_clock_range_raises(self):
        # The heap keys are C long longs: like schedule() (via insert), post
        # must refuse a firing time past 2**63 - 1 rather than wrap around.
        sim = AccelSimulator(seed=1)
        sim.run(until=10)
        sim.post(2**63 - 11, lambda: None)  # lands exactly on 2**63 - 1
        for delay in (2**63 - 10, 2**63 + 5):
            with pytest.raises(OverflowError):
                sim.post(delay, lambda: None)
        assert sim._seq == 1 and sim.pending_events() == 1
        with pytest.raises(OverflowError):
            sim.schedule(2**63 - 10, lambda: None)

    def test_the_one_seq_the_cancelled_set_cannot_hold_is_refused(self):
        # -2**63 marks an empty slot of the core's hash map: storing it
        # would be a silent no-op, so it raises instead.
        sim = AccelSimulator(seed=1)
        sim._cancelled = [5]
        with pytest.raises(OverflowError):
            sim._cancelled = [-(2**63)]
        with pytest.raises(OverflowError):
            sim._cancel(-(2**63))
        assert sim._cancelled == frozenset()
        with pytest.raises(OverflowError):
            AccelSimulator.compiled_plane.DeficitRoundRobin().activate(-(2**63))


def _storm(sim, seed: int, n: int = 400, p_schedule: float = 0.4, p_post: float = 0.2):
    """A deterministic scheduling storm exercising every scheduling path.

    Each fired event schedules a child with probability ``p_schedule``,
    posts one (half of them with a float delay) with ``p_post``, and files
    a boundary entry with an earlier origin with probability 0.05, which
    orders it among the same-time children by origin rather than by seq;
    keep the sum below 1 or the storm never drains.
    """
    rng = random.Random(seed)
    log = []
    handles = {}

    def fire(tag):
        log.append((sim.now, tag, sim._seq))
        if rng.random() < p_schedule:
            sim.schedule(rng.randint(0, 50), fire, tag * 31 + 1)
        if rng.random() < p_post:
            delay = rng.randint(0, 30) if rng.random() < 0.5 else rng.random() * 30
            sim.post(delay, fire, tag * 17 + 2)
        if rng.random() < 0.05:
            origin = sim.now - rng.randint(0, min(sim.now, 40))
            sim.schedule_boundary(sim.now + rng.randint(0, 30), origin, fire, tag * 13 + 3)
        if rng.random() < 0.15 and handles:
            handles.pop(next(iter(handles))).cancel()

    for i in range(n):
        t = rng.randint(0, 2000)
        if i % 3 == 0:
            handles[i] = sim.schedule_at(t, fire, i)
        elif i % 3 == 1:
            sim.post(t, fire, i)
        else:
            sim.schedule_at(t, fire, i)
    sim.run(until=1500)
    sim.run_until_idle()
    return log, sim.now, sim._seq, sim.events_processed


class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_storm_replays_identically(self, seed):
        pure = _storm(PureSimulator(seed=5), seed)
        accel = _storm(AccelSimulator(seed=5), seed)
        assert pure == accel

    @pytest.mark.parametrize("seed", [2, 13, 41, 97])
    def test_post_heavy_storm_replays_identically(self, seed):
        pure = _storm(PureSimulator(seed=5), seed, p_schedule=0.1, p_post=0.8)
        accel = _storm(AccelSimulator(seed=5), seed, p_schedule=0.1, p_post=0.8)
        assert len(pure[0]) > 1500  # most events descend from posts
        assert pure == accel

    def test_until_put_back_semantics(self):
        """An event beyond `until` stays queued and fires on the next run."""
        for sim in (PureSimulator(seed=1), AccelSimulator(seed=1)):
            fired = []
            sim.schedule(100, fired.append, "late")
            assert sim.run(until=50) == 0
            assert fired == [] and sim.now == 50 and sim.pending_events() == 1
            assert sim.next_event_time() == 100
            sim.run_until_idle()
            assert fired == ["late"] and sim.now == 100

    def test_max_events_cap_matches(self):
        for sim in (PureSimulator(seed=1), AccelSimulator(seed=1)):
            fired = []
            for i in range(10):
                sim.schedule(i + 1, fired.append, i)
            assert sim.run(until=1000, max_events=4) == 4
            assert fired == [0, 1, 2, 3]
            # The cap stopped the run: the clock must NOT jump to `until`.
            assert sim.now == 4

    def test_exception_counts_only_completed_events(self):
        def boom():
            raise RuntimeError("boom")

        for sim in (PureSimulator(seed=1), AccelSimulator(seed=1)):
            sim.schedule(1, lambda: None)
            sim.schedule(2, boom)
            with pytest.raises(RuntimeError):
                sim.run_until_idle()
            assert sim.events_processed == 1
            assert not sim._running  # guard must be released on the error path

    def test_reentrant_run_raises(self):
        sim = AccelSimulator(seed=1)
        sim.schedule(1, lambda: sim.run(until=10))
        with pytest.raises(SimulationError):
            sim.run_until_idle()

    def test_the_bookkeeping_calls_are_the_c_ones(self):
        # No Python copy shadows the C base: schedule_boundary files through
        # the C _insert, Event.cancel through the C _cancel, and the one
        # Simulator.run through the C _run.
        core = accel_build.load().EventHeap
        for name in ("post", "schedule", "schedule_at", "_insert", "_cancel",
                     "pending_events", "next_event_time", "_run"):
            assert getattr(AccelSimulator, name) is getattr(core, name), name
        assert AccelSimulator.run is PureSimulator.run

    def test_schedule_boundary_path(self):
        sim = AccelSimulator(seed=1)
        fired = []
        sim.schedule_boundary(10, 4, fired.append, "b")
        sim.schedule(5, fired.append, "a")
        sim.run_until_idle()
        assert fired == ["a", "b"]

    def test_origin_keys_order_like_pure(self):
        """The C heap must order a chain against boundary origins like pure."""

        def capture(sim, log):
            log.append((sim.now, "chain"))
            if len(log) < 6:
                sim.schedule(10, capture, sim, log)

        logs = []
        for sim in (PureSimulator(seed=1), AccelSimulator(seed=1)):
            log = []
            sim.schedule(5, capture, sim, log)
            # The chain link firing at 15 (25) was filed at origin 5 (15).
            sim.schedule_boundary(15, 6, log.append, (15, "origin 6"))
            sim.schedule_boundary(25, 14, log.append, (25, "origin 14"))
            sim.run_until_idle()
            logs.append(log)
        assert logs[0] == logs[1]
        assert logs[0][:5] == [(5, "chain"), (15, "chain"), (15, "origin 6"),
                               (25, "origin 14"), (25, "chain")]

    def test_cancellation_compaction_threshold(self):
        sim = AccelSimulator(seed=1)
        handles = [sim.schedule(1000 + i, lambda: None) for i in range(70)]
        for handle in handles[:64]:
            handle.cancel()
        # The 64th cancel hits the threshold (64 >= 64, 128 > 70 pending):
        # the heap is compacted and the cancelled set cleared.
        assert len(sim._cancelled) == 0
        assert sim.pending_events() == 6


class TestBackendSelection:
    def _run(self, code: str, env_extra: dict) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**SUBPROCESS_ENV, **env_extra},
            cwd=REPO_ROOT,
        )

    PROBE = (
        "import warnings; warnings.simplefilter('error');"
        "from repro.sim.engine import ENGINE_BACKEND, Simulator;"
        "print(ENGINE_BACKEND, Simulator.__name__)"
    )

    #: The build forced to fail: a stand-in ``accel_build`` is installed
    #: before the package is imported, so no cached object can be loaded.
    FAILED_BUILD = (
        "import sys, types;"
        "stub = types.ModuleType('repro.sim.accel_build');"
        "stub.last_error = 'forced build failure';"
        "stub.load = lambda: None;"
        "sys.modules['repro.sim.accel_build'] = stub;"
    )

    def test_default_is_accel(self):
        result = self._run(self.PROBE, {})
        assert result.stdout.split() == ["accel", "AccelSimulator"], result.stderr
        assert result.stderr == ""

    def test_env_var_pure_forces_the_pure_engine(self):
        result = self._run(self.PROBE, {"REPRO_ENGINE": "pure"})
        assert result.stdout.split() == ["pure", "Simulator"], result.stderr
        assert result.stderr == ""

    def test_failed_build_falls_back_to_pure_with_one_logged_line(self):
        result = self._run(
            self.FAILED_BUILD + self.PROBE
            + ";from repro.sim import engine_accel;"
            "print(engine_accel.unavailable_reason)",
            {},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["pure Simulator", "forced build failure"]
        assert result.stderr.splitlines() == [
            "compiled engine unavailable, using the pure-Python engine: "
            "forced build failure"
        ]

    def test_missing_compiler_is_logged_once_on_the_repro_sim_logger(self, tmp_path):
        # A copy of the package with no built object, run with no compiler
        # on PATH: the build really fails, and says so once.
        package = tmp_path / "src" / "repro"
        shutil.copytree(
            REPO_ROOT / "src" / "repro",
            package,
            ignore=shutil.ignore_patterns("__pycache__", "*.so", ".accelcore-build-*"),
        )
        code = (
            "import logging, sys;"
            "logging.basicConfig(stream=sys.stdout, format='%(name)s %(levelname)s %(message)s');"
            "from repro.sim.engine import ENGINE_BACKEND;"
            "from repro.sim import accel_build;"
            "print(ENGINE_BACKEND);"
            "print(accel_build.last_error)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**SUBPROCESS_ENV, "PYTHONPATH": str(tmp_path / "src"), "PATH": ""},
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        reason = "no C compiler (cc/gcc/clang) on PATH"
        assert lines == [
            f"repro.sim WARNING compiled engine unavailable, using the pure-Python engine: {reason}",
            "pure",
            reason,
        ]
        assert not list(package.glob("sim/_accelcore*.so"))

    def test_unknown_backend_warns_and_falls_back(self):
        # Reported on the repro.sim logger, not as a Python warning: the
        # import succeeds even with warnings as errors, on the default engine.
        result = self._run(
            "import warnings; warnings.simplefilter('error');"
            "import logging, sys;"
            "logging.basicConfig(stream=sys.stderr, format='%(name)s %(levelname)s %(message)s');"
            "from repro.sim.engine import ENGINE_BACKEND; print(ENGINE_BACKEND)",
            {"REPRO_ENGINE": "warpdrive"},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["accel"]
        assert result.stderr.splitlines() == [
            "repro.sim WARNING REPRO_ENGINE='warpdrive' is not a known value "
            "(only 'pure' is); ignoring it"
        ]

    def test_accel_is_no_longer_a_value_and_is_ignored(self):
        # The compiled engine is the default; naming it selects nothing.
        result = self._run(
            "import warnings;"
            "from repro.sim.engine import ENGINE_BACKEND, Simulator;"
            "print(ENGINE_BACKEND, Simulator.__name__)",
            {"REPRO_ENGINE": "accel"},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["accel", "AccelSimulator"]
        assert "REPRO_ENGINE='accel' is not a known value" in result.stderr

    def test_golden_scheme_byte_identical_under_accel(self):
        """BFC golden records recomputed under accel == committed fixture."""
        code = (
            "import json;"
            "from golden_kernel import canonical_records, golden_configs;"
            "from repro.experiments.runner import run_experiment;"
            "from repro.sim.engine import ENGINE_BACKEND;"
            "assert ENGINE_BACKEND == 'accel', ENGINE_BACKEND;"
            "rec = canonical_records(run_experiment(golden_configs()['BFC']));"
            "print(json.dumps(rec, sort_keys=True, separators=(',', ':')))"
        )
        result = self._run(code, {})
        assert result.returncode == 0, result.stderr
        fixture = json.loads(
            (REPO_ROOT / "tests" / "golden" / "kernel_records.json").read_text()
        )
        expected = json.dumps(
            fixture["BFC"], sort_keys=True, separators=(",", ":")
        )
        assert result.stdout.strip() == expected


class TestBuild:
    """``accel_build`` in a private directory holding a copy of the source."""

    @pytest.fixture()
    def build_dir(self, tmp_path, monkeypatch):
        shutil.copy(accel_build._SOURCE, tmp_path / "_accelcore.c")
        monkeypatch.setattr(accel_build, "_SIM_DIR", tmp_path)
        monkeypatch.setattr(accel_build, "_SOURCE", tmp_path / "_accelcore.c")
        return tmp_path

    @staticmethod
    def _load(path):
        spec = importlib.util.spec_from_file_location("repro.sim._accelcore", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_concurrent_forced_builds_leave_a_loadable_module(self, build_dir):
        barrier = threading.Barrier(2)
        built = []

        def build():
            barrier.wait()
            built.append(accel_build.build(force=True))

        threads = [threading.Thread(target=build) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert built[0] is not None and built[0] == built[1], accel_build.last_error
        # No temporary object is left behind, and the one in place loads.
        assert sorted(p.name for p in build_dir.iterdir()) == sorted(
            ["_accelcore.c", built[0].name]
        )
        heap = self._load(built[0]).EventHeap()
        heap._insert((3, 0, 0, (lambda: None), ()))
        assert heap.next_event_time() == 3

    def test_staleness_follows_the_source_not_mtime(self, build_dir):
        first = accel_build.build()
        assert first is not None, accel_build.last_error
        built_at = first.stat().st_mtime_ns
        os.utime(build_dir / "_accelcore.c")  # newer mtime, same source
        assert accel_build.build() == first
        assert first.stat().st_mtime_ns == built_at  # not recompiled
        with open(build_dir / "_accelcore.c", "a") as source:
            source.write("/* edited */\n")
        second = accel_build.build()
        assert second is not None and second != first
        assert not first.exists()  # the stale build is pruned


def _live_packets() -> int:
    from repro.sim.packet import Packet

    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Packet)


class TestEventOwnership:
    """Events posted from C carry up to two arguments inline in the heap
    entry: the heap owns them, and a dropped simulation gives every packet
    back, whether its events all fired or some were still pending."""

    @pytest.fixture(autouse=True)
    def compiled_runs(self, monkeypatch):
        # The runs are the compiled engine's whatever REPRO_ENGINE selects.
        from repro.experiments import runner

        monkeypatch.setattr(runner, "Simulator", AccelSimulator)

    @pytest.mark.parametrize("scheme", ["BFC", "DCQCN"])
    def test_a_finished_run_leaves_no_packet(self, scheme):
        from repro.experiments.runner import run_experiment
        from repro.experiments.scenarios import fig5a_configs

        before = _live_packets()
        result = run_experiment(fig5a_configs("tiny", [scheme], seed=3)[scheme])
        assert result.host_counters["data_packets_received"] > 0
        del result
        assert _live_packets() == before

    @pytest.mark.parametrize("scheme", ["BFC", "DCQCN"])
    def test_a_simulation_dropped_with_pending_events_leaves_no_packet(self, scheme):
        from repro.experiments.runner import build_simulation
        from repro.experiments.scenarios import fig5a_configs

        before = _live_packets()
        sim, env, topo, trace = build_simulation(fig5a_configs("tiny", [scheme], seed=3)[scheme])
        assert type(sim) is AccelSimulator
        topo.start_flows(trace)
        sim.run(until=200_000)
        pending = sim.pending_events()
        # Deliveries in flight hold their packet (and its ingress) inline.
        assert pending > 0 and _live_packets() > before
        del sim, env, topo, trace
        assert _live_packets() == before

    def test_inline_arguments_are_released_and_traversed(self):
        # A delivery posted from C holds (packet, peer_iface) inline.  Both
        # reference the simulator here, so each forms a cycle through the
        # heap: a fired delivery must release them, and a pending one must
        # be visited for the collector to free the simulator at all.
        from repro.sim import units
        from repro.sim.node import Node
        from repro.sim.packet import FlowKey, Packet, PacketKind
        from repro.sim.port import connect

        class Holder:
            def __init__(self, sim):
                self.sim = sim

        class Quiet(Node):
            def handle_packet(self, packet, iface_index):
                pass

        def world():
            sim = AccelSimulator(seed=1)
            a, b = Quiet(sim, "a"), Quiet(sim, "b")
            connect(a, b, rate_bps=units.gbps(10), delay_ns=500)
            port = a.interfaces[0].tx
            port.peer_iface = Holder(sim)
            packet = Packet(kind=PacketKind.ACK, flow_id=1, key=FlowKey(0, 1, 2, 3), size=64)
            packet.entry = Holder(sim)
            port.send_control(packet)
            assert sim.pending_events() == 1
            return sim, weakref.ref(port.peer_iface), weakref.ref(packet.entry)

        for fire in (True, False):
            sim, iface, entry = world()
            if fire:
                sim.run()
                assert sim.pending_events() == 0
            sim_ref = weakref.ref(sim)
            del sim
            gc.collect()
            assert sim_ref() is None and entry() is None and iface() is None, fire
