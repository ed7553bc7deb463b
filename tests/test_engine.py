"""Unit tests for the discrete-event engine.

The scheduling, cancellation and run-control contract is checked on both
engines (``tests/planes.PLANES``): the pure heap and the compiled one must
fire the same events in the same order.
"""

import random

import pytest

from repro.sim.engine import SimulationError, Simulator


@pytest.fixture
def sim(plane_sim):
    return plane_sim


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(20, order.append, "b")
        sim.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_fifo(self, sim):
        order = []
        for label in "abcde":
            sim.schedule(100, order.append, label)
        sim.run_until_idle()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.schedule(50, lambda: times.append(sim.now))
        sim.schedule(75, lambda: times.append(sim.now))
        sim.run_until_idle()
        assert times == [50, 75]

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(123, fired.append, 1)
        sim.run_until_idle()
        assert fired == [1]
        assert sim.now == 123

    def test_nested_scheduling(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(5, lambda: order.append("inner"))

        sim.schedule(10, outer)
        sim.run_until_idle()
        assert order == ["outer", "inner"]
        assert sim.now == 15

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(100, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)


    def test_reverse_order_schedule_fires_sorted(self, sim):
        """Events queued in the reverse of their firing order fire sorted."""
        fired = []
        for i in range(3_000):
            sim.schedule(40 * (3_000 - i), fired.append, 3_000 - i)
        sim.run_until_idle()
        assert fired == list(range(1, 3_001))

    def test_far_future_events_interleave_with_near_ones(self, sim):
        """Far-future events fire in exact (time, seq) order after near ones."""
        rng = random.Random(7)
        expected = []
        times = [1_000_000 + 977 * i for i in range(500)]
        # Duplicate a few instants to exercise the FIFO (seq) tiebreak.
        times += times[:50]
        rng.shuffle(times)
        fired = []
        for idx, t in enumerate(times):
            sim.schedule_at(t, fired.append, (t, idx))
            expected.append((t, idx))
        # A few near events, scheduled last, fire first.
        for t in (100, 200, 300):
            sim.schedule_at(t, fired.append, (t, -1))
            expected.append((t, -1))
        sim.run_until_idle()
        assert fired == sorted(expected, key=lambda p: (p[0], expected.index(p)))

    def test_mixed_storm_is_totally_ordered(self, sim):
        """A random storm of near, far and cancelled events stays sorted."""
        rng = random.Random(3)
        fired = []

        def record(label):
            fired.append((sim.now, label))
            # Occasionally schedule follow-ups from inside a callback.
            if label % 97 == 0:
                sim.post(rng.randrange(0, 5_000), record, label + 1_000_000)

        for i in range(2_000):
            delay = rng.choice((rng.randrange(0, 300), rng.randrange(0, 200_000)))
            handle = sim.schedule(delay, record, i)
            if i % 11 == 0:
                handle.cancel()
        sim.run_until_idle()
        times = [t for t, _ in fired]
        assert times == sorted(times)
        assert not any(label % 11 == 0 for _, label in fired if label < 1_000_000)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(10, fired.append, "x")
        event.cancel()
        sim.run_until_idle()
        assert fired == []

    def test_cancel_one_of_many(self, sim):
        fired = []
        sim.schedule(10, fired.append, "a")
        victim = sim.schedule(20, fired.append, "b")
        sim.schedule(30, fired.append, "c")
        victim.cancel()
        sim.run_until_idle()
        assert fired == ["a", "c"]

    def test_cancel_is_idempotent(self, sim):
        fired = []
        event = sim.schedule(10, fired.append, "x")
        event.cancel()
        event.cancel()
        assert event.cancelled
        sim.run_until_idle()
        assert fired == []

    def test_cancelled_flag_is_sticky(self, sim):
        event = sim.schedule(10, lambda: None)
        event.cancel()
        sim.run_until_idle()
        assert event.cancelled

    def test_handle_reports_fire_time(self, sim):
        event = sim.schedule(25, lambda: None)
        assert event.time == 25
        event = sim.schedule_at(123, lambda: None)
        assert event.time == 123

    def test_mass_cancellation_does_not_leak_heap_memory(self, sim):
        """Cancelled events must be compacted away, not retained until pop."""
        handles = [sim.schedule(1_000_000 + i, lambda: None) for i in range(10_000)]
        for handle in handles[:-1]:
            handle.cancel()
        # Compaction triggers once cancelled entries dominate; the heap must
        # not still hold ~10k dead entries.
        assert sim.pending_events() < 1_000
        fired = sim.run_until_idle()
        assert fired == 1

    def test_compaction_preserves_order_and_live_events(self, sim):
        order = []
        live = []
        for i in range(500):
            handle = sim.schedule(10 * i + 10, order.append, i)
            if i % 5 != 0:
                handle.cancel()
            else:
                live.append(i)
        sim.run_until_idle()
        assert order == live

    def test_cancel_after_fire_is_harmless(self, sim):
        fired = []
        event = sim.schedule(10, fired.append, "x")
        sim.run_until_idle()
        event.cancel()  # stale cancel: the event already ran
        assert fired == ["x"]
        sim.schedule(20, fired.append, "y")
        sim.run_until_idle()
        assert fired == ["x", "y"]


    def test_cancel_from_inside_the_current_instant(self, sim):
        """Cancelling a later event from a firing callback must stick."""
        order = []
        handles = {}

        def first():
            order.append("a")
            handles["later"].cancel()

        sim.schedule(10, first)
        handles["later"] = sim.schedule(12, order.append, "b")
        sim.schedule(14, order.append, "c")
        sim.run_until_idle()
        assert order == ["a", "c"]

    def test_cancel_of_an_insert_made_during_serve(self, sim):
        """Cancel an event that a firing callback has just scheduled."""
        order = []

        def first():
            order.append("a")
            handle = sim.schedule(5, order.append, "b")
            sim.schedule(6, order.append, "c")
            handle.cancel()

        sim.schedule(10, first)
        sim.run_until_idle()
        assert order == ["a", "c"]


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(10, fired.append, "early")
        sim.schedule(100, fired.append, "late")
        sim.run(until=50)
        assert fired == ["early"]
        assert sim.now == 50
        sim.run(until=200)
        assert fired == ["early", "late"]

    def test_run_until_returns_processed_count(self, sim):
        for i in range(5):
            sim.schedule(i + 1, lambda: None)
        assert sim.run(until=3) == 3

    def test_max_events_cap(self, sim):
        for i in range(100):
            sim.schedule(i + 1, lambda: None)
        processed = sim.run(max_events=10)
        assert processed == 10
        assert sim.pending_events() == 90

    def test_events_processed_counter(self, sim):
        for i in range(7):
            sim.schedule(i + 1, lambda: None)
        sim.run_until_idle()
        assert sim.events_processed == 7

    def test_empty_run_is_harmless(self, sim):
        assert sim.run_until_idle() == 0
        assert sim.now == 0

    def test_clock_advances_to_until_even_with_no_events(self, sim):
        sim.run(until=5_000)
        assert sim.now == 5_000

    def test_until_with_cancelled_events_at_head(self, sim):
        """Cancelled events inside the window must not block the clock advance."""
        fired = []
        for i in range(5):
            sim.schedule(10 + i, fired.append, i).cancel()
        sim.schedule(40, fired.append, "live")
        sim.run(until=100)
        assert fired == ["live"]
        assert sim.now == 100

    def test_until_with_only_cancelled_events(self, sim):
        for i in range(3):
            sim.schedule(10 + i, lambda: None).cancel()
        processed = sim.run(until=50)
        assert processed == 0
        assert sim.now == 50

    def test_until_then_cancelled_beyond_window(self, sim):
        """A cancelled event beyond ``until`` must not stop the clock short."""
        fired = []
        sim.schedule(10, fired.append, "a")
        sim.schedule(200, fired.append, "late").cancel()
        sim.run(until=100)
        assert fired == ["a"]
        assert sim.now == 100

    def test_max_events_cap_does_not_advance_clock_to_until(self, sim):
        for i in range(10):
            sim.schedule(i + 1, lambda: None)
        sim.run(until=1_000, max_events=5)
        # Stopped by the cap: the clock must stay at the last fired event so
        # the next run() call resumes where this one stopped.
        assert sim.now == 5
        assert sim.run(until=1_000) == 5
        assert sim.now == 1_000

    def test_post_is_fire_and_forget(self, sim):
        fired = []
        assert sim.post(10, fired.append, "x") is None
        sim.run_until_idle()
        assert fired == ["x"]

    def test_post_rejects_negative_delay(self, sim):
        with pytest.raises(SimulationError):
            sim.post(-5, lambda: None)

    def test_post_and_schedule_share_fifo_order(self, sim):
        fired = []
        sim.post(10, fired.append, "a")
        sim.schedule(10, fired.append, "b")
        sim.post(10, fired.append, "c")
        sim.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_reentrant_run_rejected(self, sim):
        def recurse():
            sim.run_until_idle()

        sim.schedule(1, recurse)
        with pytest.raises(SimulationError):
            sim.run_until_idle()


    def test_until_landing_exactly_on_an_event_time(self, sim):
        """run(until=) is inclusive: an event at exactly ``until`` fires."""
        edge = 512
        fired = []
        sim.schedule_at(edge - 1, fired.append, "before")
        sim.schedule_at(edge, fired.append, "edge")
        sim.schedule_at(edge + 1, fired.append, "after")
        sim.run(until=edge)
        assert fired == ["before", "edge"]
        assert sim.now == edge
        sim.run(until=2 * edge)
        assert fired == ["before", "edge", "after"]

    def test_far_future_peek_then_near_insert(self, sim):
        """Regression: a run(until=) that stops short of a far-future event
        must not strand later near-term inserts behind it."""
        order = []
        sim.schedule(2_000_000, order.append, "rto")
        sim.run(until=50_000)  # stops with the far event at the head
        assert order == []
        sim.post(838, order.append, "tx")  # now + 838 ns, before the far one
        sim.run(until=3_000_000)
        assert order == ["tx", "rto"]

    def test_cancelled_tail_then_near_insert(self, sim):
        """Regression: draining a queue whose tail is cancelled must not
        leave later inserts out of order."""
        order = []
        sim.schedule(10, order.append, "w")
        sim.schedule(100_000, order.append, "x").cancel()
        sim.run_until_idle()
        assert order == ["w"]
        sim.schedule(20, order.append, "a")
        sim.schedule_at(102_400, order.append, "b")
        sim.run_until_idle()
        assert order == ["w", "a", "b"]
        assert sim.now == 102_400


class TestDeterminism:
    def test_rng_is_seed_deterministic(self):
        a = Simulator(seed=7).rng().random()
        b = Simulator(seed=7).rng().random()
        c = Simulator(seed=8).rng().random()
        assert a == b
        assert a != c

    def test_rng_salt_changes_stream(self):
        sim = Simulator(seed=7)
        assert sim.rng(salt=1).random() != sim.rng(salt=1).random()  # fresh draws differ

    def test_identical_schedules_fire_identically(self):
        def run_once():
            sim = Simulator(seed=3)
            order = []
            rng = sim.rng()
            for _ in range(20):
                sim.schedule(rng.randint(1, 100), order.append, rng.random())
            sim.run_until_idle()
            return order

        assert run_once() == run_once()
