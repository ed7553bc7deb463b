"""The engine's registers, on both engines.

The clock, the sequence counter and the cancelled seqs are plain attributes
of the pure engine and C fields of the compiled one: its run loop writes
them, and its scheduling calls and its forwarding plane read them.  Every
entry takes the clock as its origin, which is observable only against a
boundary entry filed with an explicit origin, so the tests below bracket
entries with boundary entries on either side of the origin they must carry.
Each test states what the registers must read at each step and holds both
engines to it, so a C path that reads a stale register, forgets to write
one or leaks a cancelled seq differs from the reference.
"""

from __future__ import annotations

import random

import pytest

from planes import PLANES
from repro.sim import units
from repro.sim.disciplines import fifo_for
from repro.sim.engine import PureSimulator
from repro.sim.node import Node
from repro.sim.packet import FlowKey, Packet, PacketKind
from repro.sim.port import connect


class Recorder(Node):
    """Logs the clock at each delivery, then posts a two-deep chain."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.log = []

    def handle_packet(self, packet, iface_index):
        self.log.append(("deliver", self.sim.now))
        self.sim.post(7, self.child, 2)

    def child(self, depth):
        self.log.append(("child", self.sim.now))
        if depth > 1:
            self.sim.post(5, self.child, depth - 1)


def data_packet(size=1_000):
    return Packet(kind=PacketKind.DATA, flow_id=1,
                  key=FlowKey(src=0, dst=1, src_port=1, dst_port=4791),
                  size=size, flow_size=size)


@pytest.mark.parametrize("sim_class", PLANES)
def test_a_port_post_takes_the_clock_the_engine_left_as_its_origin(sim_class):
    sim = sim_class(seed=1)
    sender, receiver = Recorder(sim, "a"), Recorder(sim, "b")
    connect(sender, receiver, rate_bps=units.gbps(10), delay_ns=500)
    port = sender.interfaces[0].tx
    port.discipline = fifo_for(port)

    def send():
        port.discipline.enqueue(data_packet(), 0)
        port.notify()  # the port's kick posts the delivery

    sim.run(until=1_000)  # an empty window: only the clock moves
    assert sim.now == 1_000
    sim.post(100, send)  # filed at origin 1 000
    sim.run(until=1_500)  # the kick at 1 100 posts the delivery
    # 1 000 B take 800 ns at 10 Gb/s, then 500 ns on the wire.  Filed after
    # it, boundary entries either side of its origin 1 100 bracket it.
    sim.schedule_boundary(2_400, 1_101, receiver.log.append, ("after", 2_400))
    sim.schedule_boundary(2_400, 1_099, receiver.log.append, ("before", 2_400))
    sim.run_until_idle()
    assert receiver.log == [
        ("before", 2_400),
        ("deliver", 2_400),
        ("after", 2_400),
        ("child", 2_407),
        ("child", 2_412),
    ]
    # send, delivery, two boundary entries, two children
    assert sim._seq == 6 and sim.events_processed == 6


@pytest.mark.parametrize("sim_class", PLANES)
def test_a_boundary_entry_fires_at_its_shipped_origin(sim_class):
    sim = sim_class(seed=1)
    log = []

    def record(tag):
        log.append((tag, sim.now))
        if tag == "boundary":
            sim.post(3, record, "boundary child")

    sim.run(until=50)
    sim.schedule_boundary(100, 90, record, "boundary")
    sim.schedule_at(100, record, "local")  # origin 50 < 90: fires first
    sim.schedule_at(95, lambda: sim.schedule_at(100, record, "late"))  # origin 95 > 90
    assert sim._seq == 3 and sim.pending_events() == 3
    sim.run_until_idle()
    assert log == [
        ("local", 100),
        ("boundary", 100),
        ("late", 100),
        ("boundary child", 103),
    ]
    assert sim._seq == 5


@pytest.mark.parametrize("sim_class", PLANES)
def test_the_registers_can_be_read_and_written_by_their_names(sim_class):
    sim = sim_class(seed=1)
    sim.now, sim._seq = 40, 100
    handle = sim.schedule(5, lambda: None)
    assert (handle.time, handle.seq) == (45, 100) and sim._seq == 101
    handle.cancel()
    assert sim._cancelled == {100} and sim.pending_events() == 1
    sim.run_until_idle()
    assert len(sim._cancelled) == 0 and sim.events_processed == 0


def cancel_heavy(sim_class, seed):
    """A schedule/cancel/run interleaving, with its registers after every step.

    About two thirds of the timers are cancelled, some after they fired and
    some twice, and runs stop at windows and event caps, so the cancelled
    set grows past the compaction threshold and is reaped both by pops and
    by compactions.
    """
    sim = sim_class(seed=3)
    rng = random.Random(seed)
    handles = []
    trace = []

    def fire(tag):
        trace.append(("fire", tag, sim.now))
        if rng.random() < 0.3:
            handles.append(sim.schedule(rng.randint(0, 400), fire, tag * 7 + 1))
        if rng.random() < 0.3 and handles:
            handles[rng.randrange(len(handles))].cancel()

    for step in range(600):
        roll = rng.random()
        if roll < 0.35:
            kind = "schedule"
            handles.append(sim.schedule(rng.randint(0, 3_000), fire, step))
        elif roll < 0.45:
            kind = "schedule_at"
            handles.append(sim.schedule_at(sim.now + rng.randint(0, 3_000), fire, step))
        elif roll < 0.55:
            kind = "post"
            sim.post(rng.randint(0, 3_000), fire, step)
        elif roll < 0.85 and handles:
            kind = "cancel"
            handles[rng.randrange(len(handles))].cancel()
        elif roll < 0.95:
            kind = "run"
            sim.run(until=sim.now + rng.randint(0, 400))
        else:
            kind = "run capped"
            sim.run(max_events=rng.randint(1, 5))
        trace.append(
            ("step", kind, sim.now, sim._seq, sim.pending_events(),
             sim.next_event_time(), len(sim._cancelled), sim.events_processed)
        )
    sim.run_until_idle()
    trace.append(("end", sim.now, sim._seq, sim.events_processed))
    return trace


@pytest.mark.parametrize("seed", [1, 3, 4, 5])
def test_a_cancel_heavy_interleaving_matches_the_pure_engine(seed):
    compiled = PLANES[1].values[0]
    if compiled is None:
        pytest.skip("compiled engine unavailable")
    reference = cancel_heavy(PureSimulator, seed)
    assert cancel_heavy(compiled, seed) == reference
    steps = [(entry[1], entry[-4], entry[-2]) for entry in reference if entry[0] == "step"]
    pairs = list(zip(steps, steps[1:]))
    # Both reapers ran: a run popped cancelled entries, and a cancel that
    # reached the threshold compacted the queue (a cancel alone never
    # shrinks it otherwise) and emptied the set.
    assert any(kind.startswith("run") and 0 < now < before
               for (_, _, before), (kind, _, now) in pairs)
    assert any(kind == "cancel" and queued < queued_before and now == 0
               for (_, queued_before, _), (kind, queued, now) in pairs)
