"""Unit/integration tests for hosts, NICs, Go-Back-N and windows.

Most tests use a minimal two-host topology joined by a single switch so that
real ACK/NACK round trips exercise the sender state machine.  Every test runs
on both forwarding planes: on the compiled one the NIC's transmit path, the
data-packet build and the go-back-N receive path are C.
"""

import pytest

from repro.sim import units
from repro.sim.buffer import PfcPolicy
from repro.sim.disciplines import BLOCKED, FifoDiscipline
from repro.sim.flow import Flow
from repro.sim.host import Host, HostConfig, SenderFlowState, WindowedCongestionControl
from repro.sim.packet import DATA_HEADER_SIZE, PacketKind
from repro.sim.port import connect
from repro.sim.switch import Switch
from repro.sim.tracing import tap_deliveries


@pytest.fixture
def sim(plane_sim):
    return plane_sim


def build_pair(
    sim,
    rate_bps=units.gbps(10),
    delay_ns=1_000,
    buffer_bytes=1_000_000,
    host_config=None,
    cc_factory=None,
    num_hosts=2,
):
    """``num_hosts`` hosts hanging off one switch, shared flow registry."""
    registry = {}
    hosts = []
    switch = Switch(
        sim,
        "sw",
        buffer_bytes=buffer_bytes,
        discipline_factory=lambda iface: FifoDiscipline(),
        pfc=PfcPolicy(enabled=True),
    )
    for i in range(num_hosts):
        host = Host(
            sim,
            f"h{i}",
            host_id=i,
            config=host_config or HostConfig(),
            cc_factory=cc_factory,
            flow_registry=registry,
        )
        connect(host, switch, rate_bps=rate_bps, delay_ns=delay_ns)
        hosts.append(host)
    switch.set_routes(
        {i: [switch.interface_to(hosts[i]).index] for i in range(num_hosts)}
    )
    return hosts, switch, registry


class TestBasicTransfer:
    def test_single_packet_flow_completes(self, sim):
        hosts, _, registry = build_pair(sim)
        flow = Flow(src=0, dst=1, size=500, start_ns=0)
        hosts[0].start_flow(flow)
        sim.run(until=units.microseconds(100))
        assert flow.completed
        assert flow.bytes_delivered == 500

    def test_multi_packet_flow_completes(self, sim):
        hosts, _, registry = build_pair(sim)
        flow = Flow(src=0, dst=1, size=25_000, start_ns=0)
        hosts[0].start_flow(flow)
        sim.run(until=units.microseconds(200))
        assert flow.completed
        assert flow.bytes_delivered == 25_000

    def test_fct_close_to_ideal_on_idle_network(self, sim):
        hosts, _, _ = build_pair(sim)
        flow = Flow(src=0, dst=1, size=10_000, start_ns=0)
        hosts[0].start_flow(flow)
        sim.run(until=units.microseconds(200))
        slowdown = flow.slowdown(units.gbps(10), 2_000)
        assert slowdown is not None
        assert slowdown < 1.5

    def test_completion_callback_invoked(self, sim):
        hosts, _, _ = build_pair(sim)
        finished = []
        hosts[1].on_flow_complete = lambda flow, now: finished.append((flow.flow_id, now))
        flow = Flow(src=0, dst=1, size=500, start_ns=0)
        hosts[0].start_flow(flow)
        sim.run(until=units.microseconds(100))
        assert finished and finished[0][0] == flow.flow_id

    def test_flow_on_wrong_host_rejected(self, sim):
        hosts, _, _ = build_pair(sim)
        flow = Flow(src=1, dst=0, size=500, start_ns=0)
        with pytest.raises(ValueError):
            hosts[0].start_flow(flow)

    def test_sender_counts_packets(self, sim):
        hosts, _, _ = build_pair(sim)
        flow = Flow(src=0, dst=1, size=5_000, start_ns=0)
        hosts[0].start_flow(flow)
        sim.run(until=units.microseconds(200))
        assert hosts[0].counters.get("data_packets_sent") == 5
        assert hosts[1].counters.get("data_packets_received") == 5
        assert hosts[1].counters.get("acks_sent") >= 1

    def test_pacing_matches_units_formula(self, sim):
        """The pacing arithmetic inlined in build_data_packet must track
        units.transmission_time_ns exactly (same rounding, same >=1 clamp) —
        drift changes packet timing and breaks the golden-records guarantee."""
        rate = 7.3e9  # odd rate so rounding actually matters
        hosts, _, _ = build_pair(sim, rate_bps=rate)
        flow = Flow(src=0, dst=1, size=999, start_ns=0)
        # Build the sender state directly (start_flow would kick the port,
        # which pulls the first packet before we can observe the pacing).
        fstate = SenderFlowState(flow, hosts[0].config.mtu)
        packet = hosts[0].build_data_packet(fstate)
        assert fstate.next_allowed_ns == units.transmission_time_ns(
            packet.size, rate
        )

    def test_flow_state_removed_after_full_ack(self, sim):
        hosts, _, _ = build_pair(sim)
        flow = Flow(src=0, dst=1, size=500, start_ns=0)
        hosts[0].start_flow(flow)
        sim.run(until=units.microseconds(100))
        assert hosts[0].nic.flow_state(flow.flow_id) is None
        assert hosts[0].nic.active_flow_count() == 0


class TestFairnessAtNic:
    def test_concurrent_flows_share_the_uplink(self, sim):
        hosts, _, _ = build_pair(sim)
        flows = [Flow(src=0, dst=1, size=20_000, start_ns=0, src_port=i + 1) for i in range(2)]
        for flow in flows:
            hosts[0].start_flow(flow)
        sim.run(until=units.microseconds(500))
        assert all(f.completed for f in flows)
        # Both flows finish around the same time because the NIC round robins.
        finish_times = [f.finish_ns for f in flows]
        assert abs(finish_times[0] - finish_times[1]) < units.microseconds(5)

    def test_small_flow_not_starved_by_elephant(self, sim):
        hosts, _, _ = build_pair(sim)
        elephant = Flow(src=0, dst=1, size=200_000, start_ns=0, src_port=1)
        mouse = Flow(src=0, dst=1, size=1_000, start_ns=0, src_port=2)
        hosts[0].start_flow(elephant)
        hosts[0].start_flow(mouse)
        sim.run(until=units.milliseconds(1))
        assert mouse.completed and elephant.completed
        assert mouse.finish_ns < elephant.finish_ns
        # The mouse should finish in a handful of microseconds, not after the
        # elephant's 160+ us of serialization.
        assert mouse.fct_ns() < units.microseconds(20)


class TestWindowCap:
    def test_window_limits_inflight(self, sim):
        config = HostConfig(window_cap_bytes=4 * 1_048)
        hosts, switch, _ = build_pair(sim, host_config=config)
        flow = Flow(src=0, dst=1, size=100_000, start_ns=0)
        hosts[0].start_flow(flow)
        max_seen = 0

        def probe():
            nonlocal max_seen
            state = hosts[0].nic.flow_state(flow.flow_id)
            if state is not None:
                max_seen = max(max_seen, state.inflight_bytes())
            sim.schedule(1_000, probe)

        sim.schedule(1_000, probe)
        sim.run(until=units.microseconds(150))
        assert max_seen <= 4 * 1_048

    def test_windowed_cc_object(self, sim):
        cc = WindowedCongestionControl(units.gbps(10), window_bytes=10_000)
        hosts, _, _ = build_pair(sim, cc_factory=lambda rate: WindowedCongestionControl(rate, 10_000))
        flow = Flow(src=0, dst=1, size=50_000, start_ns=0)
        state = hosts[0].start_flow(flow)
        assert hosts[0].effective_window(state) == 10_000
        assert cc.window_bytes(state) == 10_000

    def test_effective_window_is_minimum(self, sim):
        config = HostConfig(window_cap_bytes=5_000)
        hosts, _, _ = build_pair(
            sim,
            host_config=config,
            cc_factory=lambda rate: WindowedCongestionControl(rate, 20_000),
        )
        flow = Flow(src=0, dst=1, size=50_000, start_ns=0)
        state = hosts[0].start_flow(flow)
        assert hosts[0].effective_window(state) == 5_000


def force_drops(switch, predicate):
    """Make the switch silently drop data packets matching ``predicate``."""
    original = switch._admit_data
    dropped = []

    def wrapper(packet, in_index, out_iface):
        if predicate(packet):
            dropped.append(packet)
            switch.counters.incr("dropped_packets")
            return
        original(packet, in_index, out_iface)

    switch._admit_data = wrapper
    return dropped


class TestGoBackN:
    def test_single_loss_recovered_via_nack(self, sim):
        """Drop one mid-flow packet; the NACK-triggered rewind must recover it."""
        hosts, switch, _ = build_pair(sim)
        dropped = force_drops(
            switch,
            lambda p, seen=[]: p.seq == 10 and not seen and seen.append(1) is None,
        )
        flow = Flow(src=0, dst=1, size=30_000, start_ns=0)
        hosts[0].start_flow(flow)
        sim.run(until=units.milliseconds(1))
        assert len(dropped) == 1
        assert flow.completed
        assert flow.bytes_delivered == 30_000
        assert flow.retransmitted_packets > 0
        assert hosts[1].counters.get("nacks_sent") >= 1

    def test_window_capped_incast_with_loss_completes(self, sim):
        # Two window-capped senders overload a tiny buffer: some packets drop,
        # Go-Back-N recovers, and both transfers finish.
        config = HostConfig(window_cap_bytes=12_500, rto_ns=units.microseconds(200))
        hosts, switch, _ = build_pair(
            sim, buffer_bytes=5_000, num_hosts=3, host_config=config
        )
        switch.pfc = PfcPolicy(enabled=False)
        flows = [
            Flow(src=0, dst=2, size=40_000, start_ns=0, src_port=1),
            Flow(src=1, dst=2, size=40_000, start_ns=0, src_port=2),
        ]
        for flow in flows:
            hosts[flow.src].start_flow(flow)
        sim.run(until=units.milliseconds(10))
        assert switch.dropped_packets() > 0
        assert all(f.completed for f in flows)
        assert sum(f.retransmitted_packets for f in flows) > 0

    def test_receiver_delivers_every_byte_exactly_once(self, sim):
        config = HostConfig(window_cap_bytes=12_500, rto_ns=units.microseconds(200))
        hosts, switch, _ = build_pair(
            sim, buffer_bytes=5_000, num_hosts=3, host_config=config
        )
        switch.pfc = PfcPolicy(enabled=False)
        flow = Flow(src=0, dst=2, size=60_000, start_ns=0, src_port=1)
        cross = Flow(src=1, dst=2, size=60_000, start_ns=0, src_port=2)
        hosts[0].start_flow(flow)
        hosts[1].start_flow(cross)
        sim.run(until=units.milliseconds(10))
        assert flow.completed
        assert flow.bytes_delivered == 60_000  # every byte delivered exactly once

    def test_rto_recovers_tail_loss(self, sim):
        """If the very last packet is lost and nothing follows, the RTO fires."""
        config = HostConfig(rto_ns=units.microseconds(100))
        hosts, switch, _ = build_pair(sim, host_config=config)
        flow = Flow(src=0, dst=1, size=30_000, start_ns=0)
        last_seq = 29
        dropped = force_drops(
            switch,
            lambda p, seen=[]: p.seq == last_seq and not seen and seen.append(1) is None,
        )
        hosts[0].start_flow(flow)
        sim.run(until=units.milliseconds(2))
        assert len(dropped) == 1
        assert flow.completed
        assert hosts[0].counters.get("rto_rewinds") >= 1


class TestPacketConservation:
    def test_no_duplicate_delivery_without_loss(self, sim):
        hosts, switch, _ = build_pair(sim)
        flow = Flow(src=0, dst=1, size=50_000, start_ns=0)
        hosts[0].start_flow(flow)
        sim.run(until=units.milliseconds(1))
        assert hosts[1].counters.get("duplicate_packets") == 0
        assert hosts[1].counters.get("data_packets_received") == 50

    def test_sent_equals_received_plus_dropped_plus_inflight(self, sim):
        config = HostConfig(window_cap_bytes=12_500, rto_ns=units.microseconds(200))
        hosts, switch, _ = build_pair(
            sim, buffer_bytes=5_000, num_hosts=3, host_config=config
        )
        switch.pfc = PfcPolicy(enabled=False)
        flows = [
            Flow(src=0, dst=2, size=50_000, start_ns=0, src_port=1),
            Flow(src=1, dst=2, size=50_000, start_ns=0, src_port=2),
        ]
        for flow in flows:
            hosts[flow.src].start_flow(flow)
        sim.run(until=units.milliseconds(10))
        sent = sum(h.counters.get("data_packets_sent") for h in hosts[:2])
        received = hosts[2].counters.get("data_packets_received")
        dropped = switch.dropped_packets()
        in_buffer = switch.buffer.occupancy() // 1_000
        # Every sent packet is accounted for: delivered, dropped, or still
        # buffered/in flight when the clock stops.
        assert 0 <= sent - (received + dropped + in_buffer) <= 4


class TestMarking:
    def test_first_packet_marked_when_configured(self, sim):
        config = HostConfig(mark_first_packet=True)
        hosts, switch, _ = build_pair(sim, host_config=config)
        seen = []
        _spy_data(hosts[1], seen)
        flow = Flow(src=0, dst=1, size=5_000, start_ns=0)
        hosts[0].start_flow(flow)
        sim.run(until=units.microseconds(200))
        first = [p for p in seen if p.seq == 0]
        later = [p for p in seen if p.seq > 0]
        assert all(p.first_of_flow for p in first)
        assert all(not p.first_of_flow for p in later)

    def test_first_packet_not_marked_by_default(self, sim):
        hosts, switch, _ = build_pair(sim)
        seen = []
        _spy_data(hosts[1], seen)
        flow = Flow(src=0, dst=1, size=2_000, start_ns=0)
        hosts[0].start_flow(flow)
        sim.run(until=units.microseconds(200))
        assert all(not p.first_of_flow for p in seen)

    def test_last_packet_flag(self, sim):
        hosts, switch, _ = build_pair(sim)
        seen = []
        _spy_data(hosts[1], seen)
        flow = Flow(src=0, dst=1, size=3_000, start_ns=0)
        hosts[0].start_flow(flow)
        sim.run(until=units.microseconds(200))
        assert [p.last_of_flow for p in sorted(seen, key=lambda p: p.seq)] == [False, False, True]


def _spy_data(host, seen):
    """Record the DATA packets delivered to ``host``."""

    def tap(packet, iface_index):
        if packet.kind is PacketKind.DATA:
            seen.append(packet)

    tap_deliveries(host, tap)


class ReferenceNic:
    """The NIC's transmit rule written plainly: an oracle for ``NicScheduler``.

    Head size and eligibility are separate questions asked of the flow state,
    and the pacing wake-up after a fruitless selection is a second pass over
    every flow.  ``NicScheduler`` answers both in one probe and gathers the
    wake-up time during the DRR scan; :meth:`install` swaps this oracle in for
    a host's ``dequeue`` so the two can be run side by side.
    """

    def __init__(self, host):
        self.host = host
        self.nic = host.nic
        self.now = 0

    def install(self):
        self.nic.dequeue = self.dequeue

    def head_size(self, fstate):
        retransmit = fstate.retransmit_queue
        if retransmit:
            seq = retransmit[0]
        elif fstate.next_seq < fstate.num_packets:
            seq = fstate.next_seq
        else:
            return None
        return fstate.packet_payload(seq) + DATA_HEADER_SIZE

    def within_window(self, fstate):
        if fstate.retransmit_queue:
            return True  # retransmissions do not grow the in-flight window
        window = self.host.effective_window(fstate)
        return window is None or fstate.inflight_bytes() + self.host.config.mtu <= window

    def sendable_but_for_pacing(self, fstate):
        return (
            self.head_size(fstate) is not None
            and not fstate.paused
            and self.within_window(fstate)
        )

    def eligible(self, fstate, now_ns):
        return self.sendable_but_for_pacing(fstate) and fstate.next_allowed_ns <= now_ns

    def blocked_only_by_pacing(self, fstate, now_ns):
        return self.sendable_but_for_pacing(fstate) and fstate.next_allowed_ns > now_ns

    def probe(self, flow_id):
        fstate = self.nic._flows[flow_id]
        size = self.head_size(fstate)
        if size is None:
            return None
        return size if self.eligible(fstate, self.now) else BLOCKED

    def dequeue(self):
        self.now = now = self.host.sim.now
        flow_id = self.nic._drr.select(self.probe)
        if flow_id is None:
            self.schedule_wakeup(now)
            return None
        return self.host.build_data_packet(self.nic._flows[flow_id])

    def schedule_wakeup(self, now_ns):
        """If flows are blocked purely on pacing, wake the port at the earliest timer."""
        timers = [
            fstate.next_allowed_ns
            for fstate in self.nic._flows.values()
            if self.blocked_only_by_pacing(fstate, now_ns)
        ]
        if timers:
            self.nic._arm_wakeup(min(timers))


class UnevenRateControl(WindowedCongestionControl):
    """Paces each flow at 1/2, 1/3 or 1/4 of line rate under a window.

    Pacing and window both bind, and a host's flows wake at different times.
    """

    def rate_bps(self, fstate):
        return self.line_rate_bps / (2 + fstate.flow.flow_id % 3)


class TestDequeueMatchesReferenceNic:
    """``NicScheduler.dequeue`` sends exactly what ``ReferenceNic`` would.

    Each scenario runs twice — once through the NIC's own probe, once through
    the oracle — and the two runs must deliver the same data packets at the
    same instants and process the same number of events.
    """

    #: Competing flows from two senders to one receiver, staggered starts:
    #: ``(start_ns, src, dst, size)``.
    FLOWS = ((0, 0, 2, 12_000), (0, 1, 2, 8_000), (2_000, 0, 2, 5_500))

    def _run_scenario(self, sim_class, use_reference, cc_factory=None, config=None, flows=FLOWS):
        from repro.sim.flow import reset_flow_ids

        reset_flow_ids()
        sim = sim_class(seed=42)
        hosts, switch, registry = build_pair(
            sim, num_hosts=3, cc_factory=cc_factory, host_config=config
        )
        if use_reference:
            for host in hosts:
                ReferenceNic(host).install()
        seen = []
        for i, host in enumerate(hosts):

            def spy(packet, iface_index, _hid=i):
                if packet.kind is PacketKind.DATA:
                    seen.append((sim.now, _hid, packet.flow_id, packet.seq))

            tap_deliveries(host, spy)
        for start_ns, src, dst, size in flows:
            flow = Flow(src=src, dst=dst, size=size, start_ns=0)
            if start_ns:
                sim.schedule(start_ns, hosts[src].start_flow, flow)
            else:
                hosts[src].start_flow(flow)
        sim.run(until=units.microseconds(200))
        return seen, sim.events_processed

    def test_line_rate_and_windowed_cc_match_reference(self, sim):
        for cc_factory in (
            None,  # windowless fast path (_no_window True)
            lambda rate: WindowedCongestionControl(rate, window_bytes=3_000),
        ):
            probed = self._run_scenario(type(sim), False, cc_factory=cc_factory)
            reference = self._run_scenario(type(sim), True, cc_factory=cc_factory)
            assert probed == reference

    def test_paced_flows_wake_as_the_reference_does(self, sim):
        # Four flows share host 0's NIC, each paced at its own rate.
        flows = (
            (0, 0, 2, 40_000),
            (0, 0, 1, 30_000),
            (700, 0, 2, 20_000),
            (1_300, 0, 1, 25_000),
            (0, 1, 2, 20_000),
        )
        cc_factory = lambda rate: UnevenRateControl(rate, window_bytes=6_000)
        probed = self._run_scenario(type(sim), False, cc_factory=cc_factory, flows=flows)
        assert probed == self._run_scenario(type(sim), True, cc_factory=cc_factory, flows=flows)
        assert len(probed[0]) == 135  # every data packet of every flow


class TestWindowlessDetection:
    def test_subclass_overriding_window_bytes_is_not_fast_pathed(self):
        from repro.sim.host import CongestionControl, _cc_is_windowless

        class SneakyWindow(CongestionControl):
            # Overrides window_bytes without restating has_window: must be
            # conservatively treated as windowed.
            def window_bytes(self, fstate):
                return 64_000

        class DeclaredWindowless(CongestionControl):
            has_window = False

            def window_bytes(self, fstate):
                return None

        assert _cc_is_windowless(CongestionControl(1e9))
        assert not _cc_is_windowless(SneakyWindow(1e9))
        assert _cc_is_windowless(DeclaredWindowless(1e9))
        assert not _cc_is_windowless(WindowedCongestionControl(1e9, 1_000))

    def test_dcqcn_keeps_fast_path_and_hpcc_does_not(self):
        from repro.congestion.dcqcn import DcqcnControl, DcqcnWindowedControl
        from repro.congestion.hpcc import HpccControl
        from repro.sim.host import _cc_is_windowless

        assert _cc_is_windowless(DcqcnControl(1e9))
        assert not _cc_is_windowless(DcqcnWindowedControl(1e9, window_bytes=1_000))
        assert not _cc_is_windowless(HpccControl(1e9))
