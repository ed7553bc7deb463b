"""Per-packet NIC dequeue: what the wire carries, packet by packet.

A host NIC hands its egress port exactly one packet per scheduling decision,
re-running the full scheduler scan (DRR rotation, pause filter, pacing) at
every packet boundary.  These tests pin what that path guarantees end to
end:

* every packet of every flow is delivered exactly once and in order, with
  backlogged flows interleaved packet by packet and a newly started flow
  joining the rotation within one round;
* a PFC pause or a BFC Bloom pause that lands mid-flow stops the flow at the
  next packet boundary, and the resume delivers the rest without loss;
* a control frame queued mid-flow leaves at the next packet boundary, ahead
  of every data packet still waiting;
* the delivery schedule repeats exactly from run to run;
* a flow that has sent everything and waits for ACKs costs the scan nothing,
  and each way it can get data back (a selective NACK, a Go-Back-N rewind, a
  retransmission timeout) sends it again to completion.

Every test runs on both forwarding planes.
"""

from __future__ import annotations

import pytest

from repro.sim import units
from repro.sim.flow import Flow, reset_flow_ids
from repro.sim.host import Host, HostConfig
from repro.sim.packet import DATA_HEADER_SIZE, PacketKind
from repro.sim.port import connect
from repro.sim.tracing import tap_deliveries

from test_bfc_nic import SinkNode, bloom_frame, make_host
from test_host import build_pair, force_drops


@pytest.fixture
def sim(plane_sim):
    return plane_sim


#: Serialization time of one full data packet (1000-byte MTU plus header)
#: on the 10 Gbps links both topologies use.
PACKET_NS = units.transmission_time_ns(1_000 + DATA_HEADER_SIZE, units.gbps(10))

#: Uplink start to receiver arrival in the fan-out topology: two 1 us hops,
#: each serializing the packet once.
HOPS_NS = 2 * PACKET_NS + 2 * 1_000


def _spy_all_hosts(sim, hosts):
    seen = []
    for i, host in enumerate(hosts):

        def spy(packet, iface_index, _hid=i):
            if packet.kind is PacketKind.DATA:
                seen.append((sim.now, _hid, packet.flow_id, packet.seq))

        tap_deliveries(host, spy)
    return seen


def _run_fan_out(sim_class, staggered=False):
    """Host 0 sends to hosts 1 and 2 over one uplink; returns the delivery log."""
    reset_flow_ids()
    sim = sim_class(seed=42)
    hosts, _, _ = build_pair(
        sim, num_hosts=3, host_config=HostConfig(mtu=1_000)
    )
    seen = _spy_all_hosts(sim, hosts)
    flows = [
        Flow(src=0, dst=1, size=30_000, start_ns=0),
        Flow(src=0, dst=2, size=18_000, start_ns=0),
    ]
    for flow in flows:
        hosts[0].start_flow(flow)
    if staggered:
        late = Flow(src=0, dst=2, size=9_000, start_ns=0, src_port=7)
        flows.append(late)
        sim.schedule(3_500, hosts[0].start_flow, late)
    sim.run(until=units.microseconds(300))
    return seen, sim.events_processed, flows


class TestFanOutFromOneNic:
    def test_every_packet_delivered_once_in_order_per_flow(self, sim):
        seen, _, flows = _run_fan_out(type(sim))
        for flow in flows:
            seqs = [seq for _, _, fid, seq in seen if fid == flow.flow_id]
            assert seqs == list(range(flow.num_packets))
            assert flow.completed

    def test_backlogged_flows_share_the_uplink_packet_by_packet(self, sim):
        seen, _, flows = _run_fan_out(type(sim))
        long, short = flows
        # Both receivers sit one switch hop away over identical links, so
        # arrival order is the order the NIC put packets on the uplink.
        order = [fid for _, _, fid, _ in sorted(seen)]
        last_short = max(i for i, fid in enumerate(order) if fid == short.flow_id)
        # Round robin: while both are backlogged, neither flow ever gets more
        # than one packet ahead of the other (the first decision predates the
        # second flow, hence the slack of two).
        lead = 0
        for fid in order[: last_short + 1]:
            lead += 1 if fid == long.flow_id else -1
            assert abs(lead) <= 2, order
        # Once the short flow is done the long one has the line to itself.
        assert set(order[last_short + 1:]) == {long.flow_id}

    def test_flow_started_mid_run_joins_within_one_round(self, sim):
        seen, _, flows = _run_fan_out(type(sim), staggered=True)
        late = flows[2]
        late_times = [t for t, _, fid, _ in seen if fid == late.flow_id]
        assert len(late_times) == late.num_packets
        # Started at 3.5 us behind two backlogged flows: its first packet
        # starts serializing within one round (three packet slots).
        assert min(late_times) - HOPS_NS <= 3_500 + 3 * PACKET_NS
        # It shares the line from then on instead of waiting for the others.
        others_last = max(t for t, _, fid, _ in seen if fid != late.flow_id)
        assert max(late_times) < others_last

    def test_delivery_schedule_repeats_run_to_run(self, sim):
        first, first_events, _ = _run_fan_out(type(sim), staggered=True)
        second, second_events, _ = _run_fan_out(type(sim), staggered=True)
        assert first == second
        assert first_events == second_events


class TestMidFlowInterruptions:
    FLOW_BYTES = 40_000

    def _start_big_flow(self, sim):
        host, sink, config = make_host(
            sim, host_config=HostConfig(mtu=1_000, mark_first_packet=True)
        )
        flow = Flow(src=0, dst=5, size=self.FLOW_BYTES, start_ns=0)
        host.start_flow(flow)
        # A few packets are out; the rest are still queued at the NIC.
        sim.run(until=units.microseconds(3))
        return host, sink, config, flow

    @staticmethod
    def _data(sink):
        return [(t, p.seq) for t, p in sink.received if p.kind is PacketKind.DATA]

    def test_pfc_pause_opens_a_gap_and_resume_completes(self, sim):
        host, sink, _, _ = self._start_big_flow(sim)
        port = host._uplink_port
        paused_at = sim.now
        port.set_pfc_paused(True)
        sim.schedule(30_000, port.set_pfc_paused, False)
        sim.run(until=units.microseconds(200))
        data = self._data(sink)
        assert [seq for _, seq in data] == list(range(40))
        # At most the packet already on the wire lands during the pause.
        during = [t for t, _ in data if paused_at + PACKET_NS + 1_000 < t
                  <= paused_at + 30_000]
        assert during == []
        times = [t for t, _ in data]
        assert max(b - a for a, b in zip(times, times[1:])) >= 25_000

    def test_bloom_pause_stops_at_the_next_boundary_and_resume_completes(self, sim):
        host, sink, config, flow = self._start_big_flow(sim)
        codec = host.nic.codec
        vfid = flow.key().vfid(config.num_vfids)
        before = len(self._data(sink))
        host.handle_packet(bloom_frame(codec, [vfid]), 0)
        assert host.nic.paused_flow_count() == 1
        sim.run(until=sim.now + 20_000)
        # Only what was already serializing or propagating got through.
        assert len(self._data(sink)) - before <= 2
        host.handle_packet(bloom_frame(codec, []), 0)
        assert host.nic.paused_flow_count() == 0
        sim.run(until=units.microseconds(200))
        assert [seq for _, seq in self._data(sink)] == list(range(40))

    def test_control_frame_overtakes_queued_data(self, sim):
        host, sink, _, _ = self._start_big_flow(sim)
        port = host._uplink_port
        queued_at = sim.now
        port.send_control(bloom_frame(host.nic.codec, []))
        sim.run(until=units.microseconds(200))
        control_time = next(
            t for t, p in sink.received if p.kind is PacketKind.BLOOM
        )
        data = self._data(sink)
        # Strict priority: the frame leaves as soon as the packet on the wire
        # finishes, so every data packet that beats it had started
        # serializing before it was queued.
        one_hop_ns = PACKET_NS + 1_000
        assert all(t - one_hop_ns < queued_at for t, _ in data if t < control_time)
        assert control_time <= queued_at + PACKET_NS + one_hop_ns
        assert [seq for _, seq in data] == list(range(40))


class TestDrainedFlowsLeaveTheScan:
    """Flows waiting only for ACKs are parked: the scan does not probe them."""

    @staticmethod
    def _probe_and_dequeue_calls(sim_class, drained):
        """Calls while one live flow sends beside ``drained`` sent-out flows."""
        sim = sim_class(seed=42)
        host = Host(sim, "h0", host_id=0, config=HostConfig(mtu=1_000))
        # The sink never ACKs: a one-packet flow has sent everything after
        # its first packet and waits (its timeout is 2 ms away) from then on.
        connect(host, SinkNode(sim, "sink"), rate_bps=units.gbps(10), delay_ns=1_000)
        waiting = [
            host.start_flow(Flow(src=0, dst=1, size=1_000, start_ns=0, src_port=i))
            for i in range(drained)
        ]
        sim.run(until=drained * PACKET_NS + 10_000)
        assert all(f.next_seq == f.num_packets and f.una == 0 for f in waiting)
        nic = host.nic
        calls = {"probe": 0, "dequeue": 0}
        probe, dequeue = nic._probe, nic.dequeue

        def counted_probe(flow_id):
            calls["probe"] += 1
            return probe(flow_id)

        def counted_dequeue():
            calls["dequeue"] += 1
            return dequeue()

        nic._probe, nic.dequeue = counted_probe, counted_dequeue
        live = host.start_flow(Flow(src=0, dst=1, size=40_000, start_ns=0, src_port=drained))
        sim.run(until=sim.now + 30 * PACKET_NS)
        assert 25 <= live.next_seq < live.num_packets
        return calls

    def test_probes_per_dequeue_do_not_grow_with_waiting_flows(self, sim):
        one = self._probe_and_dequeue_calls(type(sim), 1)
        many = self._probe_and_dequeue_calls(type(sim), 500)
        assert one == many
        assert one["probe"] <= 2 * one["dequeue"] + 1


class TestDrainedFlowsAreRevived:
    """Each revive site puts a flow that had sent everything back in the round.

    A three-packet flow loses one packet.  By the time the loss is noticed
    the flow has sent its last packet and its probe has parked it; the revive
    must make the NIC send again, with no other recovery to fall back on.
    """

    def _run(self, sim_class, config, lost_seq):
        reset_flow_ids()
        sim = sim_class(seed=42)
        hosts, switch, _ = build_pair(sim, host_config=config)
        dropped = force_drops(switch, lambda p: p.seq == lost_seq and not dropped)
        sender = hosts[0]
        nic = sender.nic
        parked_at_revive = []
        revive = nic.revive

        def spy_revive(fstate):
            parked_at_revive.append(
                fstate.flow.flow_id not in nic._drr.unparked_queues()
            )
            revive(fstate)

        nic.revive = spy_revive
        flow = Flow(src=0, dst=1, size=3_000, start_ns=0)
        sender.start_flow(flow)
        sim.run(until=units.microseconds(200))
        assert len(dropped) == 1
        return flow, sender, parked_at_revive

    def test_selective_nack_sends_a_drained_flow_again(self, sim):
        config = HostConfig(loss_recovery="selective-repeat", rto_ns=0)
        flow, sender, parked = self._run(type(sim), config, lost_seq=1)
        assert parked == [True]
        assert flow.completed
        assert sender.counters.get("selective_retransmissions") == 1

    def test_go_back_n_rewind_sends_a_drained_flow_again(self, sim):
        flow, sender, parked = self._run(type(sim), HostConfig(rto_ns=0), lost_seq=1)
        assert parked == [True]
        assert flow.completed
        assert sender.counters.get("go_back_n_rewinds") == 1

    def test_timeout_rewind_sends_a_drained_flow_again(self, sim):
        # The tail is lost, so no later packet makes the receiver NACK.
        config = HostConfig(rto_ns=50_000)
        flow, sender, parked = self._run(type(sim), config, lost_seq=2)
        assert parked == [True]
        assert flow.completed
        assert sender.counters.get("rto_rewinds") == 1

    def test_a_replaced_state_is_not_revived(self, sim):
        # A flow restarted under its id replaces its state; the old state's
        # timeout can still fire after the new one has finished.
        host = Host(sim, "h0", host_id=0, config=HostConfig(mtu=1_000))
        connect(host, SinkNode(sim, "sink"), rate_bps=units.gbps(10), delay_ns=1_000)
        flow = Flow(src=0, dst=1, size=2_000, start_ns=0)
        old = host.start_flow(flow)
        sim.run(until=10_000)
        host.start_flow(flow)
        host.nic.remove_flow(flow.flow_id)
        host.nic.revive(old)
        assert flow.flow_id not in host.nic._drr.active_queues()
        other = host.start_flow(Flow(src=0, dst=1, size=3_000, start_ns=0, src_port=1))
        sim.run(until=20_000)
        assert other.next_seq == other.num_packets
