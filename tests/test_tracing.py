"""Tests for the optional event-tracing utilities."""

from repro.sim import units
from repro.sim.flow import Flow
from repro.sim.packet import FlowKey, Packet, PacketKind
from repro.sim.tracing import (
    EventTrace,
    attach_flow_probe,
    build_flow_timelines,
)

from tests.test_host import build_pair, force_drops


def make_packet(flow_id=1, seq=0):
    return Packet(
        kind=PacketKind.DATA,
        flow_id=flow_id,
        key=FlowKey(src=1, dst=2, src_port=flow_id, dst_port=4791),
        size=1_000,
        seq=seq,
    )


class TestEventTrace:
    def test_record_and_query(self):
        trace = EventTrace()
        trace.record(100, "nic.tx", "h0", make_packet(flow_id=1, seq=0))
        trace.record(200, "host.deliver", "h1", make_packet(flow_id=1, seq=0))
        trace.record(300, "nic.tx", "h0", make_packet(flow_id=2, seq=0))
        assert len(trace) == 3
        assert len(trace.for_flow(1)) == 2
        assert len(trace.by_category("nic.tx")) == 2
        assert trace.categories() == {"nic.tx": 2, "host.deliver": 1}

    def test_first_matching(self):
        trace = EventTrace()
        trace.record(10, "a", "n", make_packet(seq=0))
        trace.record(20, "b", "n", make_packet(seq=1))
        found = trace.first(lambda e: e.category == "b")
        assert found is not None and found.time_ns == 20
        assert trace.first(lambda e: e.category == "zzz") is None

    def test_capacity_limit(self):
        trace = EventTrace(capacity=2)
        for i in range(5):
            trace.record(i, "x", "n", make_packet(seq=i))
        assert len(trace) == 2
        assert trace.truncated

    def test_events_without_packet(self):
        trace = EventTrace()
        trace.record(5, "note", "switch0", detail="pfc pause")
        assert trace.events[0].flow_id == -1
        assert trace.events[0].detail == "pfc pause"

    def test_json_roundtrip(self, tmp_path):
        trace = EventTrace()
        trace.record(1, "nic.tx", "h0", make_packet())
        path = tmp_path / "trace.json"
        trace.save(str(path))
        loaded = EventTrace.load(str(path))
        assert len(loaded) == 1
        assert loaded.events[0].category == "nic.tx"
        assert loaded.events[0].time_ns == 1

    def test_roundtrip_preserves_capacity_and_truncated(self, tmp_path):
        trace = EventTrace(capacity=2)
        for i in range(5):
            trace.record(i, "x", "n", make_packet(seq=i))
        assert trace.truncated
        path = tmp_path / "trace.json"
        trace.save(str(path))
        loaded = EventTrace.load(str(path))
        assert loaded.capacity == 2
        assert loaded.truncated is True
        assert len(loaded) == 2
        # The restored collector keeps enforcing its capacity.
        loaded.record(99, "x", "n", make_packet(seq=99))
        assert len(loaded) == 2

    def test_roundtrip_preserves_untruncated_state(self, tmp_path):
        trace = EventTrace()
        trace.record(1, "x", "n", make_packet())
        path = tmp_path / "trace.json"
        trace.save(str(path))
        loaded = EventTrace.load(str(path))
        assert loaded.capacity is None
        assert loaded.truncated is False

    def test_load_accepts_legacy_bare_list(self, tmp_path):
        import json as _json

        path = tmp_path / "legacy.json"
        legacy = [
            {
                "time_ns": 7,
                "category": "nic.tx",
                "node": "h0",
                "flow_id": 1,
                "seq": 0,
                "kind": "data",
                "detail": "",
            }
        ]
        path.write_text(_json.dumps(legacy), encoding="ascii")
        loaded = EventTrace.load(str(path))
        assert len(loaded) == 1
        assert loaded.capacity is None
        assert loaded.truncated is False
        assert loaded.events[0].time_ns == 7


class TestFlowTimelines:
    def test_timeline_from_manual_events(self):
        trace = EventTrace()
        trace.record(100, "nic.tx", "h0", make_packet(seq=0))
        trace.record(150, "nic.tx", "h0", make_packet(seq=1))
        trace.record(300, "host.deliver", "h1", make_packet(seq=0))
        trace.record(400, "host.deliver", "h1", make_packet(seq=1))
        timelines = build_flow_timelines(trace)
        timeline = timelines[1]
        assert timeline.packets_sent == 2
        assert timeline.packets_delivered == 2
        assert timeline.first_tx_ns == 100
        assert timeline.last_delivery_ns == 400
        assert timeline.network_time_ns() == 300

    def test_probe_on_live_simulation(self, sim):
        hosts, _, _ = build_pair(sim)
        trace = EventTrace()
        attach_flow_probe(hosts[0], hosts[1], trace)
        flow = Flow(src=0, dst=1, size=5_000, start_ns=0)
        hosts[0].start_flow(flow)
        sim.run(until=units.microseconds(100))
        timelines = build_flow_timelines(trace)
        timeline = timelines[flow.flow_id]
        assert timeline.packets_sent == 5
        assert timeline.packets_delivered == 5
        assert timeline.network_time_ns() > 0

    def test_probe_records_every_delivery_of_the_flow(self, sim):
        """Retransmitted copies included: the count the receiver itself keeps."""
        hosts, switch, _ = build_pair(sim)
        dropped = force_drops(switch, lambda p: p.seq == 2 and not dropped)
        trace = EventTrace()
        attach_flow_probe(hosts[0], hosts[1], trace)
        flow = Flow(src=0, dst=1, size=8_000, start_ns=0)
        hosts[0].start_flow(flow)
        sim.run(until=units.microseconds(200))
        assert flow.completed and len(dropped) == 1
        delivered = trace.by_category("host.deliver")
        assert len(delivered) == hosts[1].counters.get("data_packets_received")
        assert len(delivered) > flow.num_packets  # the Go-Back-N resend
        assert {event.seq for event in delivered} == set(range(flow.num_packets))
        assert delivered[-1].time_ns == flow.finish_ns

    def test_probe_filters_by_flow_id(self, sim):
        hosts, _, _ = build_pair(sim)
        trace = EventTrace()
        watched = Flow(src=0, dst=1, size=2_000, start_ns=0, src_port=1)
        ignored = Flow(src=0, dst=1, size=2_000, start_ns=0, src_port=2)
        attach_flow_probe(hosts[0], hosts[1], trace, flow_ids=[watched.flow_id])
        hosts[0].start_flow(watched)
        hosts[0].start_flow(ignored)
        sim.run(until=units.microseconds(100))
        assert trace.for_flow(watched.flow_id)
        assert not trace.for_flow(ignored.flow_id)
