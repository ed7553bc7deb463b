"""Tests for IRN-style selective-repeat loss recovery (HostConfig.loss_recovery).

The BFC paper's related-work section discusses replacing Go-Back-N with
selective retransmission (IRN); this optional mode implements it: the
receiver buffers out-of-order packets and the sender retransmits only what is
missing.  Every test runs on both forwarding planes: on the compiled one the
go-back-N receive path is C, and selective repeat calls back into Python.
"""

import pytest

from repro.sim import units
from repro.sim.buffer import PfcPolicy
from repro.sim.flow import Flow
from repro.sim.host import HostConfig

from tests.test_host import build_pair, force_drops


@pytest.fixture
def sim(plane_sim):
    return plane_sim


def sr_config(**overrides):
    defaults = dict(loss_recovery="selective-repeat", rto_ns=units.microseconds(200))
    defaults.update(overrides)
    return HostConfig(**defaults)


class TestConfig:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            HostConfig(loss_recovery="hope-for-the-best")

    def test_default_is_go_back_n(self):
        assert HostConfig().loss_recovery == "go-back-n"


class TestSingleLoss:
    def test_single_loss_recovered_without_rewind(self, sim):
        hosts, switch, _ = build_pair(sim, host_config=sr_config())
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
        # Exactly one packet is retransmitted — no Go-Back-N rewind.
        assert flow.retransmitted_packets == 1
        assert hosts[0].counters.get("go_back_n_rewinds") == 0
        assert hosts[0].counters.get("selective_retransmissions") == 1

    def test_gbn_retransmits_more_than_selective_repeat(self, sim):
        """The headline benefit of IRN: far fewer retransmitted packets."""

        def run(mode):
            local_sim = type(sim)(seed=5)
            hosts, switch, _ = build_pair(
                local_sim,
                host_config=HostConfig(loss_recovery=mode, rto_ns=units.microseconds(200)),
            )
            force_drops(
                switch,
                lambda p, seen=[]: p.seq == 5 and not seen and seen.append(1) is None,
            )
            flow = Flow(src=0, dst=1, size=40_000, start_ns=0)
            hosts[0].start_flow(flow)
            local_sim.run(until=units.milliseconds(2))
            assert flow.completed
            return flow.retransmitted_packets

        gbn = run("go-back-n")
        irn = run("selective-repeat")
        assert irn == 1
        assert gbn > irn

    def test_tail_loss_recovered_by_rto(self, sim):
        hosts, switch, _ = build_pair(sim, host_config=sr_config(rto_ns=units.microseconds(100)))
        last_seq = 29
        dropped = force_drops(
            switch,
            lambda p, seen=[]: p.seq == last_seq and not seen and seen.append(1) is None,
        )
        flow = Flow(src=0, dst=1, size=30_000, start_ns=0)
        hosts[0].start_flow(flow)
        sim.run(until=units.milliseconds(2))
        assert len(dropped) == 1
        assert flow.completed
        assert hosts[0].counters.get("rto_rewinds") >= 1


class TestHeavyLoss:
    def test_overloaded_switch_still_completes(self, sim):
        config = sr_config(window_cap_bytes=12_500)
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
        assert all(f.bytes_delivered == 40_000 for f in flows)

    def test_out_of_order_data_is_buffered_not_discarded(self, sim):
        """After a single loss, the packets that followed the lost one must
        not be retransmitted (they were buffered at the receiver)."""
        hosts, switch, _ = build_pair(sim, host_config=sr_config())
        force_drops(
            switch,
            lambda p, seen=[]: p.seq == 3 and not seen and seen.append(1) is None,
        )
        flow = Flow(src=0, dst=1, size=20_000, start_ns=0)
        hosts[0].start_flow(flow)
        sim.run(until=units.milliseconds(1))
        assert flow.completed
        # 20 data packets + 1 retransmission of seq 3.
        assert hosts[0].counters.get("data_packets_sent") == 21
