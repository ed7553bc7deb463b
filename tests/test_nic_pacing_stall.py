"""Regression test for the NIC pacing wake-up's stale-handle bug.

The seed kernel's ``_arm_wakeup`` kept a reference to the last pacing
wake-up event and skipped re-arming when that handle's ``time`` was not
later than the new deadline — but a *fired* handle is never cancelled
(``cancelled`` is sticky-False) and its time lies in the past, so it always
looked "good enough".  A flow blocked purely on pacing (congestion-control
rate below line rate, no window) therefore got exactly one wake-up and then
stalled forever unless unrelated traffic kicked the port.

The fix treats ``handle.time <= now`` as dead and re-arms; this test pins
the repaired behaviour.  (It started life as a strict xfail documenting the
bug; the fix landed alongside the event-fusion work, so a regression now
fails outright.)
"""

from repro.sim.engine import Simulator
from repro.sim.flow import Flow, reset_flow_ids
from repro.sim.host import CongestionControl, Host, HostConfig
from repro.sim.port import connect
from repro.sim import units


class QuarterRateControl(CongestionControl):
    """Windowless congestion control pacing at a quarter of line rate."""

    name = "quarter-rate"

    def rate_bps(self, fstate):
        return self.line_rate_bps / 4


def build_host_pair(cc_factory=None):
    reset_flow_ids()
    sim = Simulator(seed=1)
    registry = {}
    sender = Host(
        sim, "sender", 0, HostConfig(mtu=1000), cc_factory, flow_registry=registry
    )
    receiver = Host(sim, "receiver", 1, HostConfig(mtu=1000), flow_registry=registry)
    connect(sender, receiver, rate_bps=units.gbps(10), delay_ns=1_000)
    return sim, sender, registry


def test_lone_paced_flow_completes():
    sim, sender, registry = build_host_pair(lambda rate: QuarterRateControl(rate))
    flow = Flow(src=0, dst=1, size=10_000, start_ns=0)
    registry[flow.flow_id] = flow
    sender.start_flow(flow)
    # 10 MTU packets at 2.5 Gbps effective rate need ~35 us; leave a wide
    # margin (including several RTO periods, which do not help: the rewind
    # path sees zero inflight packets and does not re-kick pacing).
    sim.run(until=units.milliseconds(20))
    assert flow.finish_ns is not None, "flow stalled on the pacing wake-up"


def test_line_rate_flow_completes():
    """Control case: without pacing gaps the same flow finishes quickly."""
    sim, sender, registry = build_host_pair()
    flow = Flow(src=0, dst=1, size=10_000, start_ns=0)
    registry[flow.flow_id] = flow
    sender.start_flow(flow)
    sim.run(until=units.milliseconds(20))
    assert flow.finish_ns is not None
