"""Unit tests for the DCQCN rate-control state machine, on both planes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planes import DCQCN_CLASSES
from repro.congestion.dcqcn import (
    DcqcnConfig,
    DcqcnControl,
    DcqcnWindowedControl,
    _DcqcnFlow,
)
from repro.sim import units
from repro.sim.flow import Flow
from repro.sim.host import SenderFlowState
from repro.sim.packet import FlowKey, Packet, PacketKind


LINE_RATE = units.gbps(10)


def make_fstate() -> SenderFlowState:
    return SenderFlowState(Flow(src=0, dst=1, size=1_000_000, start_ns=0), mtu=1000)


def make_packet(size=1048) -> Packet:
    return Packet(
        kind=PacketKind.DATA,
        flow_id=1,
        key=FlowKey(src=0, dst=1, src_port=1, dst_port=2),
        size=size,
    )


@pytest.fixture(params=DCQCN_CLASSES)
def planes(request):
    """Each plane's DcqcnControl and DcqcnWindowedControl."""
    return request.param


class TestConfig:
    def test_default_config_valid(self):
        DcqcnConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("g", 0.0),
            ("g", 2.0),
            ("alpha_timer_ns", 0),
            ("increase_timer_ns", -1),
            ("byte_counter_bytes", 0),
            ("fast_recovery_rounds", 0),
        ],
    )
    def test_invalid_configs_rejected(self, field, value):
        config = DcqcnConfig(**{field: value})
        with pytest.raises(ValueError):
            config.validate()


class TestRateDecrease:
    def test_flow_starts_at_line_rate(self, planes):
        cc = planes.DcqcnControl(LINE_RATE)
        fstate = make_fstate()
        cc.on_flow_start(fstate, 0)
        assert cc.rate_bps(fstate) == LINE_RATE

    def test_cnp_cuts_rate(self, planes):
        cc = planes.DcqcnControl(LINE_RATE)
        fstate = make_fstate()
        cc.on_flow_start(fstate, 0)
        cc.on_cnp(fstate, 1_000)
        # alpha starts at 1.0, so the first CNP halves the rate.
        assert cc.rate_bps(fstate) == pytest.approx(LINE_RATE / 2, rel=0.01)

    def test_repeated_cnps_keep_cutting(self, planes):
        cc = planes.DcqcnControl(LINE_RATE)
        fstate = make_fstate()
        cc.on_flow_start(fstate, 0)
        previous = cc.rate_bps(fstate)
        for i in range(5):
            cc.on_cnp(fstate, (i + 1) * 1_000)
            current = cc.rate_bps(fstate)
            assert current < previous
            previous = current

    def test_rate_never_below_minimum(self, planes):
        cc = planes.DcqcnControl(LINE_RATE, DcqcnConfig(min_rate_fraction=0.01))
        fstate = make_fstate()
        cc.on_flow_start(fstate, 0)
        for i in range(100):
            cc.on_cnp(fstate, (i + 1) * 1_000)
        assert cc.rate_bps(fstate) >= 0.01 * LINE_RATE

    def test_alpha_increases_on_cnp(self, planes):
        cc = planes.DcqcnControl(LINE_RATE, DcqcnConfig(initial_alpha=0.5))
        fstate = make_fstate()
        cc.on_flow_start(fstate, 0)
        before = cc.current_alpha(fstate, 0)
        cc.on_cnp(fstate, 1_000)
        after = cc.current_alpha(fstate, 1_000)
        assert after > before * (1 - cc.config.g)


class TestAlphaDecay:
    def test_alpha_decays_without_cnps(self, planes):
        cc = planes.DcqcnControl(LINE_RATE)
        fstate = make_fstate()
        cc.on_flow_start(fstate, 0)
        cc.on_cnp(fstate, 0)
        alpha_early = cc.current_alpha(fstate, 10_000)
        alpha_late = cc.current_alpha(fstate, 200_000_000)  # 200 ms without CNPs
        assert alpha_late < alpha_early
        assert alpha_late < 0.1

    def test_decay_follows_geometric_form(self, planes):
        config = DcqcnConfig(g=1 / 256, alpha_timer_ns=55_000)
        cc = planes.DcqcnControl(LINE_RATE, config)
        fstate = make_fstate()
        cc.on_flow_start(fstate, 0)
        cc.on_cnp(fstate, 0)
        alpha_at_cnp = 1.0  # alpha right after the first CNP: (1-g)*1 + g = 1
        periods = 10
        expected = alpha_at_cnp * (1 - config.g) ** periods
        measured = cc.current_alpha(fstate, periods * 55_000)
        assert measured == pytest.approx(expected, rel=0.01)


class TestRateRecovery:
    def test_rate_recovers_after_congestion_clears(self, planes):
        cc = planes.DcqcnControl(LINE_RATE)
        fstate = make_fstate()
        cc.on_flow_start(fstate, 0)
        cc.on_cnp(fstate, 0)
        low = cc.current_rate(fstate, 1_000)
        recovered = cc.current_rate(fstate, 50_000_000)  # 50 ms without CNPs
        assert recovered > low
        assert recovered == pytest.approx(LINE_RATE, rel=0.05)

    def test_fast_recovery_moves_toward_target(self, planes):
        config = DcqcnConfig(increase_timer_ns=10_000)
        cc = planes.DcqcnControl(LINE_RATE, config)
        fstate = make_fstate()
        cc.on_flow_start(fstate, 0)
        cc.on_cnp(fstate, 0)
        # After one CNP, target = old rate (line rate), rate = half.  One
        # fast-recovery event should close half the gap.
        one_event = cc.current_rate(fstate, 10_500)
        assert one_event == pytest.approx(0.75 * LINE_RATE, rel=0.02)

    def test_byte_counter_drives_recovery(self, planes):
        config = DcqcnConfig(byte_counter_bytes=10_000, increase_timer_ns=10**12)
        cc = planes.DcqcnControl(LINE_RATE, config)
        fstate = make_fstate()
        cc.on_flow_start(fstate, 0)
        cc.on_cnp(fstate, 0)
        low = cc.rate_bps(fstate)
        for _ in range(20):
            cc.on_packet_sent(fstate, make_packet(), 1_000)
        assert cc.rate_bps(fstate) > low

    def test_recovery_does_not_exceed_line_rate(self, planes):
        cc = planes.DcqcnControl(LINE_RATE)
        fstate = make_fstate()
        cc.on_flow_start(fstate, 0)
        cc.on_cnp(fstate, 0)
        assert cc.current_rate(fstate, 10**9) <= LINE_RATE


class TestWindowedVariant:
    def test_window_is_reported(self, planes):
        cc = planes.DcqcnWindowedControl(LINE_RATE, window_bytes=12_500)
        fstate = make_fstate()
        assert cc.window_bytes(fstate) == 12_500

    def test_plain_dcqcn_has_no_window(self, planes):
        cc = planes.DcqcnControl(LINE_RATE)
        assert cc.window_bytes(make_fstate()) is None

    def test_invalid_window_rejected(self, planes):
        with pytest.raises(ValueError):
            planes.DcqcnWindowedControl(LINE_RATE, window_bytes=0)

    def test_windowed_variant_still_reacts_to_cnp(self, planes):
        cc = planes.DcqcnWindowedControl(LINE_RATE, window_bytes=12_500)
        fstate = make_fstate()
        cc.on_flow_start(fstate, 0)
        cc.on_cnp(fstate, 1_000)
        assert cc.rate_bps(fstate) < LINE_RATE


# ---------------------------------------------------------------------------
# The compiled twin against the Python reference, step by step
# ---------------------------------------------------------------------------

COMPILED = DCQCN_CLASSES[1].values[0]
compiled_only = pytest.mark.skipif(COMPILED is None, reason="compiled plane unavailable")


def sender_view(cc, fstate):
    """Everything one DCQCN sender keeps for one flow, and what it answers."""
    state = fstate.cc_state.get("dcqcn")
    fields = None if state is None else tuple(
        getattr(state, name) for name in _DcqcnFlow.__slots__
    )
    return fields, cc.rate_bps(fstate)


configs = st.builds(
    DcqcnConfig,
    g=st.sampled_from([1 / 256, 1 / 16, 0.5, 1.0]),
    alpha_timer_ns=st.integers(1, 80_000),
    increase_timer_ns=st.integers(1, 400_000),
    byte_counter_bytes=st.integers(1, 30_000),
    fast_recovery_rounds=st.integers(1, 6),
    rate_ai_fraction=st.sampled_from([0.0, 0.005, 0.2]),
    rate_hai_fraction=st.sampled_from([0.0, 0.05, 0.7]),
    min_rate_fraction=st.sampled_from([0.0, 0.001, 0.3]),
    initial_alpha=st.sampled_from([0.0, 0.5, 1.0, 1]),
)
steps = st.one_of(
    st.tuples(st.just("start")),
    st.tuples(st.just("send"), st.sampled_from([64, 1_048, 9_000])),
    st.tuples(st.just("cnp")),
    st.tuples(st.just("jump"), st.integers(0, 2_000_000)),
    st.tuples(st.just("query")),
)


@compiled_only
@given(
    config=configs,
    windowed=st.booleans(),
    line_rate=st.sampled_from([units.gbps(10), units.gbps(100), 25_000_000_000]),
    ops=st.lists(steps, max_size=60),
)
@settings(max_examples=300, deadline=None)
def test_random_sends_cnps_and_clock_jumps_keep_both_senders_in_step(
    config, windowed, line_rate, ops
):
    if windowed:
        senders = [DcqcnWindowedControl(line_rate, 12_500, config),
                   COMPILED.DcqcnWindowedControl(line_rate, 12_500, config)]
    else:
        senders = [DcqcnControl(line_rate, config), COMPILED.DcqcnControl(line_rate, config)]
    flows = [make_fstate(), make_fstate()]
    now = 0
    for op in ops:
        if op[0] == "jump":
            now += op[1]
            continue
        answers = []
        for cc, fstate in zip(senders, flows):
            if op[0] == "start":
                cc.on_flow_start(fstate, now)
            elif op[0] == "send":
                cc.on_packet_sent(fstate, make_packet(op[1]), now)
            elif op[0] == "cnp":
                cc.on_cnp(fstate, now)
            else:
                answers.append((cc.current_rate(fstate, now), cc.current_alpha(fstate, now)))
        assert answers[:1] == answers[1:], op
        assert sender_view(senders[1], flows[1]) == sender_view(senders[0], flows[0]), op


@compiled_only
def test_each_recovery_stage_steps_alike():
    # Three CNPs pull the target under the line rate; then every send is one
    # byte-counter event and one timer event, so the flow passes through fast
    # recovery, additive and hyper increase one step at a time.
    config = DcqcnConfig(byte_counter_bytes=1_000, increase_timer_ns=10_000,
                         fast_recovery_rounds=2, rate_ai_fraction=0.01,
                         rate_hai_fraction=0.1)
    senders = [DcqcnControl(LINE_RATE, config), COMPILED.DcqcnControl(LINE_RATE, config)]
    flows = [make_fstate(), make_fstate()]
    for cc, fstate in zip(senders, flows):
        cc.on_flow_start(fstate, 0)
        for now in range(3):
            cc.on_cnp(fstate, now)
    steps = []
    for k in range(1, 8):
        for cc, fstate in zip(senders, flows):
            cc.on_packet_sent(fstate, make_packet(1_000), 2 + k * 10_000)
        assert sender_view(senders[1], flows[1]) == sender_view(senders[0], flows[0]), k
        steps.append(flows[0].cc_state["dcqcn"].target_rate)
    # Per send, in units of the line rate: 0 in fast recovery, two additive
    # steps, one additive and one hyper step, two hyper steps.
    increments = [round((b - a) / LINE_RATE, 6) for a, b in zip(steps, steps[1:])]
    assert {0.0, 0.02 + 0.02, 0.01 + 0.1, 0.2} <= set(increments), increments


@compiled_only
def test_the_twin_keeps_its_state_in_c_and_the_python_methods_read_it():
    cc = COMPILED.DcqcnControl(LINE_RATE)
    fstate = make_fstate()
    cc.on_flow_start(fstate, 0)
    cc.on_cnp(fstate, 1_000)
    state = fstate.cc_state["dcqcn"]
    assert type(state).__name__ == "DcqcnFlow" and state.ever_decreased
    # The inherited Python query advances the C struct through its fields.
    assert cc.current_rate(fstate, 10**9) == pytest.approx(LINE_RATE, rel=0.05)
    # A flow the Python module started holds a _DcqcnFlow the twin refuses.
    mixed = make_fstate()
    DcqcnControl(LINE_RATE).on_flow_start(mixed, 0)
    with pytest.raises(TypeError, match="DcqcnFlow"):
        cc.on_cnp(mixed, 0)


@compiled_only
def test_only_a_dcqcn_that_keeps_its_hot_methods_gets_a_twin():
    from repro.sim import plane

    class Slower(DcqcnControl):
        def rate_bps(self, fstate):
            return super().rate_bps(fstate) / 2

    class Renamed(DcqcnControl):
        name = "renamed"

    plain = DcqcnControl(LINE_RATE)
    twin = plane.congestion_control(plain)
    assert isinstance(twin, plane.DcqcnControl) and twin is not plain
    assert (twin.line_rate_bps, twin.min_rate, twin.rate_ai, twin.rate_hai, twin.config) == (
        plain.line_rate_bps, plain.min_rate, plain.rate_ai, plain.rate_hai, plain.config)
    windowed = plane.congestion_control(DcqcnWindowedControl(LINE_RATE, 4_000))
    assert isinstance(windowed, plane.DcqcnWindowedControl) and windowed._window == 4_000
    assert type(plane.congestion_control(Renamed(LINE_RATE))).__bases__[0] is (
        plane._accelcore.DcqcnControl)
    slower = Slower(LINE_RATE)
    assert plane.congestion_control(slower) is slower
    float_timer = DcqcnControl(LINE_RATE, DcqcnConfig(alpha_timer_ns=55e3))
    assert plane.congestion_control(float_timer) is float_timer


@compiled_only
def test_the_twin_checks_its_config_once_when_it_is_set():
    cc = COMPILED.DcqcnControl(LINE_RATE)
    config = cc.config
    for bad, message in (
        (DcqcnConfig(alpha_timer_ns=0), "timers must be positive"),
        (DcqcnConfig(increase_timer_ns=-1), "timers must be positive"),
        (DcqcnConfig(byte_counter_bytes=0), "byte counter must be positive"),
    ):
        with pytest.raises(ValueError, match=message):
            cc.config = bad
        assert cc.config is config
    unset = COMPILED.DcqcnControl.__new__(COMPILED.DcqcnControl)
    with pytest.raises(AttributeError, match="no config"):
        unset.rate_bps(make_fstate())
