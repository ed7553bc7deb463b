"""DCQCN congestion control (Zhu et al., SIGCOMM 2015).

DCQCN is the rate-based scheme most RoCE deployments run today and the primary
baseline of the BFC paper.  Switches RED-mark data packets with ECN; the
receiver converts marks into congestion-notification packets (CNPs, at most
one per 50 us per flow); the sender reacts to CNPs with a multiplicative
decrease governed by the EWMA variable ``alpha`` and recovers through fast
recovery / additive increase / hyper increase stages driven by a byte counter
and a timer.

Rather than scheduling per-flow alpha/increase timers (which would add two
events per flow per 55 us to the event loop), this implementation advances the
DCQCN state machine *lazily*: whenever the rate is queried or an event
arrives, the elapsed timer periods and transmitted bytes since the last update
are converted into the equivalent number of state-machine steps.  The
resulting trajectory matches the timer-driven formulation at the instants that
matter (packet transmissions and CNP arrivals).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.host import CongestionControl, SenderFlowState
from repro.sim.packet import Packet


@dataclass(frozen=True)
class DcqcnConfig:
    """DCQCN parameters.

    Rate-increase steps are expressed as fractions of the line rate so the
    same configuration scales across the link speeds swept in Fig. 2.
    Frozen: the compiled twin (:mod:`repro.sim.plane`) keeps a copy.
    """

    g: float = 1.0 / 256.0
    alpha_timer_ns: int = 55_000
    increase_timer_ns: int = 300_000
    byte_counter_bytes: int = 10_000_000
    fast_recovery_rounds: int = 5
    rate_ai_fraction: float = 0.005
    rate_hai_fraction: float = 0.05
    min_rate_fraction: float = 0.001
    initial_alpha: float = 1.0

    def validate(self) -> None:
        if not 0 < self.g <= 1:
            raise ValueError("g must be in (0, 1]")
        if self.alpha_timer_ns <= 0 or self.increase_timer_ns <= 0:
            raise ValueError("timers must be positive")
        if self.byte_counter_bytes <= 0:
            raise ValueError("byte counter must be positive")
        if self.fast_recovery_rounds < 1:
            raise ValueError("fast_recovery_rounds must be >= 1")


class _DcqcnFlow:
    """Per-flow DCQCN state (stored inside ``SenderFlowState.cc_state``)."""

    __slots__ = (
        "rate",
        "target_rate",
        "alpha",
        "last_decrease_ns",
        "last_alpha_update_ns",
        "bytes_since_decrease",
        "bc_events_applied",
        "timer_events_applied",
        "ever_decreased",
    )

    def __init__(self, line_rate: float, alpha: float, now_ns: int) -> None:
        self.rate = line_rate
        self.target_rate = line_rate
        self.alpha = alpha
        self.last_decrease_ns = now_ns
        self.last_alpha_update_ns = now_ns
        self.bytes_since_decrease = 0
        self.bc_events_applied = 0
        self.timer_events_applied = 0
        self.ever_decreased = False


class DcqcnControl(CongestionControl):
    """The DCQCN sender algorithm."""

    name = "dcqcn"
    # DCQCN is rate-based: its window_bytes override still returns None, so
    # it restates the windowless promise for the NIC fast path.
    has_window = False

    def __init__(self, line_rate_bps: float, config: Optional[DcqcnConfig] = None) -> None:
        super().__init__(line_rate_bps)
        self.config = config or DcqcnConfig()
        self.config.validate()
        self.min_rate = max(1.0, self.config.min_rate_fraction * line_rate_bps)
        self.rate_ai = self.config.rate_ai_fraction * line_rate_bps
        self.rate_hai = self.config.rate_hai_fraction * line_rate_bps

    # -- helpers -----------------------------------------------------------------

    def _state(self, fstate: SenderFlowState, now_ns: int) -> _DcqcnFlow:
        state = fstate.cc_state.get("dcqcn")
        if state is None:
            state = _DcqcnFlow(self.line_rate_bps, self.config.initial_alpha, now_ns)
            fstate.cc_state["dcqcn"] = state
        return state

    def _advance(self, state: _DcqcnFlow, now_ns: int) -> None:
        """Apply all alpha-decay and rate-increase events that elapsed."""
        cfg = self.config
        # Alpha decays toward zero while no CNP arrives.
        periods = (now_ns - state.last_alpha_update_ns) // cfg.alpha_timer_ns
        if periods > 0:
            state.alpha *= (1.0 - cfg.g) ** periods
            state.last_alpha_update_ns += periods * cfg.alpha_timer_ns
        if not state.ever_decreased:
            # Before the first congestion signal the flow simply runs at line
            # rate; there is nothing to recover.
            return
        timer_events = (now_ns - state.last_decrease_ns) // cfg.increase_timer_ns
        bc_events = state.bytes_since_decrease // cfg.byte_counter_bytes
        while (
            state.timer_events_applied < timer_events
            or state.bc_events_applied < bc_events
        ):
            if state.timer_events_applied < timer_events:
                state.timer_events_applied += 1
            else:
                state.bc_events_applied += 1
            self._apply_increase(state)

    def _apply_increase(self, state: _DcqcnFlow) -> None:
        cfg = self.config
        bc = state.bc_events_applied
        ti = state.timer_events_applied
        if max(bc, ti) < cfg.fast_recovery_rounds:
            pass  # fast recovery: only average toward the target rate
        elif min(bc, ti) < cfg.fast_recovery_rounds:
            state.target_rate = min(self.line_rate_bps, state.target_rate + self.rate_ai)
        else:
            state.target_rate = min(self.line_rate_bps, state.target_rate + self.rate_hai)
        state.rate = min(self.line_rate_bps, (state.rate + state.target_rate) / 2.0)

    # -- CongestionControl hooks -----------------------------------------------------

    def on_flow_start(self, fstate: SenderFlowState, now_ns: int) -> None:
        self._state(fstate, now_ns)

    def on_packet_sent(self, fstate: SenderFlowState, packet: Packet, now_ns: int) -> None:
        state = self._state(fstate, now_ns)
        state.bytes_since_decrease += packet.size
        self._advance(state, now_ns)

    def on_cnp(self, fstate: SenderFlowState, now_ns: int) -> None:
        state = self._state(fstate, now_ns)
        self._advance(state, now_ns)
        cfg = self.config
        state.target_rate = state.rate
        state.rate = max(self.min_rate, state.rate * (1.0 - state.alpha / 2.0))
        state.alpha = (1.0 - cfg.g) * state.alpha + cfg.g
        state.last_alpha_update_ns = now_ns
        state.last_decrease_ns = now_ns
        state.bytes_since_decrease = 0
        state.bc_events_applied = 0
        state.timer_events_applied = 0
        state.ever_decreased = True

    def rate_bps(self, fstate: SenderFlowState) -> float:
        state = fstate.cc_state.get("dcqcn")
        if state is None:
            return self.line_rate_bps
        return max(self.min_rate, min(self.line_rate_bps, state.rate))

    def window_bytes(self, fstate: SenderFlowState) -> Optional[int]:
        return None

    # -- introspection (used by tests) -------------------------------------------------

    def current_rate(self, fstate: SenderFlowState, now_ns: int) -> float:
        state = self._state(fstate, now_ns)
        self._advance(state, now_ns)
        return max(self.min_rate, min(self.line_rate_bps, state.rate))

    def current_alpha(self, fstate: SenderFlowState, now_ns: int) -> float:
        state = self._state(fstate, now_ns)
        self._advance(state, now_ns)
        return state.alpha


class DcqcnWindowedControl(DcqcnControl):
    """DCQCN with a per-flow window cap of one end-to-end BDP (DCQCN+Win).

    ``has_window = True``: window_bytes returns a real cap (NIC fast path).

    The paper takes this variant from the HPCC paper: the cap limits the
    inflight bytes of a flow, reducing buffer occupancy without hurting
    throughput.
    """

    name = "dcqcn+win"
    has_window = True

    def __init__(
        self,
        line_rate_bps: float,
        window_bytes: int,
        config: Optional[DcqcnConfig] = None,
    ) -> None:
        super().__init__(line_rate_bps, config)
        if window_bytes <= 0:
            raise ValueError("window_bytes must be positive")
        self._window = int(window_bytes)

    def window_bytes(self, fstate: SenderFlowState) -> Optional[int]:
        return self._window
