"""HPCC congestion control (Li et al., SIGCOMM 2019).

HPCC replaces ECN marks with precise in-band network telemetry (INT): every
switch stamps its egress timestamp, cumulative transmitted bytes, queue length
and port speed onto data packets; the receiver echoes the INT stack back on
ACKs; the sender estimates the utilisation of each link on the path and sizes
its window multiplicatively so that the most-utilised link runs at a target
utilisation ``eta`` (0.95 in the paper), with ``maxStage`` additive-increase
rounds allowed between multiplicative updates.

The implementation follows the pseudocode in the HPCC paper (Algorithm 1),
using per-ACK window updates with a reference window ``Wc`` refreshed once per
RTT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sim.host import CongestionControl, SenderFlowState
from repro.sim.packet import IntHop, Packet


@dataclass
class HpccConfig:
    """HPCC parameters (defaults from the paper)."""

    eta: float = 0.95
    max_stage: int = 5
    base_rtt_ns: int = 8_000
    wai_bytes: int = 80
    min_window_bytes: int = 1_048  # one MTU-sized packet + header

    def validate(self) -> None:
        if not 0 < self.eta <= 1:
            raise ValueError("eta must be in (0, 1]")
        if self.max_stage < 1:
            raise ValueError("max_stage must be >= 1")
        if self.base_rtt_ns <= 0:
            raise ValueError("base_rtt_ns must be positive")


class _HpccFlow:
    """Per-flow HPCC state."""

    __slots__ = (
        "window",
        "reference_window",
        "inc_stage",
        "last_update_seq",
        "prev_int",
        "utilisation",
    )

    def __init__(self, initial_window: float) -> None:
        self.window = initial_window
        self.reference_window = initial_window
        self.inc_stage = 0
        self.last_update_seq = 0
        self.prev_int: Optional[List[IntHop]] = None
        self.utilisation = 0.0


class HpccControl(CongestionControl):
    """The HPCC sender algorithm."""

    name = "hpcc"
    has_window = True

    def __init__(self, line_rate_bps: float, config: Optional[HpccConfig] = None) -> None:
        super().__init__(line_rate_bps)
        self.config = config or HpccConfig()
        self.config.validate()
        # W_init = B * T (one BDP at the host line rate).
        self.initial_window = line_rate_bps * self.config.base_rtt_ns / (8 * 1e9)

    # -- helpers -----------------------------------------------------------------

    def _state(self, fstate: SenderFlowState) -> _HpccFlow:
        state = fstate.cc_state.get("hpcc")
        if state is None:
            state = _HpccFlow(self.initial_window)
            fstate.cc_state["hpcc"] = state
        return state

    def _measure_utilisation(self, state: _HpccFlow, int_stack: List[IntHop]) -> Optional[float]:
        """Max per-link utilisation estimate from consecutive INT snapshots."""
        if state.prev_int is None or len(state.prev_int) != len(int_stack):
            state.prev_int = list(int_stack)
            return None
        cfg = self.config
        max_u = 0.0
        tau_ns = cfg.base_rtt_ns
        for prev, cur in zip(state.prev_int, int_stack):
            if cur.node != prev.node:
                continue
            dt = cur.timestamp_ns - prev.timestamp_ns
            if dt <= 0:
                continue
            tx_rate_bps = (cur.tx_bytes - prev.tx_bytes) * 8 * 1e9 / dt
            qlen = min(cur.queue_bytes, prev.queue_bytes)
            bdp_bytes = cur.rate_bps * cfg.base_rtt_ns / (8 * 1e9)
            u = 0.0
            if bdp_bytes > 0:
                u += qlen / bdp_bytes
            if cur.rate_bps > 0:
                u += tx_rate_bps / cur.rate_bps
            if u > max_u:
                max_u = u
                tau_ns = dt
        state.prev_int = list(int_stack)
        tau_ns = min(tau_ns, cfg.base_rtt_ns)
        weight = tau_ns / cfg.base_rtt_ns
        state.utilisation = (1.0 - weight) * state.utilisation + weight * max_u
        return state.utilisation

    # -- CongestionControl hooks ------------------------------------------------------

    def on_flow_start(self, fstate: SenderFlowState, now_ns: int) -> None:
        self._state(fstate)

    def on_ack(self, fstate: SenderFlowState, packet: Packet, now_ns: int) -> None:
        state = self._state(fstate)
        if packet.int_stack:
            utilisation = self._measure_utilisation(state, packet.int_stack)
            if utilisation is not None:
                self._update_window(fstate, state, packet, utilisation)

    def _update_window(
        self,
        fstate: SenderFlowState,
        state: _HpccFlow,
        ack: Packet,
        utilisation: float,
    ) -> None:
        cfg = self.config
        can_refresh = ack.ack_seq > state.last_update_seq
        if utilisation >= cfg.eta or state.inc_stage >= cfg.max_stage:
            ratio = max(utilisation / cfg.eta, 1e-3)
            state.window = state.reference_window / ratio + cfg.wai_bytes
            if can_refresh:
                state.reference_window = state.window
                state.inc_stage = 0
                state.last_update_seq = fstate.next_seq
        else:
            state.window = state.reference_window + cfg.wai_bytes
            if can_refresh:
                state.reference_window = state.window
                state.inc_stage += 1
                state.last_update_seq = fstate.next_seq
        state.window = min(self.initial_window, max(cfg.min_window_bytes, state.window))

    def rate_bps(self, fstate: SenderFlowState) -> float:
        """Pace at W/T so the window is spread over an RTT (as HPCC does)."""
        state = fstate.cc_state.get("hpcc")
        if state is None:
            return self.line_rate_bps
        rate = state.window * 8 * 1e9 / self.config.base_rtt_ns
        return max(1.0, min(self.line_rate_bps, rate))

    def window_bytes(self, fstate: SenderFlowState) -> Optional[int]:
        state = fstate.cc_state.get("hpcc")
        if state is None:
            return int(self.initial_window)
        return max(self.config.min_window_bytes, int(state.window))

    # -- introspection (used by tests) ---------------------------------------------------

    def current_window(self, fstate: SenderFlowState) -> float:
        return self._state(fstate).window
