"""Base store-and-forward switch.

The switch implements everything common to all evaluated schemes:

* destination-based routing with ECMP across equal-cost uplinks,
* a shared packet buffer with per-ingress accounting,
* PFC pause/resume generation toward upstream neighbours,
* RED-style ECN marking at the egress queue (used by DCQCN),
* in-band network telemetry stamping (used by HPCC),
* a pluggable per-egress-port data discipline (FIFO, SFQ, Ideal-FQ, BFC).

Scheme-specific behaviour is provided either by the discipline factory
(baselines) or by the :class:`repro.core.switchlogic.BfcSwitch` subclass.

On the compiled engine the data hop (``handle_packet``, ``_admit_data``,
``_on_data_dequeue``) runs in C (:mod:`repro.sim.plane`); the methods here
are the pure engine's hop and the reference the compiled one is tested
against, and the cold paths of both.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .buffer import PfcPolicy, SharedBuffer
from .node import Node
from .packet import FlowKey, IntHop, Packet, PacketKind, PFC_FRAME_SIZE
from .port import Interface
from .stats import Counters

# PFC frames are link-local; they carry a dummy key.
_PFC_KEY = FlowKey(src=-1, dst=-1, src_port=0, dst_port=0)

#: Cap on the per-switch ECMP memo.  The pick is a pure function of the flow
#: key and the switch salt, so clearing only costs a recompute on the next
#: miss — the limit exists purely to bound memory.  4K entries comfortably
#: covers any scenario's *concurrent* flow working set while keeping peak
#: RSS flat on million-flow open-loop runs (a 64K cap per switch was the
#: dominant memory-growth term between 1e4 and 1e5 offered flows).
_ROUTE_CACHE_LIMIT = 1 << 12

#: Switch attributes the compiled data hop reads; rebinding one re-syncs it.
#: ``_admit_data``, ``_maybe_mark_ecn`` and ``_ecmp_pick`` are among them so
#: an instance-level replacement (a test that injects drops) is honoured by
#: the compiled hop too.
_PLANE_SETTINGS = frozenset(
    (
        "buffer", "counters", "_pfc_sent", "pfc", "ecn", "int_enabled", "_admit_data",
        "_rng", "_maybe_mark_ecn", "routes", "_name_salt", "_ecmp_pick",
    )
)


@dataclass(frozen=True)
class EcnConfig:
    """RED-style ECN marking thresholds (bytes) for the egress queue.

    Frozen, like :class:`repro.sim.buffer.PfcPolicy`: the compiled switch hop
    keeps a copy of ``enabled`` and ``kmin``.
    """

    enabled: bool = False
    kmin: int = 100_000
    kmax: int = 400_000
    pmax: float = 0.2

    def marking_probability(self, backlog: int) -> float:
        if not self.enabled or backlog <= self.kmin:
            return 0.0
        if backlog >= self.kmax:
            return 1.0
        span = max(1, self.kmax - self.kmin)
        return self.pmax * (backlog - self.kmin) / span


class Switch(Node):
    """A shared-buffer output-queued switch."""

    def __init__(
        self,
        sim,
        name: str,
        buffer_bytes: int,
        discipline_factory: Callable[[Interface], object],
        pfc: Optional[PfcPolicy] = None,
        ecn: Optional[EcnConfig] = None,
        int_enabled: bool = False,
        seed: int = 0,
    ) -> None:
        super().__init__(sim, name)
        plane = getattr(sim, "compiled_plane", None)
        buffer_class = SharedBuffer if plane is None else plane.SharedBuffer
        self.buffer = (
            buffer_class(buffer_bytes) if buffer_bytes > 0 else buffer_class.infinite()
        )
        self.discipline_factory = discipline_factory
        self.pfc = pfc or PfcPolicy()
        self.ecn = ecn or EcnConfig()
        self.int_enabled = int_enabled
        self.counters = Counters() if plane is None else plane.Counters()
        self.routes: Dict[int, List[int]] = {}
        # Memoized ECMP decision per flow key (the hash pick is a pure
        # function of the key and this switch's salt); invalidated whenever
        # the routing table changes, and reset wholesale when it exceeds
        # _ROUTE_CACHE_LIMIT so million-flow runs don't grow it unboundedly.
        self._route_cache: Dict[FlowKey, int] = {}
        self._pfc_sent: Dict[int, bool] = {}
        # CRC32 of the name keeps hashing deterministic across processes
        # (Python's str hash is randomised per interpreter run).
        self._name_salt = zlib.crc32(name.encode("utf-8"))
        self._rng = sim.rng(seed ^ (self._name_salt & 0xFFFF))
        # On the compiled plane the data hop runs in C: deliveries enter the
        # plane's handle_packet, and the Python methods below stay the
        # pure plane and the reference.  A subclass that overrides the hop
        # or a PFC check keeps the Python one.
        self._plane = None
        cls = type(self)
        if (
            plane is not None
            and cls.handle_packet is Switch.handle_packet
            and cls._check_pfc_pause is Switch._check_pfc_pause
            and cls._check_pfc_resume is Switch._check_pfc_resume
        ):
            self._plane = plane.SwitchPlane(self, _ROUTE_CACHE_LIMIT)
            self._configure_plane()
            self.handle_packet = self._plane.handle_packet
            # The hop keeps the PFC flags in C (``_pfc_sent`` mirrors them):
            # Python hop code (a replaced ``_admit_data``) checks through it,
            # and the hop reloads the flags from ``_pfc_sent`` after that code.
            self._check_pfc_pause = self._plane.check_pfc_pause
            self._check_pfc_resume = self._plane.check_pfc_resume

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in _PLANE_SETTINGS and self.__dict__.get("_plane") is not None:
            self._configure_plane()

    def _configure_plane(self) -> None:
        """Hand the compiled hop what it reads: re-run on every rebinding of
        a setting (``switch.pfc = ...``).  The policies are frozen, so a
        rebinding is the only way they change.  The hop draws ECN marks and
        picks ECMP routes itself unless the switch (its class, its instance
        or its ``EcnConfig``) replaces the Python method that does."""
        own = self.__dict__
        marks_here = (
            "_maybe_mark_ecn" not in own
            and type(self)._maybe_mark_ecn is Switch._maybe_mark_ecn
            and type(self.ecn).marking_probability is EcnConfig.marking_probability
        )
        picks_here = "_ecmp_pick" not in own and type(self)._ecmp_pick is Switch._ecmp_pick
        self._plane.configure(
            self.buffer,
            self.counters,
            self._pfc_sent,
            self.pfc,
            self.ecn,
            self.int_enabled,
            own.get("_admit_data"),
            self._rng if marks_here else None,
            self.routes if picks_here else None,
            self._name_salt,
        )

    # -- wiring -----------------------------------------------------------------

    def add_interface(self, rate_bps: float, delay_ns: int, link_class: str = "link") -> Interface:
        iface = super().add_interface(rate_bps, delay_ns, link_class)
        iface.tx.discipline = self.discipline_factory(iface)
        if self._plane is None:
            iface.tx.on_data_dequeue = self._on_data_dequeue
        else:
            iface.tx.on_data_dequeue = self._plane.on_data_dequeue
            self._plane.add_port(iface.tx)
        return iface

    def set_routes(self, routes: Dict[int, List[int]]) -> None:
        """Install the destination-host → egress-interface-list routing table."""
        self.routes = dict(routes)
        self._clear_route_cache()

    def add_route(self, dst_host: int, iface_indices: List[int]) -> None:
        self.routes[dst_host] = list(iface_indices)
        self._clear_route_cache()

    def _clear_route_cache(self) -> None:
        self._route_cache.clear()
        if self._plane is not None:
            self._plane.clear_routes()

    # -- routing ---------------------------------------------------------------

    def egress_for(self, packet: Packet) -> int:
        """Pick the egress interface for a packet (ECMP by flow-key hash)."""
        key = packet.key
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        egress = self._ecmp_pick(key)
        cache = self._route_cache
        if len(cache) >= _ROUTE_CACHE_LIMIT:
            cache.clear()
        cache[key] = egress
        return egress

    def _ecmp_pick(self, key: FlowKey) -> int:
        """The uncached ECMP pick (the compiled hop memoizes it and computes
        it itself)."""
        choices = self.routes.get(key.dst)
        if not choices:
            raise KeyError(f"{self.name}: no route to host {key.dst}")
        if len(choices) == 1:
            return choices[0]
        return choices[(hash((key, self._name_salt)) & 0x7FFFFFFF) % len(choices)]

    # -- receive path ---------------------------------------------------------------

    def handle_packet(self, packet: Packet, iface_index: int) -> None:
        is_control = packet.is_control
        if is_control:
            # Link-local frames end here; the rest of the control class is
            # forwarded at strict priority.
            kind = packet.kind
            if kind is PacketKind.PFC:
                self._handle_pfc(packet, iface_index)
                return
            if kind is PacketKind.BLOOM:
                self.handle_bloom(packet, iface_index)
                return
        # egress_for(), fast path: the memoized ECMP pick hits for every
        # packet of a flow after its first.
        egress = self._route_cache.get(packet.key)
        if egress is None:
            egress = self.egress_for(packet)
        out_iface = self.interfaces[egress]
        if is_control:
            out_iface.tx.send_control(packet)
            return
        self._admit_data(packet, iface_index, out_iface)

    def handle_bloom(self, packet: Packet, iface_index: int) -> None:
        """Bloom-filter pause frames are only meaningful to BFC switches."""
        self.counters.incr("bloom_ignored")

    # -- data path ---------------------------------------------------------------

    def _admit_data(self, packet: Packet, in_index: int, out_iface: Interface) -> None:
        tx = out_iface.tx
        if not self.buffer.admit(packet.size, in_index):
            self.counters.incr("dropped_packets")
            self.counters.incr("dropped_bytes", packet.size)
            return
        packet.cur_ingress = in_index
        packet.hops += 1
        ecn = self.ecn
        if ecn.enabled and packet.ecn_capable:
            # Early-out below kmin (the common uncongested case) before
            # paying for the probability arithmetic in _maybe_mark_ecn.
            if tx.discipline.backlog_bytes() > ecn.kmin:
                self._maybe_mark_ecn(packet, tx)
        if not tx.discipline.enqueue(packet, in_index):
            # The discipline itself refused the packet (rare; e.g. a bounded
            # per-queue policy).  Treat it exactly like a buffer drop.
            self.buffer.release(packet.size, in_index)
            self.counters.incr("dropped_packets")
            self.counters.incr("dropped_bytes", packet.size)
            return
        values = self.counters.values
        values["forwarded_packets"] += 1
        # Unconditional: a committed (busy) port arms its own wake-up at the
        # commit horizon — without transmission-done events, a packet admitted
        # mid-transmission would otherwise strand until the next notify.
        tx.kick()
        if self.pfc.enabled:
            self._check_pfc_pause(in_index)

    def _maybe_mark_ecn(self, packet: Packet, tx) -> None:
        # Caller has already checked ecn.enabled and packet.ecn_capable.
        prob = self.ecn.marking_probability(tx.discipline.backlog_bytes())
        if prob > 0 and self._rng.random() < prob:
            packet.ecn_marked = True
            self.counters.incr("ecn_marked")

    def _on_data_dequeue(self, packet: Packet, iface_index: int) -> None:
        ingress = packet.cur_ingress
        if ingress >= 0:
            self.buffer.release(packet.size, ingress)
            packet.cur_ingress = -1
            if self.pfc.enabled:
                self._check_pfc_resume(ingress)
        if self.int_enabled and packet.int_enabled:
            self._stamp_int(packet, iface_index)

    def _stamp_int(self, packet: Packet, iface_index: int) -> None:
        port = self.interfaces[iface_index].tx
        packet.int_stack.append(
            IntHop(
                node=self.name,
                timestamp_ns=self.sim.now,
                tx_bytes=port.tx_data_bytes_total,
                queue_bytes=port.discipline.backlog_bytes(),
                rate_bps=port.rate_bps,
            )
        )

    # -- PFC generation ----------------------------------------------------------------

    def _check_pfc_pause(self, ingress: int) -> None:
        if not self.pfc.enabled or self._pfc_sent.get(ingress, False):
            return
        if self.pfc.should_pause(self.buffer, ingress):
            self._pfc_sent[ingress] = True
            self._send_pfc(ingress, pause=True)

    def _check_pfc_resume(self, ingress: int) -> None:
        if not self.pfc.enabled or not self._pfc_sent.get(ingress, False):
            return
        if self.pfc.should_resume(self.buffer, ingress):
            self._pfc_sent[ingress] = False
            self._send_pfc(ingress, pause=False)

    def _send_pfc(self, ingress: int, pause: bool) -> None:
        iface = self.interfaces[ingress]
        if not iface.tx.connected:
            return
        frame = Packet(
            kind=PacketKind.PFC,
            flow_id=0,
            key=_PFC_KEY,
            size=PFC_FRAME_SIZE,
            created_ns=self.sim.now,
            pause=pause,
        )
        iface.tx.send_control(frame)
        self.counters.incr("pfc_pause_frames" if pause else "pfc_resume_frames")

    # -- introspection ------------------------------------------------------------------

    def buffer_occupancy(self) -> int:
        return self.buffer.occupancy()

    def dropped_packets(self) -> int:
        return self.counters.get("dropped_packets")
