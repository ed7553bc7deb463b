"""Per-switch BFC control logic and the BFC switch node type.

The :class:`BfcAgent` owns the state that is shared by all egress ports of a
switch:

* the virtual-flow hash table (§3.8),
* one counting Bloom filter per ingress link holding the flows this switch has
  paused on that link (§3.6),
* the periodic task that, every Bloom interval tau, applies rate-limited
  resumes and retransmits the (idempotent) pause frames upstream.

:class:`BfcSwitch` is a :class:`repro.sim.switch.Switch` whose egress ports
use :class:`repro.core.discipline.BfcEgressDiscipline` and which understands
incoming Bloom-filter pause frames from its downstream neighbours.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.sim.buffer import PfcPolicy
from repro.sim.packet import FlowKey, Packet, PacketKind
from repro.sim.port import Interface
from repro.sim.switch import EcnConfig, Switch
from repro.sim.stats import Counters

from .bloom import BloomFilterCodec, CountingBloomFilter
from .config import BfcConfig
from .discipline import BfcEgressDiscipline
from .vfid import FlowTable

_BLOOM_KEY = FlowKey(src=-2, dst=-2, src_port=0, dst_port=0)
_BLOOM_HEADER_BYTES = 18  # Ethernet-style header around the filter payload


class BfcAgent:
    """Switch-wide BFC state machine."""

    def __init__(self, sim, config: BfcConfig) -> None:
        self.sim = sim
        self.config = config
        self.codec = BloomFilterCodec(
            size_bytes=config.bloom_filter_bytes,
            num_hashes=config.bloom_hash_functions,
        )
        self.flow_table = FlowTable(config)
        self.disciplines: List[BfcEgressDiscipline] = []
        self._pause_filters: Dict[int, CountingBloomFilter] = {}
        self._paused_vfids: Dict[int, Set[int]] = {}
        self._dirty: Dict[int, bool] = {}
        self.counters = Counters()
        self._interfaces: Optional[List[Interface]] = None
        # The tick period; interfaces (and hence disciplines) are wired after
        # construction, so registering one drops the cached value.
        self._interval_ns: Optional[int] = None
        self._started = False

    # -- wiring -------------------------------------------------------------------

    def register_discipline(self, discipline: BfcEgressDiscipline) -> None:
        self.disciplines.append(discipline)
        self._interval_ns = None

    def attach(self, interfaces: List[Interface]) -> None:
        """Give the agent access to the switch's interfaces for sending frames."""
        self._interfaces = interfaces

    def start(self) -> None:
        """Schedule the periodic pause-frame / resume tick."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(self._tick_interval(), self._tick)

    def _tick_interval(self) -> int:
        interval = self._interval_ns
        if interval is None:
            if self.disciplines:
                interval = min(d.thresholds.pause_interval_ns for d in self.disciplines)
            else:
                interval = self.config.derive_pause_interval_ns(self.config.hop_rtt_ns or 2_000)
            self._interval_ns = interval
        return interval

    # -- pause / resume API (called by the egress disciplines) -------------------------

    def pause_flow(self, vfid: int, ingress: int) -> bool:
        """Pause (vfid, ingress-link); returns True if this is a new pause."""
        paused = self._paused_vfids.setdefault(ingress, set())
        if vfid in paused:
            return False
        paused.add(vfid)
        self._filter_for(ingress).add(vfid)
        self._dirty[ingress] = True
        self.counters.incr("pauses")
        return True

    def resume_flow(self, vfid: int, ingress: int) -> bool:
        """Clear the pause for (vfid, ingress-link); True if it was paused."""
        paused = self._paused_vfids.get(ingress)
        if not paused or vfid not in paused:
            return False
        paused.remove(vfid)
        self._filter_for(ingress).remove(vfid)
        self._dirty[ingress] = True
        self.counters.incr("resumes")
        return True

    def is_paused(self, vfid: int, ingress: int) -> bool:
        paused = self._paused_vfids.get(ingress)
        return paused is not None and vfid in paused

    def paused_flow_count(self) -> int:
        return sum(len(v) for v in self._paused_vfids.values())

    def _filter_for(self, ingress: int) -> CountingBloomFilter:
        filt = self._pause_filters.get(ingress)
        if filt is None:
            filt = CountingBloomFilter(self.codec)
            self._pause_filters[ingress] = filt
        return filt

    # -- periodic tick ----------------------------------------------------------------

    def _tick(self) -> None:
        # Only what is pending is visited, in the order a full scan would
        # take: disciplines with flows to resume, then the ingress filters
        # that hold a pause or changed since their last frame.
        for discipline in self.disciplines:
            if discipline.pending_resumes:
                for vfid, ingress in discipline.collect_resumes():
                    self.resume_flow(vfid, ingress)
        if self._interfaces is not None:
            self._send_pause_frames()
        self.sim.schedule(self._tick_interval(), self._tick)

    def _send_pause_frames(self) -> None:
        paused = self._paused_vfids
        dirty = self._dirty
        for ingress, filt in self._pause_filters.items():
            # pause_flow() creates the three per-ingress records together.
            if not (paused[ingress] or dirty[ingress]):
                continue
            dirty[ingress] = False
            iface = self._interfaces[ingress]
            if not iface.tx.connected:
                continue
            frame = Packet(
                kind=PacketKind.BLOOM,
                flow_id=0,
                key=_BLOOM_KEY,
                size=self.config.bloom_filter_bytes + _BLOOM_HEADER_BYTES,
                created_ns=self.sim.now,
                bloom_bits=filt.to_bitmap(),
            )
            iface.tx.send_control(frame)
            self.counters.incr("bloom_frames_sent")


class BfcSwitch(Switch):
    """A switch running BFC on every egress port (PFC kept as a backstop)."""

    def __init__(
        self,
        sim,
        name: str,
        buffer_bytes: int,
        bfc_config: Optional[BfcConfig] = None,
        pfc: Optional[PfcPolicy] = None,
        ecn: Optional[EcnConfig] = None,
        seed: int = 0,
    ) -> None:
        self.bfc_config = bfc_config or BfcConfig()
        self.agent = BfcAgent(sim, self.bfc_config)
        self._discipline_seed = seed
        super().__init__(
            sim,
            name,
            buffer_bytes=buffer_bytes,
            discipline_factory=self._make_discipline,
            pfc=pfc,
            ecn=ecn or EcnConfig(enabled=False),
            int_enabled=False,
            seed=seed,
        )
        self.agent.attach(self.interfaces)
        self.agent.start()

    def _make_discipline(self, iface: Interface) -> BfcEgressDiscipline:
        return BfcEgressDiscipline(
            agent=self.agent,
            egress_index=iface.index,
            link_rate_bps=iface.rate_bps,
            link_delay_ns=iface.delay_ns,
            rng=self.sim.rng(self._discipline_seed ^ (iface.index + 1)),
        )

    # -- Bloom-filter pause frames from downstream neighbours ---------------------------

    def handle_bloom(self, packet: Packet, iface_index: int) -> None:
        iface = self.interfaces[iface_index]
        discipline = iface.tx.discipline
        if isinstance(discipline, BfcEgressDiscipline):
            discipline.apply_downstream_filter(packet.bloom_bits)
            self.counters.incr("bloom_frames_received")
            # A queue may have just become unpaused: let the port re-evaluate.
            iface.tx.notify()
        else:  # pragma: no cover - defensive
            self.counters.incr("bloom_ignored")

    # -- introspection -------------------------------------------------------------------

    def bfc_disciplines(self) -> List[BfcEgressDiscipline]:
        return [
            iface.tx.discipline
            for iface in self.interfaces
            if isinstance(iface.tx.discipline, BfcEgressDiscipline)
        ]

    def collision_fraction(self) -> float:
        assignments = sum(d.pool.stats.assignments for d in self.bfc_disciplines())
        collisions = sum(d.pool.stats.collisions for d in self.bfc_disciplines())
        if assignments == 0:
            return 0.0
        return collisions / assignments
