"""Scheme registry: how each evaluated scheme is wired into the simulator.

A *scheme* bundles the switch-side and host-side behaviour of one line in the
paper's figures:

=====================  ==========================================  =============================
Scheme                 Switch                                      Host / congestion control
=====================  ==========================================  =============================
``DCQCN``              FIFO egress, ECN marking, PFC               DCQCN rate control
``DCQCN+Win``          FIFO egress, ECN marking, PFC               DCQCN + 1-BDP window cap
``DCQCN+Win+SFQ``      SFQ (32 queues, DRR), ECN marking, PFC      DCQCN + 1-BDP window cap
``DCQCN+IRN``          FIFO egress, ECN marking, no PFC (lossy)    DCQCN + selective repeat
``HPCC``               FIFO egress, INT stamping, PFC              HPCC window control
``Ideal-FQ``           per-flow FQ, infinite buffer, no PFC        line rate + 1-BDP window cap
``SFQ+InfBuffer``      SFQ (32 queues), infinite buffer, no PFC    line rate + 1-BDP window cap
``BFC``                BFC egress (dynamic queues), PFC backstop   line rate, BFC NIC
``BFC-VFID``           BFC with static hash queue assignment       line rate, BFC NIC
``BFC-HighPriorityQ``  BFC without the high-priority queue         line rate, BFC NIC
``BFC-BufferOpt``      BFC without the resume-rate limit           line rate, BFC NIC
``BFC-Est``            BFC pausing on stale/sampled telemetry      line rate, BFC NIC
``BFC-Est-Cap``        BFC-Est + capacity-weighted thresholds      line rate, BFC NIC
``PFC``                FIFO egress, PFC only                       line rate (no CC)
=====================  ==========================================  =============================

The four paper schemes (``BFC`` and its ablations) force the estimator knobs
off, so a ``BfcConfig`` carrying ``telemetry_staleness_ns`` never perturbs
the paper-faithful baselines; only ``BFC-Est``/``BFC-Est-Cap`` honour them.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.congestion.dcqcn import DcqcnConfig, DcqcnControl, DcqcnWindowedControl
from repro.congestion.hpcc import HpccConfig, HpccControl
from repro.core.bloom import BloomFilterCodec
from repro.core.config import BfcConfig
from repro.core.nic import BfcNicScheduler
from repro.core.switchlogic import BfcSwitch
from repro.sim.buffer import PfcPolicy
from repro.sim.disciplines import IdealFqDiscipline, SfqDiscipline, fifo_for
from repro.sim.flow import Flow
from repro.sim.host import (
    CongestionControl,
    Host,
    HostConfig,
    NicScheduler,
    WindowedCongestionControl,
)
from repro.sim.switch import EcnConfig, Switch


@dataclass
class SchemeEnvironment:
    """Everything a scheme needs to instantiate switches and hosts.

    One environment wires one simulation, so it also owns what that
    simulation's nodes share: the Bloom codecs of :meth:`bloom_codec`.
    """

    sim: object
    link_rate_bps: float
    link_delay_ns: int
    base_rtt_ns: int
    bdp_bytes: int
    buffer_bytes: int
    gateway_buffer_bytes: Optional[int] = None
    mtu: int = 1000
    pfc_enabled: bool = True
    pfc_threshold_fraction: float = 0.11
    ecn_kmin_bytes: Optional[int] = None
    ecn_kmax_bytes: Optional[int] = None
    rto_ns: Optional[int] = None
    seed: int = 1
    flow_registry: Dict[int, Flow] = field(default_factory=dict)
    bfc_config: Optional[BfcConfig] = None
    dcqcn_config: Optional[DcqcnConfig] = None
    hpcc_config: Optional[HpccConfig] = None
    num_sfq_queues: int = 32
    _bloom_codecs: Dict[Tuple[int, int], BloomFilterCodec] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def ecn(self) -> EcnConfig:
        """DCQCN's ECN thresholds, scaled with the BDP like the paper's setup.

        The paper uses Kmin = 100 KB and Kmax = 400 KB at 100 Gbps / 8 us RTT,
        i.e. one and four end-to-end BDPs; the same ratio is kept when the
        environment runs at a scaled-down rate.
        """
        kmin = self.ecn_kmin_bytes if self.ecn_kmin_bytes is not None else self.bdp_bytes
        kmax = self.ecn_kmax_bytes if self.ecn_kmax_bytes is not None else 4 * self.bdp_bytes
        return EcnConfig(enabled=True, kmin=kmin, kmax=kmax, pmax=0.2)

    def pfc(self) -> PfcPolicy:
        return PfcPolicy(
            enabled=self.pfc_enabled, threshold_fraction=self.pfc_threshold_fraction
        )

    def no_pfc(self) -> PfcPolicy:
        return PfcPolicy(enabled=False)

    def host_rto_ns(self) -> int:
        if self.rto_ns is not None:
            return self.rto_ns
        return max(10 * self.base_rtt_ns, 200_000)

    def effective_bfc_config(self) -> BfcConfig:
        return self.bfc_config or BfcConfig(mtu=self.mtu)

    def bloom_codec(self, config: BfcConfig) -> BloomFilterCodec:
        """The simulation's one Bloom codec for ``config``'s filter geometry.

        Every BFC switch agent and NIC of the simulation tests membership
        through it, so its per-VFID memo exists once, not once per node.
        """
        key = config.bloom_geometry
        codec = self._bloom_codecs.get(key)
        if codec is None:
            codec = self._bloom_codecs[key] = BloomFilterCodec(*key)
        return codec

    def buffer_for(self, tier: str) -> int:
        if tier == "gateway" and self.gateway_buffer_bytes is not None:
            return self.gateway_buffer_bytes
        return self.buffer_bytes


@dataclass
class SchemeSpec:
    """Factories building the switches and hosts of one scheme."""

    name: str
    description: str
    make_switch: Callable[[SchemeEnvironment, str, str], Switch]
    make_host: Callable[[SchemeEnvironment, str, int], Host]
    uses_bfc: bool = False

    def switch_factory(self, env: SchemeEnvironment) -> Callable[[str, str], Switch]:
        return lambda name, tier: self.make_switch(env, name, tier)

    def host_factory(self, env: SchemeEnvironment) -> Callable[[str, int], Host]:
        return lambda name, host_id: self.make_host(env, name, host_id)


# ---------------------------------------------------------------------------
# Switch builders
# ---------------------------------------------------------------------------


def _fifo_switch(
    env: SchemeEnvironment,
    name: str,
    tier: str,
    *,
    ecn: bool,
    int_enabled: bool,
    use_pfc: bool = True,
) -> Switch:
    return Switch(
        env.sim,
        name,
        buffer_bytes=env.buffer_for(tier),
        discipline_factory=lambda iface: fifo_for(iface.tx),
        pfc=env.pfc() if use_pfc else env.no_pfc(),
        ecn=env.ecn() if ecn else EcnConfig(enabled=False),
        int_enabled=int_enabled,
        seed=env.seed,
    )


def _sfq_switch(env: SchemeEnvironment, name: str, tier: str, *, ecn: bool, infinite: bool) -> Switch:
    name_salt = zlib.crc32(name.encode("utf-8")) & 0xFFFF
    return Switch(
        env.sim,
        name,
        buffer_bytes=0 if infinite else env.buffer_for(tier),
        discipline_factory=lambda iface: SfqDiscipline(
            num_queues=env.num_sfq_queues, quantum=env.mtu + 48, salt=name_salt, sim=env.sim
        ),
        pfc=env.no_pfc() if infinite else env.pfc(),
        ecn=env.ecn() if ecn else EcnConfig(enabled=False),
        int_enabled=False,
        seed=env.seed,
    )


def _ideal_fq_switch(env: SchemeEnvironment, name: str, tier: str) -> Switch:
    return Switch(
        env.sim,
        name,
        buffer_bytes=0,  # infinite
        discipline_factory=lambda iface: IdealFqDiscipline(quantum=env.mtu + 48, sim=env.sim),
        pfc=env.no_pfc(),
        ecn=EcnConfig(enabled=False),
        int_enabled=False,
        seed=env.seed,
    )


def _bfc_switch(env: SchemeEnvironment, name: str, tier: str, config: BfcConfig) -> BfcSwitch:
    return BfcSwitch(
        env.sim,
        name,
        buffer_bytes=env.buffer_for(tier),
        bfc_config=config,
        pfc=env.pfc(),
        seed=env.seed,
        codec=env.bloom_codec(config),
    )


# ---------------------------------------------------------------------------
# Host builders
# ---------------------------------------------------------------------------


def _host(
    env: SchemeEnvironment,
    name: str,
    host_id: int,
    cc_factory: Callable[[float], CongestionControl],
    *,
    window_cap: Optional[int] = None,
    int_enabled: bool = False,
    mark_first: bool = False,
    nic_class: Optional[Callable[[Host], NicScheduler]] = None,
    loss_recovery: str = "go-back-n",
) -> Host:
    config = HostConfig(
        mtu=env.mtu,
        window_cap_bytes=window_cap,
        int_enabled=int_enabled,
        mark_first_packet=mark_first,
        rto_ns=env.host_rto_ns(),
        loss_recovery=loss_recovery,
    )
    return Host(
        env.sim,
        name,
        host_id,
        config=config,
        cc_factory=cc_factory,
        flow_registry=env.flow_registry,
        nic_class=nic_class,
    )


def _dcqcn_host(env: SchemeEnvironment, name: str, host_id: int, *, windowed: bool) -> Host:
    cfg = env.dcqcn_config or DcqcnConfig()
    if windowed:
        factory = lambda rate: DcqcnWindowedControl(rate, window_bytes=env.bdp_bytes, config=cfg)
    else:
        factory = lambda rate: DcqcnControl(rate, config=cfg)
    return _host(env, name, host_id, factory)


def _dcqcn_irn_host(env: SchemeEnvironment, name: str, host_id: int) -> Host:
    cfg = env.dcqcn_config or DcqcnConfig()
    factory = lambda rate: DcqcnControl(rate, config=cfg)
    return _host(env, name, host_id, factory, loss_recovery="selective-repeat")


def _hpcc_host(env: SchemeEnvironment, name: str, host_id: int) -> Host:
    cfg = env.hpcc_config or HpccConfig(base_rtt_ns=env.base_rtt_ns)
    factory = lambda rate: HpccControl(rate, config=cfg)
    return _host(env, name, host_id, factory, int_enabled=True)


def _windowed_host(env: SchemeEnvironment, name: str, host_id: int) -> Host:
    factory = lambda rate: WindowedCongestionControl(rate, window_bytes=env.bdp_bytes)
    return _host(env, name, host_id, factory)


def _line_rate_host(env: SchemeEnvironment, name: str, host_id: int) -> Host:
    factory = lambda rate: CongestionControl(rate)
    return _host(env, name, host_id, factory)


def _bfc_host(env: SchemeEnvironment, name: str, host_id: int, config: BfcConfig) -> Host:
    factory = lambda rate: CongestionControl(rate)
    return _host(
        env,
        name,
        host_id,
        factory,
        mark_first=True,
        nic_class=partial(BfcNicScheduler, config=config, codec=env.bloom_codec(config)),
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: The scheme registry.  Populated through :func:`register_scheme` /
#: :func:`register_scheme_spec`; the name is kept for backwards compatibility
#: with code that iterated the old hard-coded table.
SCHEMES: Dict[str, SchemeSpec] = {}


class UnknownSchemeError(KeyError):
    """Raised when a scheme name is not in the registry."""


class DuplicateSchemeError(ValueError):
    """Raised when registering a name that is already taken (without override)."""


def register_scheme_spec(spec: SchemeSpec, override: bool = False) -> SchemeSpec:
    """Register a fully-built :class:`SchemeSpec` under its own name."""
    if spec.name in SCHEMES and not override:
        raise DuplicateSchemeError(
            f"scheme {spec.name!r} is already registered; pass override=True "
            "to replace it"
        )
    SCHEMES[spec.name] = spec
    return spec


def register_scheme(
    name: str,
    *,
    description: Optional[str] = None,
    uses_bfc: bool = False,
    override: bool = False,
):
    """Decorator registering a congestion-control scheme.

    The decorated callable is invoked once, with no arguments, and must
    return either a ``(make_switch, make_host)`` factory pair or a complete
    :class:`SchemeSpec`.  Third-party schemes plug in the same way the
    built-in ones are defined — no edits to this module required::

        @register_scheme("MyScheme", description="my experimental scheme")
        def _my_scheme():
            return (
                lambda env, name, tier: ...,   # -> Switch
                lambda env, name, host_id: ...,  # -> Host
            )

    ``override=True`` replaces an existing registration (useful for patching
    a built-in scheme in experiments or tests).

    Note on parallel campaigns: process pools prefer the ``fork`` start
    method, which carries runtime registrations into the workers.  On
    platforms without ``fork`` (Windows), register plug-in schemes at import
    time in a module the workers import, not under ``if __name__ ==
    "__main__"``.
    """

    def decorate(builder):
        built = builder()
        if isinstance(built, SchemeSpec):
            # Copy before renaming: the builder may hand back an existing
            # registration (e.g. aliasing a built-in), which must not be
            # mutated in place.
            spec = replace(
                built,
                name=name,
                description=description if description is not None else built.description,
                uses_bfc=built.uses_bfc or uses_bfc,
            )
        else:
            try:
                make_switch, make_host = built
            except (TypeError, ValueError):
                raise TypeError(
                    f"scheme builder for {name!r} must return a SchemeSpec or "
                    "a (make_switch, make_host) pair"
                ) from None
            doc = (builder.__doc__ or "").strip().splitlines()
            spec = SchemeSpec(
                name=name,
                description=description or (doc[0] if doc else name),
                make_switch=make_switch,
                make_host=make_host,
                uses_bfc=uses_bfc,
            )
        register_scheme_spec(spec, override=override)
        return builder

    return decorate


def unregister_scheme(name: str) -> None:
    """Remove a scheme from the registry (no-op if absent)."""
    SCHEMES.pop(name, None)


def available_schemes() -> List[str]:
    return list(SCHEMES)


def get_scheme(name: str) -> SchemeSpec:
    try:
        return SCHEMES[name]
    except KeyError:
        raise UnknownSchemeError(
            f"unknown scheme {name!r}; available: {', '.join(sorted(SCHEMES))}"
        ) from None


# ---------------------------------------------------------------------------
# Built-in schemes (the lines of the paper's figures)
# ---------------------------------------------------------------------------


@register_scheme(
    "DCQCN", description="ECN-based end-to-end rate control (FIFO switches, PFC)"
)
def _dcqcn_scheme():
    return (
        lambda env, name, tier: _fifo_switch(env, name, tier, ecn=True, int_enabled=False),
        lambda env, name, hid: _dcqcn_host(env, name, hid, windowed=False),
    )


@register_scheme("DCQCN+Win", description="DCQCN with a 1-BDP per-flow window cap")
def _dcqcn_win_scheme():
    return (
        lambda env, name, tier: _fifo_switch(env, name, tier, ecn=True, int_enabled=False),
        lambda env, name, hid: _dcqcn_host(env, name, hid, windowed=True),
    )


@register_scheme(
    "DCQCN+Win+SFQ",
    description="DCQCN+Win with stochastic fair queueing at the switches",
)
def _dcqcn_win_sfq_scheme():
    return (
        lambda env, name, tier: _sfq_switch(env, name, tier, ecn=True, infinite=False),
        lambda env, name, hid: _dcqcn_host(env, name, hid, windowed=True),
    )


@register_scheme(
    "DCQCN+IRN",
    description="DCQCN over a lossy fabric (no PFC) with IRN-style selective-repeat recovery",
)
def _dcqcn_irn_scheme():
    return (
        lambda env, name, tier: _fifo_switch(
            env, name, tier, ecn=True, int_enabled=False, use_pfc=False
        ),
        lambda env, name, hid: _dcqcn_irn_host(env, name, hid),
    )


@register_scheme(
    "HPCC", description="INT-based end-to-end window control (FIFO switches, PFC)"
)
def _hpcc_scheme():
    return (
        lambda env, name, tier: _fifo_switch(env, name, tier, ecn=False, int_enabled=True),
        lambda env, name, hid: _hpcc_host(env, name, hid),
    )


@register_scheme(
    "Ideal-FQ",
    description="Idealised per-flow fair queueing with infinite buffers (unrealisable bound)",
)
def _ideal_fq_scheme():
    return (
        lambda env, name, tier: _ideal_fq_switch(env, name, tier),
        lambda env, name, hid: _windowed_host(env, name, hid),
    )


@register_scheme(
    "SFQ+InfBuffer",
    description="Static SFQ queue assignment with infinite buffers (§4.2 ablation)",
)
def _sfq_infbuffer_scheme():
    return (
        lambda env, name, tier: _sfq_switch(env, name, tier, ecn=False, infinite=True),
        lambda env, name, hid: _windowed_host(env, name, hid),
    )


@register_scheme(
    "PFC", description="Hop-by-hop priority flow control only (no end-to-end CC)"
)
def _pfc_scheme():
    return (
        lambda env, name, tier: _fifo_switch(env, name, tier, ecn=False, int_enabled=False),
        lambda env, name, hid: _line_rate_host(env, name, hid),
    )


#: Overrides keeping the paper-faithful BFC schemes on ideal per-hop state:
#: a BfcConfig carrying estimator knobs (e.g. from a staleness sweep) must
#: never bend the baselines those sweeps are compared against.
_IDEAL_TELEMETRY: Dict[str, object] = {
    "telemetry_staleness_ns": 0,
    "telemetry_sample_period_ns": 0,
    "capacity_weight_reference_bps": None,
}


def _bfc_spec(name: str, description: str, config_overrides: Dict[str, object]) -> SchemeSpec:
    """Build a BFC scheme variant whose :class:`BfcConfig` is overridden."""

    def make_switch(env: SchemeEnvironment, switch_name: str, tier: str) -> Switch:
        config = env.effective_bfc_config().with_overrides(**config_overrides)
        return _bfc_switch(env, switch_name, tier, config)

    def make_host(env: SchemeEnvironment, host_name: str, host_id: int) -> Host:
        config = env.effective_bfc_config().with_overrides(**config_overrides)
        return _bfc_host(env, host_name, host_id, config)

    return SchemeSpec(
        name=name, description=description, make_switch=make_switch, make_host=make_host, uses_bfc=True
    )


def _bfc_est_spec(name: str, description: str, *, capacity_weighted: bool = False) -> SchemeSpec:
    """Build an estimated-queue BFC variant (honours the estimator knobs).

    Unlike :func:`_bfc_spec`, the effective config is a function of the
    environment: ``BFC-Est-Cap``'s capacity weight defaults to the fabric's
    base link rate (weight 1.0 on every homogeneous link; only ports whose
    rate differs — e.g. cross-DC gateway links — see a different threshold).
    """

    def est_config(env: SchemeEnvironment) -> BfcConfig:
        config = env.effective_bfc_config()
        if capacity_weighted:
            if config.capacity_weight_reference_bps is None:
                config = config.with_overrides(
                    capacity_weight_reference_bps=env.link_rate_bps
                )
        elif config.capacity_weight_reference_bps is not None:
            config = config.with_overrides(capacity_weight_reference_bps=None)
        return config

    def make_switch(env: SchemeEnvironment, switch_name: str, tier: str) -> Switch:
        return _bfc_switch(env, switch_name, tier, est_config(env))

    def make_host(env: SchemeEnvironment, host_name: str, host_id: int) -> Host:
        return _bfc_host(env, host_name, host_id, est_config(env))

    return SchemeSpec(
        name=name, description=description, make_switch=make_switch, make_host=make_host, uses_bfc=True
    )


for _name, _description, _overrides in (
    (
        "BFC",
        "Backpressure flow control: per-hop per-flow pauses, dynamic queue assignment",
        {},
    ),
    (
        "BFC-VFID",
        "Straw proposal: static hash assignment of flows to physical queues",
        {"static_queue_assignment": True},
    ),
    (
        "BFC-HighPriorityQ",
        "BFC without the high-priority queue for single-packet flows",
        {"use_high_priority_queue": False},
    ),
    (
        "BFC-BufferOpt",
        "BFC without the two-resumes-per-RTT limit",
        {"limit_resume_rate": False},
    ),
):
    register_scheme_spec(_bfc_spec(_name, _description, dict(_overrides, **_IDEAL_TELEMETRY)))
del _name, _description, _overrides

register_scheme_spec(
    _bfc_est_spec(
        "BFC-Est",
        "BFC whose pause decisions use delayed/sampled queue telemetry "
        "(telemetry_staleness_ns / telemetry_sample_period_ns; exact at 0/0)",
    )
)
register_scheme_spec(
    _bfc_est_spec(
        "BFC-Est-Cap",
        "BFC-Est with capacity-weighted pause thresholds "
        "(threshold scaled by link rate relative to the fabric base rate)",
        capacity_weighted=True,
    )
)
