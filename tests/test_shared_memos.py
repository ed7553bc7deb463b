"""Pure-function memos exist once per simulation, not once per node.

Every BFC switch agent, BFC egress scheduler and BFC NIC of a simulation
tests Bloom membership through one codec, and every egress port of one link
rate reads serialization times from one memo.  Both are owned by the
simulation (the scheme environment and the simulator), never by a module.
"""

from dataclasses import replace

import repro.experiments.runner as runner
from repro.core.config import BfcConfig
from repro.core.nic import BfcNicScheduler
from repro.core.switchlogic import BfcSwitch
from repro.experiments.runner import build_simulation, run_experiment
from repro.experiments.scenarios import fig5a_configs, openloop_crossdc_config


def _bfc_nodes(topo):
    switches = [s for s in topo.switches.values() if isinstance(s, BfcSwitch)]
    disciplines = [d for s in switches for d in s.bfc_disciplines()]
    nics = [h.nic for h in topo.hosts.values()]
    return switches, disciplines, nics


def test_one_codec_per_simulation():
    sim, env, topo, _ = build_simulation(fig5a_configs("tiny", schemes=["BFC"])["BFC"])
    switches, disciplines, nics = _bfc_nodes(topo)
    assert switches and disciplines and nics
    assert all(isinstance(nic, BfcNicScheduler) for nic in nics)
    codecs = (
        [s.agent.codec for s in switches]
        + [d.scheduler._codec for d in disciplines]
        + [nic.codec for nic in nics]
    )
    assert all(codec is codecs[0] for codec in codecs)
    assert codecs[0] is env.bloom_codec(env.effective_bfc_config())
    # One NIC class for every host, not one minted per host: BfcNicScheduler,
    # or on the compiled plane its one compiled twin.
    plane = sim.compiled_plane
    expected = BfcNicScheduler if plane is None else plane.nic_factory(BfcNicScheduler)
    assert {type(nic) for nic in nics} == {expected}


def test_a_second_simulation_gets_its_own_codec():
    config = fig5a_configs("tiny", schemes=["BFC"])["BFC"]
    _, _, first, _ = build_simulation(config)
    _, _, second, _ = build_simulation(config)
    first_codec = next(iter(first.hosts.values())).nic.codec
    second_codec = next(iter(second.hosts.values())).nic.codec
    assert first_codec is not second_codec


def test_ports_of_equal_rate_share_one_tx_memo():
    sim, _, topo, _ = build_simulation(fig5a_configs("tiny", schemes=["BFC"])["BFC"])
    ports = [
        iface.tx
        for node in list(topo.hosts.values()) + list(topo.switches.values())
        for iface in node.interfaces
    ]
    memos = {}
    for port in ports:
        memos.setdefault(port.rate_bps, set()).add(id(port._tx_memo))
    assert memos and all(len(ids) == 1 for ids in memos.values())
    assert all(port._tx_memo is sim.tx_memo(port.rate_bps) for port in ports)


def test_open_loop_codec_memo_is_bounded_by_the_vfid_space(monkeypatch, tmp_path):
    base = openloop_crossdc_config(
        "tiny", "BFC", target_flows=3_000, target_load=0.3, results_dir=str(tmp_path)
    )
    num_vfids = 512  # fewer VFIDs than flows, so the bound bites
    config = replace(base, bfc_config=BfcConfig(mtu=base.mtu, num_vfids=num_vfids))
    envs = []
    build_environment = runner._build_environment

    def spy(config, sim):
        env = build_environment(config, sim)
        envs.append(env)
        return env

    monkeypatch.setattr(runner, "_build_environment", spy)
    result = run_experiment(config)
    assert result.flows_offered > num_vfids
    (env,) = envs
    codec = env.bloom_codec(env.effective_bfc_config())
    assert 0 < len(codec._masks) <= num_vfids
    assert len(env._bloom_codecs) == 1
