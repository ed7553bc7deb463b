"""Dependency-driven flow launches: flow graphs and their runtime launcher.

Collective and RPC workloads (:mod:`repro.workloads.collectives`,
:mod:`repro.workloads.rpc`) are not lists of time-triggered flows — a flow
starts when its *prerequisite* flows have delivered (the next all-reduce step
needs the previous chunk; an RPC response needs the request).  A
:class:`FlowGraph` holds such a workload: plain :class:`~repro.sim.flow.Flow`
objects whose ``depends_on`` tuples name the prerequisite flow ids, plus an
optional per-flow compute delay between the last prerequisite completing and
the launch.

**The locality invariant.**  Every prerequisite must terminate at its
dependent's source host (``dep.dst == dependent.src``).  The launching host
then observes all prerequisite completions *locally*, which is what keeps
dependency launches byte-identical under sharding: a completion fires on the
shard owning ``dep.dst``, and the dependent flow it unlocks starts on that
same shard.  :meth:`FlowGraph.validate` enforces the invariant (and
acyclicity) at build time.

**Runtime.**  All graph flows are materialized into the run's
:class:`~repro.workloads.trace.FlowTrace` (so ``flows_offered`` and the
result harvest account for them), but :meth:`Topology.start_flow` registers
rather than schedules flows carrying ``depends_on``.  A
:class:`FlowGraphLauncher` — installed by ``build_simulation`` as each
host's ``on_flow_complete`` hook — counts down prerequisites and schedules
each dependent the moment its last prerequisite completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.sim.flow import Flow

from .trace import FlowTrace


class FlowGraphError(ValueError):
    """Raised when a flow graph violates the launch invariants."""


@dataclass
class FlowGraph:
    """A set of flows whose launches are (partially) dependency-ordered.

    Attributes
    ----------
    flows:
        Every flow of the workload, roots and dependents alike.  Roots
        (``depends_on`` empty/None) start at their ``start_ns`` like any
        trace flow; dependents start when their prerequisites complete.
    compute_delay_ns:
        Optional per-flow-id delay inserted between the last prerequisite
        completing and the dependent launching (models application compute:
        a training step between all-reduce rounds, RPC service time).
    """

    flows: List[Flow] = field(default_factory=list)
    compute_delay_ns: Dict[int, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.flows)

    def roots(self) -> List[Flow]:
        return [f for f in self.flows if not f.depends_on]

    def dependents(self) -> List[Flow]:
        return [f for f in self.flows if f.depends_on]

    def trace(self) -> FlowTrace:
        """All graph flows as a trace (merged into the experiment trace)."""
        return FlowTrace(self.flows)

    def merge(self, other: "FlowGraph") -> "FlowGraph":
        merged_delays = dict(self.compute_delay_ns)
        merged_delays.update(other.compute_delay_ns)
        return FlowGraph(self.flows + other.flows, merged_delays)

    def validate(self) -> "FlowGraph":
        """Check the launch invariants; returns self for chaining.

        * every prerequisite id names a flow in this graph;
        * every prerequisite terminates at its dependent's source host
          (``dep.dst == dependent.src`` — the shard-locality invariant);
        * the dependency relation is acyclic;
        * at least one root exists when the graph is non-empty.
        """
        by_id = {f.flow_id: f for f in self.flows}
        if len(by_id) != len(self.flows):
            raise FlowGraphError("duplicate flow ids in flow graph")
        indegree: Dict[int, int] = {}
        dependents: Dict[int, List[int]] = {}
        for flow in self.flows:
            if not flow.depends_on:
                continue
            if len(set(flow.depends_on)) != len(flow.depends_on):
                raise FlowGraphError(
                    f"flow {flow.flow_id} lists a prerequisite twice"
                )
            indegree[flow.flow_id] = len(flow.depends_on)
            for dep_id in flow.depends_on:
                dep = by_id.get(dep_id)
                if dep is None:
                    raise FlowGraphError(
                        f"flow {flow.flow_id} depends on unknown flow {dep_id}"
                    )
                if dep.dst != flow.src:
                    raise FlowGraphError(
                        f"flow {flow.flow_id} (src host {flow.src}) depends on "
                        f"flow {dep_id} ending at host {dep.dst}; prerequisites "
                        "must terminate at the dependent's source host"
                    )
                dependents.setdefault(dep_id, []).append(flow.flow_id)
        if self.flows and len(indegree) == len(self.flows):
            raise FlowGraphError("flow graph has no root flows")
        # Kahn's algorithm: everything must be reachable from the roots.
        ready = [f.flow_id for f in self.flows if not f.depends_on]
        seen = 0
        while ready:
            fid = ready.pop()
            seen += 1
            for child in dependents.get(fid, ()):
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if seen != len(self.flows):
            raise FlowGraphError("flow graph contains a dependency cycle")
        return self


class FlowGraphLauncher:
    """Launches dependency-gated flows as their prerequisites complete.

    One launcher serves a whole run.  It installs itself as every host's
    ``on_flow_complete`` hook; each completion decrements the remaining
    prerequisite counts of its dependents, and a dependent whose count hits
    zero is stamped with its actual start time and scheduled on its source
    host exactly like a time-triggered flow would have been.
    """

    def __init__(self, graph: FlowGraph, topo) -> None:
        self.topo = topo
        self._flows_by_id: Dict[int, Flow] = {f.flow_id: f for f in graph.flows}
        self._compute_delay_ns = dict(graph.compute_delay_ns)
        self._remaining: Dict[int, int] = {}
        self._dependents: Dict[int, Tuple[int, ...]] = {}
        dependents: Dict[int, List[int]] = {}
        for flow in graph.flows:
            if not flow.depends_on:
                continue
            self._remaining[flow.flow_id] = len(flow.depends_on)
            for dep_id in flow.depends_on:
                dependents.setdefault(dep_id, []).append(flow.flow_id)
        for dep_id, children in dependents.items():
            self._dependents[dep_id] = tuple(children)
        self.launched = 0

    def install(self) -> None:
        """Hook every host's completion callback (must still be unclaimed)."""
        for host in self.topo.hosts.values():
            if host.on_flow_complete is not None:
                raise RuntimeError(
                    "host completion hook already claimed; install the flow-"
                    "graph launcher before other on_flow_complete consumers"
                )
            host.on_flow_complete = self.on_flow_complete

    def pending(self) -> int:
        """Dependents whose prerequisites have not all completed yet."""
        return len(self._remaining)

    # -- the hook ---------------------------------------------------------------

    def on_flow_complete(self, flow: Flow, now_ns: int) -> None:
        children = self._dependents.get(flow.flow_id)
        if not children:
            return
        remaining = self._remaining
        for child_id in children:
            left = remaining.get(child_id)
            if left is None:  # already launched (defensive)
                continue
            if left > 1:
                remaining[child_id] = left - 1
                continue
            del remaining[child_id]
            child = self._flows_by_id[child_id]
            start = now_ns + self._compute_delay_ns.get(child_id, 0)
            if child.start_ns > start:
                start = child.start_ns
            child.start_ns = start
            host = self.topo.host(child.src)
            self.topo.sim.schedule_at(start, host.start_flow, child)
            self.launched += 1
