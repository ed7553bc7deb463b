"""RPC fan-out microservice workloads as dependency-driven flow graphs.

A user-facing request in a microservice fabric fans out into a tree of
internal RPCs: the front-end calls ``fan_out`` services, each of those calls
``fan_out`` more, ``depth`` levels deep, and responses fan back *in* — the
front-end cannot answer until the slowest leaf has.  Tail latency is
therefore governed by the worst path through the fabric, which makes these
trees the canonical stress test for a scheme's short-flow tail (the paper's
motivating metric).

The generator builds one :class:`~repro.workloads.flowgraph.FlowGraph` per
request tree:

* **requests flow down** — a child-level request leaves a service only after
  the request *into* that service arrived (``dep.dst == dependent.src``);
* **responses flow up** — a leaf responds after its request arrived; an
  internal service responds only after *all* of its children's responses
  arrived (fan-in), plus an optional ``compute_delay_ns`` of service time.

Requests are small fixed-size messages; response sizes are sampled from the
paper's empirical size CDFs (:data:`repro.workloads.distributions.WORKLOADS`)
so the fan-in traffic matches the measured distributions.  Request roots
arrive as a Poisson process over the configured window, and each service
dispatches its child calls *serially* — successive requests leave
``dispatch_gap_ns`` (plus jitter) apart, the way a CPU's send loop actually
behaves.  The stagger also keeps sibling subtrees off each other's exact
event timings: perfectly simultaneous identical sends would tie in time and
scheduling origin, where the engine's ordering contract no longer
guarantees a shard-independent tie-break.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.sim.flow import Flow

from .distributions import WORKLOADS
from .flowgraph import FlowGraph


@dataclass(frozen=True)
class RpcFanoutSpec:
    """Configuration of a stream of fan-out/fan-in request trees.

    Attributes
    ----------
    num_requests:
        User-facing requests (trees) to generate.
    fan_out:
        Children each service calls at every level.
    depth:
        Service levels below the client (``depth=1`` is a flat scatter-
        gather; ``depth=2`` adds a second tier, and so on).
    request_bytes:
        Size of every downward request message.
    response_workload:
        Name of the empirical size CDF (``google``, ``fb_hadoop``,
        ``websearch``) responses are drawn from.
    mean_interarrival_ns:
        Mean gap of the Poisson request-arrival process.
    compute_delay_ns:
        Service time inserted before each response (leaf and internal).
    dispatch_gap_ns:
        Per-call dispatch overhead of a service's send loop: the ``i``-th
        child request leaves roughly ``i * dispatch_gap_ns`` after the
        first, with seed-driven jitter.  Must stay positive — simultaneous
        identical sibling sends would tie beyond the engine's origin
        tie-break and lose shard-independence.
    start_ns:
        Arrival time of the first request.
    tag:
        Label stamped on every generated flow.
    """

    num_requests: int = 1
    fan_out: int = 3
    depth: int = 2
    request_bytes: int = 2_000
    response_workload: str = "google"
    mean_interarrival_ns: int = 100_000
    compute_delay_ns: int = 0
    dispatch_gap_ns: int = 200
    start_ns: int = 0
    tag: str = "rpc"

    def validate(self) -> None:
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        if self.fan_out <= 0:
            raise ValueError("fan_out must be positive")
        if self.depth <= 0:
            raise ValueError("depth must be positive")
        if self.request_bytes <= 0:
            raise ValueError("request_bytes must be positive")
        if self.response_workload not in WORKLOADS:
            raise ValueError(
                f"unknown response workload {self.response_workload!r}; "
                f"expected one of {sorted(WORKLOADS)}"
            )
        if self.mean_interarrival_ns <= 0:
            raise ValueError("mean_interarrival_ns must be positive")
        if self.dispatch_gap_ns <= 0:
            raise ValueError("dispatch_gap_ns must be positive")
        if self.compute_delay_ns < 0 or self.start_ns < 0:
            raise ValueError("delays must be non-negative")

    def tree_size(self) -> int:
        """Service nodes per request tree (client excluded)."""
        return sum(self.fan_out ** level for level in range(1, self.depth + 1))

    # -- generation -------------------------------------------------------------------

    def generate(self, host_ids: Sequence[int], seed: int = 0) -> FlowGraph:
        """Build the flow graph: ``num_requests`` independent request trees."""
        self.validate()
        hosts = list(host_ids)
        if len(hosts) < 2:
            raise ValueError("RPC workloads need at least 2 hosts")
        rng = random.Random(seed)
        sizes = WORKLOADS[self.response_workload]
        graph = FlowGraph()
        arrival = float(self.start_ns)
        src_port = 3_000 + (seed % 40_000)
        for _ in range(self.num_requests):
            self._generate_tree(graph, hosts, rng, sizes, int(arrival), src_port)
            arrival += rng.expovariate(1.0 / self.mean_interarrival_ns)
        return graph.validate()

    def _generate_tree(self, graph, hosts, rng, sizes, arrival_ns, src_port) -> None:
        client = rng.choice(hosts)
        self._fan_out_from(
            graph, hosts, rng, sizes,
            node=client, level=0, request_in=None,
            arrival_ns=arrival_ns, src_port=src_port,
        )

    def _fan_out_from(
        self, graph, hosts, rng, sizes,
        node, level, request_in, arrival_ns, src_port,
    ) -> List[int]:
        """Issue this node's child requests; return its children's response ids.

        ``request_in`` is the id of the request flow that arrived *at* this
        node (``None`` for the client root).  Returns the flow ids of the
        responses arriving back at this node, which the caller folds into
        this node's own response dependencies.
        """
        response_ids: List[int] = []
        for index in range(self.fan_out):
            child = rng.choice(hosts)
            while child == node:
                child = rng.choice(hosts)
            # Serial send loop: the i-th call leaves inside the i-th
            # dispatch-gap slot (disjoint slots, jittered within each).
            dispatch_ns = index * self.dispatch_gap_ns + rng.randrange(
                self.dispatch_gap_ns
            )
            request = Flow(
                src=node,
                dst=child,
                size=self.request_bytes,
                start_ns=arrival_ns + dispatch_ns,
                src_port=src_port,
                tag=self.tag,
                depends_on=(request_in,) if request_in is not None else None,
            )
            graph.flows.append(request)
            if request_in is not None and dispatch_ns:
                # Dependency-launched: the stagger rides the launch delay
                # (start_ns alone would usually already be in the past).
                graph.compute_delay_ns[request.flow_id] = dispatch_ns
            if level + 1 < self.depth:
                child_responses = self._fan_out_from(
                    graph, hosts, rng, sizes,
                    node=child, level=level + 1, request_in=request.flow_id,
                    arrival_ns=arrival_ns, src_port=src_port,
                )
                # Internal service: responds after all children responded.
                response_deps = tuple(child_responses)
            else:
                # Leaf service: responds once its request arrived.
                response_deps = (request.flow_id,)
            response = Flow(
                src=child,
                dst=node,
                size=max(1, int(sizes.sample(rng))),
                start_ns=arrival_ns,
                src_port=src_port,
                tag=self.tag,
                depends_on=response_deps,
            )
            graph.flows.append(response)
            if self.compute_delay_ns:
                graph.compute_delay_ns[response.flow_id] = self.compute_delay_ns
            response_ids.append(response.flow_id)
        return response_ids
