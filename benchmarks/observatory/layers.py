"""Fold a cProfile run into the observatory's per-layer budget.

A layer is a group of ``repro`` modules chosen by path prefix, so the split
follows files when a module is broken up: ``sim/host.py`` becoming a
``sim/host/`` package still lands in ``sim.host``.  Self time of builtins and
of the standard library is charged to the nearest ``repro`` caller — a
``heapq.heappush`` issued by the engine is engine time — and whatever has no
``repro`` ancestor (the harness, pool plumbing of the parent) is ``other``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

OTHER = "other"

#: (path prefix relative to the ``repro`` package, layer); first match wins.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("sim/engine", "sim.engine"),
    ("sim/accel_build", "sim.engine"),
    ("sim/port", "sim.port"),
    ("sim/node", "sim.switch"),
    ("sim/switch", "sim.switch"),
    ("sim/buffer", "sim.switch"),
    ("sim/disciplines", "sim.switch"),
    ("sim/host", "sim.host"),
    ("sim/flow", "sim.host"),
    ("sim/packet", "sim.host"),
    ("core/", "core"),
    ("congestion/", "congestion"),
    ("workloads/", "workloads"),
    ("topology/", "topology"),
    ("results/", "results"),
    ("analysis/", "results"),
    ("sim/stats", "results"),
    ("experiments/", "experiments"),
    ("campaign/", "campaign"),
)

#: Every layer, in reporting order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in LAYER_PREFIXES)) + (OTHER,)

#: phase name -> (module path relative to ``repro``, function name)
#: candidates; the first one present in the profile gives the span.
PHASES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "setup": (("experiments/runner.py", "build_simulation"),),
    "start_flows": (("topology/topology.py", "start_flows"),),
    "run": (("sim/engine_accel.py", "run"), ("sim/engine.py", "run")),
    "finalize": (("results/sinks.py", "finalize"),),
}


def layer_of_path(relative_path: str) -> str:
    """Layer of a module given its path relative to the ``repro`` package."""
    for prefix, layer in LAYER_PREFIXES:
        if relative_path.startswith(prefix):
            return layer
    return OTHER


def _relative_to_package(code, package_dir: str) -> Optional[str]:
    """``sim/port.py`` for a code object inside ``package_dir``, else None."""
    filename = getattr(code, "co_filename", None)
    if filename is None or not filename.startswith(package_dir):
        return None
    return filename[len(package_dir):].lstrip(os.sep).replace(os.sep, "/")


def fold(stats, package_dir: str) -> Dict[str, object]:
    """Fold ``cProfile.Profile.getstats()`` entries into layers.

    Returns ``{"layers": {layer: {"calls", "self_s"}}, "edges": [...],
    "phases": {phase: seconds}, "total_s": float}``.  ``calls`` counts calls
    of the layer's own Python functions only and is exact; the ``self_s``
    values sum to ``total_s``.
    """
    package_dir = os.path.join(os.path.abspath(package_dir), "")
    own: Dict[object, Optional[str]] = {}
    relative: Dict[object, Optional[str]] = {}
    for entry in stats:
        rel = _relative_to_package(entry.code, package_dir)
        relative[entry.code] = rel
        own[entry.code] = layer_of_path(rel) if rel is not None else None

    calls = {layer: 0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    edges: Dict[Tuple[str, str], List[float]] = {}
    # Foreign (builtin / stdlib / harness) functions: who calls them, and how
    # much of their self time falls under each caller.
    callers: Dict[object, List[Tuple[object, float, float]]] = {}
    for entry in stats:
        caller_layer = own[entry.code]
        if caller_layer is not None:
            calls[caller_layer] += entry.callcount
            self_s[caller_layer] += entry.inlinetime
        for sub in entry.calls or ():
            callee_layer = own.get(sub.code)
            edge = edges.setdefault(
                (caller_layer or OTHER, callee_layer or OTHER), [0, 0.0]
            )
            edge[0] += sub.callcount
            edge[1] += sub.totaltime
            if callee_layer is None:
                callers.setdefault(sub.code, []).append(
                    (entry.code, sub.inlinetime, sub.totaltime)
                )

    # Each foreign function gets a distribution over layers from its callers,
    # weighted by inclusive time; foreign callers pass their own distribution
    # on.  A few sweeps settle the short stdlib chains (json -> encoder -> ...).
    weights: Dict[object, Dict[str, float]] = {
        code: {OTHER: 1.0} for code, layer in own.items() if layer is None
    }

    def layers_of(caller) -> Dict[str, float]:
        layer = own[caller]
        return {layer: 1.0} if layer is not None else weights[caller]

    for _ in range(12):
        for code, incoming in callers.items():
            mix: Dict[str, float] = {}
            for caller, _inline, total in incoming:
                for name, share in layers_of(caller).items():
                    mix[name] = mix.get(name, 0.0) + share * total
            norm = sum(mix.values())
            if norm > 0.0:
                weights[code] = {name: value / norm for name, value in mix.items()}

    for entry in stats:
        if own[entry.code] is not None:
            continue
        attributed = 0.0
        for caller, inline, _total in callers.get(entry.code, ()):
            attributed += inline
            for name, share in layers_of(caller).items():
                self_s[name] += share * inline
        # Self time with no recorded caller: the function was entered from
        # outside the profiled region (the harness itself).
        self_s[OTHER] += entry.inlinetime - attributed

    phases: Dict[str, float] = {}
    for phase, candidates in PHASES.items():
        phases[phase] = 0.0
        for path, name in candidates:
            spans = [
                entry.totaltime
                for entry in stats
                if relative[entry.code] == path and entry.code.co_name == name
            ]
            if spans:
                phases[phase] = sum(spans)
                break

    edge_rows = [
        {"caller": a, "callee": b, "calls": int(n), "total_s": t}
        for (a, b), (n, t) in sorted(edges.items(), key=lambda kv: -kv[1][1])
    ]
    return {
        "layers": {
            layer: {"calls": calls[layer], "self_s": self_s[layer]} for layer in LAYERS
        },
        "edges": edge_rows,
        "phases": phases,
        "total_s": sum(self_s.values()),
    }
