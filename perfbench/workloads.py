"""Workload configurations and per-pass operation streams.

Every workload is a closed loop: one client, one thread, one
connection, sending its next request only after the previous answer.
A run is a sequence of *passes*.  Each pass sets a fresh store up,
replays a warm-up prefix untimed, times the mix with the per-class
probes (below) spread through it, and finally replays everything
against the reference store.  Pass ``k`` of seed ``s`` draws its
operations from seed ``s * 1000 + k``, so the same seed always gives
the same inputs.

The HotSetCache is off in every workload, as in every ``serve-*``
deployment; a workload that turned it on would measure the cache, not
the storage layers, and needs one workload that fits the budget and
one that does not.

Per-class metrics come from the mix where the mix yields at least
``MIN_MIX_SAMPLES`` of the class per pass.  A class that occurs more
rarely (TAO's 0.2% writes) or not at all (GS3 search on TAO, TAO
classes on Graph Search) is timed by a *probe*: ``PROBE_OPS[group]``
operations of that class, spread evenly through the mix on the same
store and left out of the mix's throughput and latency.  Spreading
them lets each class see the machine at every point of the pass, as
the mix does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.model import GraphData
from repro.workloads import (
    LINKBENCH_MIX,
    TAO_MIX,
    GraphSearchWorkload,
    LinkBenchWorkload,
    TAOWorkload,
)
from repro.workloads.base import Operation, sample_mix
from repro.workloads.properties import TAOPropertyModel

#: PropertyIDs that writes may add after compression (the delimiter map
#: is immutable), as in the figure benches and the ``workload`` command.
EXTRA_PROPERTY_IDS = tuple(
    ["city", "interest"] + [f"attr{i:02d}" for i in range(38)] + ["payload", "data"]
)

WRITE_CLASSES = ("assoc_add", "obj_update", "obj_add", "assoc_del", "obj_del",
                 "assoc_update")

#: Per-class metric groups: metric stem -> the operation names it covers.
CLASS_GROUPS: Dict[str, Tuple[str, ...]] = {
    "obj_get": ("obj_get",),
    "assoc_range": ("assoc_range",),
    "assoc_get": ("assoc_get",),
    "assoc_count": ("assoc_count",),
    "write": WRITE_CLASSES,
    "search": ("GS3",),
}

GS_MIX: Dict[str, float] = {name: 20.0 for name in ("GS1", "GS2", "GS3", "GS4", "GS5")}

MIN_MIX_SAMPLES = 200
PROBE_OPS: Dict[str, int] = {
    "obj_get": 1000, "assoc_range": 1000, "assoc_get": 1000, "assoc_count": 1000,
    "write": 1000, "search": 100,
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload's fixed configuration."""

    name: str
    dataset: str
    mix: str                      # "tao", "linkbench" or "graph-search"
    skew: float                   # zipf exponent of node choice; 0 = uniform
    shards: int
    alpha: int
    logstore_threshold_bytes: int
    pass_ops: int                 # timed mix operations per pass
    warmup_ops: int               # untimed operations before the mix
    socket: bool = False          # served by serve-master + serve-shard
    servers: int = 0
    replication: int = 0
    min_freezes: int = 0          # LogStore freezes every pass must show

    def mix_weights(self) -> Dict[str, float]:
        return {"tao": TAO_MIX, "linkbench": LINKBENCH_MIX,
                "graph-search": GS_MIX}[self.mix]


WORKLOADS: Dict[str, Workload] = {
    "tao": Workload(
        "tao", "orkut", "tao", 0.0, shards=4, alpha=32,
        logstore_threshold_bytes=1 << 20, pass_ops=8000, warmup_ops=500,
    ),
    "linkbench": Workload(
        "linkbench", "linkbench-small", "linkbench", 1.4, shards=4, alpha=32,
        logstore_threshold_bytes=8 << 10, pass_ops=4000, warmup_ops=500,
        min_freezes=3,
    ),
    "graph-search": Workload(
        "graph-search", "orkut", "graph-search", 0.0, shards=4, alpha=32,
        logstore_threshold_bytes=1 << 20, pass_ops=4500, warmup_ops=200,
    ),
    "tao-socket": Workload(
        "tao-socket", "orkut", "tao", 0.0, shards=4, alpha=32,
        logstore_threshold_bytes=1 << 20, pass_ops=3000, warmup_ops=500,
        socket=True, servers=2, replication=2,
    ),
}


class _NoEdgePropertyModel(TAOPropertyModel):
    """TAO properties with none on edges: the serve-* graph file format
    carries no edge properties, so the socket lane writes none either."""

    def edge_properties(self):
        return {}


def _generator(kind: str, workload: Workload, graph: GraphData, seed: int):
    if kind == "graph-search":
        return GraphSearchWorkload(graph, seed=seed)
    if kind == "linkbench":
        return LinkBenchWorkload(graph, seed=seed, node_skew=workload.skew)
    generator = TAOWorkload(graph, seed=seed, node_skew=workload.skew)
    if workload.socket:
        generator.property_model = _NoEdgePropertyModel(generator.rng, scale=0.05)
    return generator


def _draw(generator, weights: Dict[str, float], count: int) -> List[Operation]:
    return [generator.make_operation(sample_mix(generator.rng, weights))
            for _ in range(count)]


def probe_groups(workload: Workload) -> List[str]:
    """Class groups this workload times with a probe (see module doc)."""
    weights = workload.mix_weights()
    total = sum(weights.values())
    groups = []
    for group, classes in CLASS_GROUPS.items():
        share = sum(weights.get(name, 0.0) for name in classes) / total
        if share * workload.pass_ops < MIN_MIX_SAMPLES:
            groups.append(group)
    return groups


@dataclass
class PassOps:
    warmup: List[Operation]
    #: (class group of a probe, or None for a mix operation, operation)
    #: in execution order.
    timed: List[Tuple[Optional[str], Operation]]

    def all(self) -> List[Operation]:
        return self.warmup + [op for _, op in self.timed]


def pass_ops(workload: Workload, graph: GraphData, seed: int,
             with_probes: bool = True) -> PassOps:
    """The operations of one pass, in execution order."""
    main = _generator(workload.mix, workload, graph, seed)
    weights = workload.mix_weights()
    warmup = _draw(main, weights, workload.warmup_ops)
    mix = _draw(main, weights, workload.pass_ops)
    if not with_probes:
        return PassOps(warmup, [(None, op) for op in mix])
    probes: Dict[str, List[Operation]] = {}
    fallbacks: Dict[str, object] = {}
    for group in probe_groups(workload):
        classes = CLASS_GROUPS[group]
        if all(name in weights for name in classes):
            generator, group_weights = main, weights
        else:
            kind = "graph-search" if group == "search" else "tao"
            if kind not in fallbacks:
                fallbacks[kind] = _generator(kind, workload, graph, seed + 500)
            generator = fallbacks[kind]
            group_weights = GS_MIX if kind == "graph-search" else TAO_MIX
        probes[group] = _draw(
            generator, {name: group_weights[name] for name in classes},
            PROBE_OPS[group],
        )
    longest = max((len(group_ops) for group_ops in probes.values()), default=0)
    interleaved = [(group, group_ops[i])
                   for i in range(longest)
                   for group, group_ops in probes.items() if i < len(group_ops)]
    # Probe k runs after mix operation (k + 1) * len(mix) // (probes + 1).
    timed: List[Tuple[Optional[str], Operation]] = []
    next_probe = 0
    for index, op in enumerate(mix):
        timed.append((None, op))
        while (next_probe < len(interleaved)
               and (next_probe + 1) * len(mix) // (len(interleaved) + 1) <= index):
            timed.append(interleaved[next_probe])
            next_probe += 1
    timed.extend(interleaved[next_probe:])
    return PassOps(warmup, timed)

