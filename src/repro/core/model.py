"""ZipG data model (§2.1) and API value types (§2.2).

The property-graph model: nodes and edges, each with a PropertyList of
(PropertyID, PropertyValue) pairs. Edges are 3-tuples (sourceID,
destinationID, EdgeType) with an optional Timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

WILDCARD = "*"
"""Wildcard argument accepted by ZipG queries for PropertyID, edgeType,
tLo, tHi and timeOrder (§2.2)."""

PropertyList = Dict[str, str]
"""A PropertyList is a collection of (PropertyID, PropertyValue) pairs."""


@dataclass(frozen=True)
class Edge:
    """A directed edge: (sourceID, destinationID, EdgeType) plus an
    optional timestamp and PropertyList."""

    source: int
    destination: int
    edge_type: int
    timestamp: int = 0
    properties: PropertyList = field(default_factory=dict)

    def __post_init__(self):
        if self.edge_type < 0:
            raise ValueError("edge_type must be non-negative")
        if self.timestamp < 0:
            raise ValueError("timestamp must be non-negative")


@dataclass(frozen=True)
class EdgeData:
    """The (destinationID, timestamp, PropertyList) triplet for one edge
    at a given TimeOrder within an EdgeRecord (§2.2)."""

    destination: int
    timestamp: int
    properties: PropertyList = field(default_factory=dict)


def check_time_order_range(begin: int, end: int, count: int) -> bool:
    """Whether TimeOrders ``[begin, end)`` are a non-empty range of a
    record with ``count`` edges.

    Raises IndexError when a non-empty range leaves ``[0, count)``, so
    a range read fails exactly when the per-edge reads it replaces
    would.
    """
    if begin >= end:
        return False
    if begin < 0 or end > count:
        raise IndexError(f"TimeOrders [{begin}, {end}) out of range [0, {count})")
    return True


class GraphData:
    """Mutable in-memory property graph, the input to ``compress``.

    This is the *uncompressed* representation applications hand to ZipG
    (and to the baseline stores); it also serves as the ground-truth
    oracle in the test suite.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, PropertyList] = {}
        self._edges: Dict[Tuple[int, int], List[Edge]] = {}
        self._edge_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, node_id: int, properties: Optional[PropertyList] = None) -> None:
        """Add (or replace) a node and its PropertyList."""
        if node_id < 0:
            raise ValueError("node ids must be non-negative")
        self._nodes[node_id] = dict(properties or {})

    def add_edge(
        self,
        source: int,
        destination: int,
        edge_type: int = 0,
        timestamp: int = 0,
        properties: Optional[PropertyList] = None,
    ) -> None:
        """Add a directed edge; endpoints are auto-created if absent."""
        edge = Edge(source, destination, edge_type, timestamp, dict(properties or {}))
        self._nodes.setdefault(source, {})
        self._nodes.setdefault(destination, {})
        key = (source, edge_type)
        self._edges.setdefault(key, []).append(edge)
        self._edge_count += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def node_ids(self) -> List[int]:
        return sorted(self._nodes)

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    def node_properties(self, node_id: int) -> PropertyList:
        return dict(self._nodes[node_id])

    def edges_of(self, source: int, edge_type: Optional[int] = None) -> List[Edge]:
        """Edges out of ``source`` (of one type, or all types), sorted by
        (timestamp, destination)."""
        if edge_type is None:
            edges: List[Edge] = []
            for (src, _), bucket in self._edges.items():
                if src == source:
                    edges.extend(bucket)
        else:
            edges = list(self._edges.get((source, edge_type), []))
        return sorted(edges, key=lambda e: (e.timestamp, e.destination))

    def edge_types_of(self, source: int) -> List[int]:
        return sorted({etype for (src, etype) in self._edges if src == source})

    def all_edges(self) -> Iterator[Edge]:
        for bucket in self._edges.values():
            yield from bucket

    def all_property_ids(self) -> Set[str]:
        """Every PropertyID occurring on any node or edge."""
        ids: Set[str] = set()
        for properties in self._nodes.values():
            ids.update(properties)
        for bucket in self._edges.values():
            for edge in bucket:
                ids.update(edge.properties)
        return ids

    def degree(self, node_id: int, edge_type: Optional[int] = None) -> int:
        return len(self.edges_of(node_id, edge_type))

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    def on_disk_size_bytes(self) -> int:
        """Size of the canonical uncompressed text representation.

        This is the "raw input size" denominator of Figure 5: one line
        per node (``id<TAB>pid=value;...``) and one line per edge
        (``src<TAB>dst<TAB>type<TAB>ts<TAB>pid=value;...``).
        """
        total = 0
        for node_id, properties in self._nodes.items():
            total += len(str(node_id)) + 2  # id, tab, newline
            total += sum(len(k) + len(v) + 2 for k, v in properties.items())
        for bucket in self._edges.values():
            for edge in bucket:
                total += (
                    len(str(edge.source))
                    + len(str(edge.destination))
                    + len(str(edge.edge_type))
                    + len(str(edge.timestamp))
                    + 5
                )
                total += sum(len(k) + len(v) + 2 for k, v in edge.properties.items())
        return total

    # ------------------------------------------------------------------
    # Oracle queries (used by tests and by the reference executor)
    # ------------------------------------------------------------------

    def find_nodes(self, properties: PropertyList) -> List[int]:
        """NodeIDs whose PropertyList matches all given pairs exactly."""
        return sorted(
            node_id
            for node_id, node_props in self._nodes.items()
            if all(node_props.get(k) == v for k, v in properties.items())
        )

    def neighbor_ids(
        self,
        node_id: int,
        edge_type: Optional[int] = None,
        properties: Optional[PropertyList] = None,
    ) -> List[int]:
        """Destinations of ``node_id``'s edges, optionally filtered by
        edge type and by destination-node properties."""
        destinations = [edge.destination for edge in self.edges_of(node_id, edge_type)]
        if properties:
            destinations = [
                dst
                for dst in destinations
                if all(self._nodes.get(dst, {}).get(k) == v for k, v in properties.items())
            ]
        return destinations
