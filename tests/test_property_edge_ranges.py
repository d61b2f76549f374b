"""Differential tests for TimeOrder range reads of an EdgeRecord.

``EdgeRecord.data_range`` must answer exactly as a loop of per-edge
``data_at`` calls, and the Algorithm 1-3 methods built on it must
answer exactly as the pointer-based reference store, on records spread
over 1-4 fragments: the initial compressed shard, shards made by
LogStore freezes, and the active LogStore, with deletes at fragments'
first and last TimeOrders. Both flat-file codecs run, with the hot-set
cache on and off.
"""

import pytest
from conftest import hypothesis_examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.pointerstore import PointerGraphStore
from repro.bench.systems import ZipGSystem
from repro.core import GraphData, ZipG
from repro.core.delimiters import DelimiterMap
from repro.core.errors import GraphFormatError

PROPERTY_IDS = ["note", "w"]
SOURCE = 0
EDGE_TYPES = (0, 1)

values = st.text(
    alphabet=st.characters(min_codepoint=0x20, blacklist_categories=("Cs",)),
    max_size=6,
)
edge_properties = st.dictionaries(st.sampled_from(PROPERTY_IDS), values, max_size=2)
edge = st.tuples(
    st.sampled_from(EDGE_TYPES),
    st.integers(min_value=0, max_value=30),  # timestamp: ties are likely
    edge_properties,
)


@st.composite
def fragmented_graph(draw):
    """An initial graph plus write batches for node ``SOURCE``; each
    batch but the last is followed by a freeze."""
    initial = draw(st.lists(edge, max_size=6))
    batches = draw(st.lists(st.lists(edge, min_size=1, max_size=4), max_size=3))
    return initial, batches


class Deployment:
    """ZipG and the reference store, fed the same writes.

    Every edge gets its own destination, so deleting by destination
    removes exactly one edge.
    """

    def __init__(self, initial, codec, cache):
        self.next_destination = 100
        graph = GraphData()
        graph.add_node(SOURCE, {"note": "source"})
        for edge_type, timestamp, properties in initial:
            graph.add_edge(SOURCE, self._destination(), edge_type, timestamp, properties)
        self.store = ZipG.compress(
            graph, num_shards=2, alpha=4, encoding=codec,
            logstore_threshold_bytes=1 << 30, extra_property_ids=PROPERTY_IDS,
        )
        if cache:
            self.store.enable_cache(1 << 20)
        self.system = ZipGSystem(self.store)
        self.reference = PointerGraphStore.load(graph)

    def _destination(self) -> int:
        self.next_destination += 1
        return self.next_destination

    def append(self, edge_type, timestamp, properties):
        destination = self._destination()
        for system in (self.system, self.reference):
            system.append_edge(SOURCE, edge_type, destination, timestamp, properties)

    def delete(self, edge_type, destination):
        for system in (self.system, self.reference):
            system.delete_edge(SOURCE, edge_type, destination)


def build(initial, batches, codec, cache, data):
    deployment = Deployment(initial, codec, cache)
    for index, batch in enumerate(batches):
        for edge_type, timestamp, properties in batch:
            deployment.append(edge_type, timestamp, properties)
        if index < len(batches) - 1:
            deployment.store.freeze_logstore()
    # Delete the first and/or last edge of some fragments.
    for edge_type in EDGE_TYPES:
        record = deployment.store.get_edge_record(SOURCE, edge_type)
        doomed = set()
        for fragment in record.fragments:
            if data.draw(st.booleans(), label="delete first"):
                doomed.add(fragment.destination_at(0))
            if data.draw(st.booleans(), label="delete last"):
                doomed.add(fragment.destination_at(fragment.edge_count - 1))
        for destination in sorted(doomed):
            deployment.delete(edge_type, destination)
    return deployment


def assert_range_matches_loop(record):
    count = record.edge_count
    for with_properties in (True, False):
        loop = [record.data_at(i, with_properties) for i in range(count)]
        for beyond in (-1, count, count + 1):
            with pytest.raises(IndexError):
                record.data_at(beyond, with_properties)
        for begin in range(count + 3):
            for end in range(begin, count + 3):
                if end > count and begin < end:
                    with pytest.raises(IndexError):
                        record.data_range(begin, end, with_properties)
                else:
                    assert record.data_range(begin, end, with_properties) == loop[begin:end]


def assert_algorithms_match_reference(deployment):
    zipg, reference = deployment.system, deployment.reference
    for edge_type in EDGE_TYPES:
        count = reference.edge_count(SOURCE, edge_type)
        assert zipg.edge_count(SOURCE, edge_type) == count
        for start in range(count + 2):
            for limit in (None, 1, 3):
                for with_properties in (True, False):
                    assert zipg.edges_from_index(
                        SOURCE, edge_type, start, limit, with_properties
                    ) == reference.edges_from_index(
                        SOURCE, edge_type, start, limit, with_properties
                    )
        every = reference.edges_in_time_range(SOURCE, edge_type, None, None)
        destinations = [entry.destination for entry in every]
        for t_low, t_high in ((None, None), (5, 20), (10, None), (None, 10), (20, 5)):
            for limit in (None, 2):
                assert zipg.edges_in_time_range(
                    SOURCE, edge_type, t_low, t_high, limit
                ) == reference.edges_in_time_range(SOURCE, edge_type, t_low, t_high, limit)
            for wanted in (set(), set(destinations[::2]), {destinations[-1]} if every else {7}):
                expected = [
                    entry
                    for entry in reference.edges_in_time_range(SOURCE, edge_type, t_low, t_high)
                    if entry.destination in wanted
                ]
                assert zipg.assoc_get(SOURCE, edge_type, wanted, t_low, t_high) == expected


@pytest.mark.parametrize("cache", [False, True], ids=["cache-off", "cache-on"])
@pytest.mark.parametrize("codec", ["succinct", "offsets"])
@settings(max_examples=hypothesis_examples(8), deadline=None)
@given(graph=fragmented_graph(), data=st.data())
def test_range_reads_match_per_edge_reads_and_reference(graph, data, codec, cache):
    initial, batches = graph
    deployment = build(initial, batches, codec, cache, data)
    for edge_type in EDGE_TYPES:
        record = deployment.store.get_edge_record(SOURCE, edge_type)
        assert record.num_fragments <= 4
        assert_range_matches_loop(record)
    assert_algorithms_match_reference(deployment)


def test_fragmented_record_covers_every_fragment_kind():
    """A fixed four-fragment record: initial shard, two frozen shards
    and the LogStore, with deletes at a fragment's first and last
    TimeOrder, read through every Algorithm."""
    initial = [(0, 10, {"w": "a"}), (0, 20, {}), (0, 30, {"note": "c"})]
    batches = [[(0, 15, {"w": "b"}), (0, 25, {})], [(0, 5, {"note": "x"})],
               [(0, 20, {"w": "log"}), (0, 40, {})]]
    deployment = Deployment(initial, "succinct", cache=False)
    for index, batch in enumerate(batches):
        for edge_type, timestamp, properties in batch:
            deployment.append(edge_type, timestamp, properties)
        if index < len(batches) - 1:
            deployment.store.freeze_logstore()
    record = deployment.store.get_edge_record(SOURCE, 0)
    assert record.num_fragments == 4
    first = record.fragments[0]
    deployment.delete(0, first.destination_at(0))
    deployment.delete(0, first.destination_at(first.edge_count - 1))
    record = deployment.store.get_edge_record(SOURCE, 0)
    assert record.edge_count == 6
    assert [entry.timestamp for entry in record.data_range(0, 6)] == [5, 15, 20, 20, 25, 40]
    assert_range_matches_loop(record)
    assert_algorithms_match_reference(deployment)


@pytest.mark.parametrize("layout", ["direct", "merged", "logstore"])
def test_negative_start_index_raises(layout):
    graph = GraphData()
    graph.add_node(SOURCE, {})
    if layout != "logstore":
        for timestamp in (10, 20, 30):
            graph.add_edge(SOURCE, timestamp, 0, timestamp)
    system = ZipGSystem(ZipG.compress(graph, num_shards=2, alpha=4))
    if layout == "merged":
        system.delete_edge(SOURCE, 0, 20)
    if layout == "logstore":
        system.append_edge(SOURCE, 0, 5, 50)
        system.append_edge(SOURCE, 0, 6, 60)
    record = system.store.get_edge_record(SOURCE, 0)
    assert record.num_fragments == 1
    with pytest.raises(IndexError):
        system.edges_from_index(SOURCE, 0, -1, 2)
    with pytest.raises(IndexError):
        system.edges_from_index(SOURCE, 0, -2, None)
    assert system.edges_from_index(SOURCE, 0, -1, 0) == []


@settings(max_examples=hypothesis_examples(60), deadline=None)
@given(
    num_ids=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
def test_parse_sparse_inverts_serialize_sparse(num_ids, data):
    """One-byte maps (up to 24 PropertyIDs) and two-byte maps."""
    property_ids = [f"p{i:02d}" for i in range(num_ids)]
    dmap = DelimiterMap(property_ids)
    assert dmap.uses_two_byte_delimiters == (num_ids > 24)
    properties = data.draw(st.dictionaries(st.sampled_from(property_ids), values))
    assert dmap.parse_sparse(dmap.serialize_sparse(properties)) == properties


@pytest.mark.parametrize(
    "property_ids, payload",
    [
        (["a"], b"\x03x"),  # pool delimiter past the assigned ones
        (["a"], b"\x02x\x1cy"),  # reserved control byte, not a delimiter
        ([f"p{i:02d}" for i in range(30)], b"\x02\x02x\x19\x19y"),
        ([f"p{i:02d}" for i in range(30)], b"\x02\x02x\x02"),  # truncated
    ],
)
def test_parse_sparse_rejects_unassigned_delimiter(property_ids, payload):
    with pytest.raises(GraphFormatError):
        DelimiterMap(property_ids).parse_sparse(payload)
