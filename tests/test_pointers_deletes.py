"""Unit tests for update pointers and deletion bitmaps."""

from repro.core.deletes import DeletionIndex
from repro.core.pointers import ACTIVE_LOGSTORE, UpdatePointerTable


class TestUpdatePointerTable:
    def test_node_pointers_in_append_order(self):
        table = UpdatePointerTable()
        table.add_node_pointer(1, 3)
        table.add_node_pointer(1, 5)
        table.add_node_pointer(1, 3)  # dedupe
        assert table.node_shards(1) == [3, 5]
        assert table.node_shards(2) == []

    def test_edge_pointers_per_type(self):
        table = UpdatePointerTable()
        table.add_edge_pointer(1, 0, 4)
        table.add_edge_pointer(1, 1, 5)
        assert table.edge_shards(1, 0) == [4]
        assert table.edge_shards(1, 1) == [5]
        assert table.edge_shards(1, 2) == []

    def test_all_edge_shards_union(self):
        table = UpdatePointerTable()
        table.add_edge_pointer(1, 0, 4)
        table.add_edge_pointer(1, 1, 5)
        table.add_edge_pointer(1, 1, 4)
        assert table.all_edge_shards(1) == [4, 5]

    def test_promote_active_node(self):
        table = UpdatePointerTable()
        table.add_node_pointer(1, ACTIVE_LOGSTORE)
        table.promote_node_active(1, 7)
        assert table.node_shards(1) == [7]

    def test_promote_active_preserves_order(self):
        table = UpdatePointerTable()
        table.add_node_pointer(1, 3)
        table.add_node_pointer(1, ACTIVE_LOGSTORE)
        table.promote_node_active(1, 9)
        assert table.node_shards(1) == [3, 9]

    def test_promote_active_edge(self):
        table = UpdatePointerTable()
        table.add_edge_pointer(2, 1, ACTIVE_LOGSTORE)
        table.promote_edge_active(2, 1, 8)
        assert table.edge_shards(2, 1) == [8]

    def test_promote_noop_without_active(self):
        table = UpdatePointerTable()
        table.add_node_pointer(1, 3)
        table.promote_node_active(1, 9)
        assert table.node_shards(1) == [3]

    def test_fragment_count(self):
        table = UpdatePointerTable()
        assert table.fragment_count(1) == 0
        table.add_node_pointer(1, 3)
        table.add_edge_pointer(1, 0, 3)
        table.add_edge_pointer(1, 0, 5)
        assert table.fragment_count(1) == 2  # shards {3, 5}

    def test_tracked_nodes(self):
        table = UpdatePointerTable()
        table.add_node_pointer(1, 3)
        table.add_edge_pointer(2, 0, 4)
        assert table.tracked_nodes() == {1, 2}

    def test_serialized_size(self):
        table = UpdatePointerTable()
        assert table.serialized_size_bytes() == 0
        table.add_node_pointer(1, 3)
        assert table.serialized_size_bytes() > 0


class TestDeletionIndex:
    def test_node_bitmap(self):
        index = DeletionIndex(10, 20)
        assert not index.node_deleted(5)
        index.delete_node(5)
        assert index.node_deleted(5)
        assert index.num_deleted_nodes() == 1

    def test_edge_bitmap(self):
        index = DeletionIndex(10, 20)
        index.delete_edge(19)
        assert index.edge_deleted(19)
        assert not index.edge_deleted(0)
        assert index.num_deleted_edges() == 1

    def test_serialized_size(self):
        assert DeletionIndex(64, 64).serialized_size_bytes() == 16

    def test_edge_range_reads(self):
        index = DeletionIndex(1, 200)
        for edge in (0, 63, 64, 199):
            index.delete_edge(edge)
        assert index.num_deleted_edges_in(0, 200) == 4
        assert index.num_deleted_edges_in(1, 63) == 0
        assert index.num_deleted_edges_in(63, 65) == 2
        assert index.num_deleted_edges_in(64, 64) == 0
        flags = index.edges_deleted(60, 70)
        assert flags == [index.edge_deleted(e) for e in range(60, 70)]


class TestFragmentDeletesMatchReference:
    """Lazy deletes inside one compressed EdgeRecord fragment, read back
    through the merged EdgeRecord, must give the reference store's
    TimeOrder.

    Source 1 owns edges 0..49 of the shard's edge numbering and source
    2 owns 50..149, so source 2's fragment starts mid-block and spans
    the 64- and 128-bit block boundaries of the deletion bitmap.
    """

    @staticmethod
    def _graph():
        from repro.core.model import GraphData

        graph = GraphData()
        for source, count in ((1, 50), (2, 100)):
            for k in range(count):
                graph.add_edge(source, 1000 * source + k, 0, timestamp=10 * k + source)
        return graph

    @staticmethod
    def _stores():
        from repro.baselines.pointerstore import PointerGraphStore
        from repro.core.graph_store import ZipG

        graph = TestFragmentDeletesMatchReference._graph()
        return ZipG.compress(graph, num_shards=1, alpha=4), PointerGraphStore.load(graph)

    @staticmethod
    def _assert_same(store, reference, source):
        record = store.get_edge_record(source, 0)
        ours = [
            (data.destination, data.timestamp)
            for data in (store.get_edge_data(record, t) for t in range(record.edge_count))
        ]
        theirs = [
            (data.destination, data.timestamp)
            for data in reference.edges_from_index(source, 0, 0, None)
        ]
        assert ours == theirs

    def _check(self, local_orders, append=False):
        store, reference = self._stores()
        shard = store.shards[0]
        base = shard.edge_file.find_record(2, 0).base_edge_index
        assert base == 50
        for local in local_orders:
            destination = 2000 + local
            assert store.delete_edge(2, 0, destination) == 1
            assert reference.delete_edge(2, 0, destination) == 1
        if append:
            store.append_edge(2, 0, 7777, 55)
            reference.append_edge(2, 0, 7777, 55)
        fragment = shard.edge_fragment(2, 0)
        assert fragment.deleted_count() == len(local_orders)
        assert fragment.deleted_flags() == [
            fragment.deleted(local) for local in range(fragment.edge_count)
        ]
        assert [i for i, flag in enumerate(fragment.deleted_flags()) if flag] == sorted(
            local_orders
        )
        assert shard.edge_fragment(1, 0).deleted_count() == 0
        self._assert_same(store, reference, 2)
        self._assert_same(store, reference, 1)

    def test_delete_first_edge(self):
        self._check([0])

    def test_delete_last_edge(self):
        self._check([99])

    def test_delete_across_block_boundary(self):
        # Edge indices 63 and 64 (locals 13, 14) sit in different
        # 64-bit blocks; 127 and 128 straddle the next boundary.
        self._check([13, 14, 77, 78])

    def test_deletes_merged_with_logstore_fragment(self):
        self._check([0, 14, 99], append=True)
