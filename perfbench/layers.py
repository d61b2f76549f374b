"""Which program functions the traced run wraps, per layer.

Layer names follow the program's modules.  Each layer's public
functions are wrapped so that its self time is measured where the work
happens; observers add the counts the per-layer metrics need (bytes
extracted, EdgeRecord probes that hit, pointer hops, freeze sizes).
"""

from __future__ import annotations

import time

from repro.core import delimiters, edgefile, executor, graph_store, logstore
from repro.core import nodefile, pointers, shard
from repro.server import client, ipc, protocol
from repro.succinct import succinct_file

from spans import Tracer


def _extract_bytes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("succinct.extract.bytes", len(result))


def _extract_batch_bytes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("succinct.extract.bytes", sum(len(item) for item in result))


def _find_record_hit(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("edgefile.find_record.calls", 1)
    if result is not None:
        tracer.add("edgefile.find_record.hits", 1)


def _pointer_hops(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("pointers.hops", len(result))


def _executor_tasks(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("executor.map_calls", 1)
    tracer.add("executor.tasks", len(result))


def _frame_bytes_out(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("server.bytes_out", len(result))


def _frame_bytes_in(tracer: Tracer, args, kwargs, result) -> None:
    if result is not None:
        tracer.add("server.bytes_in", len(result))


def _rpcs(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("server.rpcs", 1)


def _wrap_freeze(tracer: Tracer, new_shards: list) -> None:
    """``ZipG.freeze_logstore`` as the ``freeze`` layer.

    Records each freeze's duration and the LogStore bytes it consumed;
    the shards it produced are appended to ``new_shards`` so their size
    can be read after the wrappers are gone.  Sizes are read through
    the unwrapped function so the measurement records no spans.
    """
    size_bytes = logstore.LogStore.size_bytes

    def freeze_logstore(store, *args, **kwargs):
        bytes_in = size_bytes(store.logstore)
        began = time.perf_counter_ns()
        new_shard = traced(store, *args, **kwargs)
        elapsed_ms = (time.perf_counter_ns() - began) / 1e6
        tracer.add("freeze.count", 1)
        tracer.add("freeze.total_ms", elapsed_ms)
        tracer.maximum("freeze.max_ms", elapsed_ms)
        tracer.add("freeze.bytes_in", bytes_in)
        if new_shard is not None:
            new_shards.append(new_shard)
        return new_shard

    tracer.wrap(graph_store.ZipG, "freeze_logstore", "freeze")
    traced = graph_store.ZipG.freeze_logstore
    tracer.patch(graph_store.ZipG, "freeze_logstore", freeze_logstore)


def instrument_store(tracer: Tracer, new_shards: list) -> None:
    """Wrap the in-process storage layers (graph_store down to succinct).

    Shards created by LogStore freezes are appended to ``new_shards``.
    """
    sf = succinct_file.SuccinctFile
    tracer.wrap(sf, "search", "succinct.search")
    tracer.wrap(sf, "count", "succinct.search")
    tracer.wrap(sf, "extract", "succinct.extract", _extract_bytes)
    tracer.wrap(sf, "extract_batch", "succinct.extract", _extract_batch_bytes)

    tracer.wrap(edgefile.EdgeFile, "find_record", "edgefile", _find_record_hit)
    tracer.wrap_public(edgefile.EdgeFile, "edgefile", skip=("find_record",))
    tracer.wrap_public(edgefile.EdgeRecordFragment, "edgefile")
    tracer.wrap_public(nodefile.NodeFile, "nodefile")
    tracer.wrap_public(delimiters.DelimiterMap, "delimiters")

    table = pointers.UpdatePointerTable
    for name in ("node_shards", "edge_shards", "all_edge_shards"):
        tracer.wrap(table, name, "pointers", _pointer_hops)
    tracer.wrap_public(
        table, "pointers", skip=("node_shards", "edge_shards", "all_edge_shards")
    )

    tracer.wrap_public(shard.CompressedShard, "shard")
    tracer.wrap_public(shard.ShardEdgeFragment, "shard")
    tracer.wrap_public(logstore.LogStore, "logstore")
    tracer.wrap_public(logstore.LogEdgeFragment, "logstore")

    tracer.wrap(executor.ShardExecutor, "map", "executor", _executor_tasks)
    tracer.wrap(executor.ShardExecutor, "map_shared", "executor")

    _wrap_freeze(tracer, new_shards)
    tracer.wrap_public(
        graph_store.ZipG, "graph_store",
        skip=("freeze_logstore", "aggregate_stats", "reset_stats",
              "snapshot_metrics", "storage_footprint_bytes"),
    )
    tracer.wrap_public(graph_store.EdgeRecord, "graph_store")


def instrument_client(tracer: Tracer) -> None:
    """Wrap the client side of the socket serving layer.

    ``server.codec`` is request/response encoding and JSON framing,
    ``server.wait`` blocking socket reads (the server's whole handling
    time lands here), ``server.rpc`` the rest of a round trip.
    """
    tracer.wrap(protocol, "make_request", "server.codec")
    tracer.wrap(client, "unpack_response", "server.codec")
    tracer.wrap(ipc, "encode_frame", "server.codec", _frame_bytes_out)
    tracer.wrap(ipc, "_decode_body", "server.codec")
    tracer.wrap(ipc, "_recv_exact", "server.wait", _frame_bytes_in)
    rpc = protocol.RpcConnection
    tracer.wrap(rpc, "send_request", "server.rpc", _rpcs)
    tracer.wrap(rpc, "recv_response", "server.rpc")
