"""Micro-benchmarks for the Succinct substrate (real wall-clock).

Unlike the figure benches (which price metered storage touches through
the cost model), these measure actual execution time of the compressed
primitives every ZipG query bottoms out in: compression, ``extract``,
``search``, and the NodeFile/EdgeFile operations built on them.
"""

import time

import numpy as np
import pytest
from conftest import record_bench

from repro.bench.datasets import build_dataset
from repro.core.delimiters import DelimiterMap
from repro.core.edgefile import EdgeFile
from repro.core.nodefile import NodeFile
from repro.succinct import SuccinctFile
from repro.workloads.properties import TAOPropertyModel

TEXT_BYTES = 64 * 1024


def _best(fn, repeats=3):
    """Fastest of ``repeats`` timed calls of ``fn``, in seconds."""
    floor = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        floor = min(floor, time.perf_counter() - start)
    return floor


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(5)
    model = TAOPropertyModel(rng)
    chunks = []
    size = 0
    while size < TEXT_BYTES:
        blob = " ".join(model.node_properties().values()).encode("utf-8")
        chunks.append(blob)
        size += len(blob)
    return b" ".join(chunks)[:TEXT_BYTES].replace(b"\x00", b" ")


@pytest.fixture(scope="module")
def compressed(corpus):
    return SuccinctFile(corpus, alpha=32)


def test_micro_compress_64kib(benchmark, corpus):
    result = benchmark.pedantic(
        lambda: SuccinctFile(corpus, alpha=32), rounds=3, iterations=1
    )
    assert result.original_size_bytes() == len(corpus)


def test_micro_extract_1kib(benchmark, compressed, corpus):
    """The vectorized extract kernel (one lockstep NPA walk)."""
    offsets = np.random.default_rng(1).integers(0, len(corpus) - 1024, 50)
    offset_iter = iter(offsets.tolist() * 100)

    def run():
        offset = next(offset_iter)
        return compressed.extract(offset, 1024)

    result = benchmark(run)
    assert len(result) == 1024


def test_micro_extract_scalar_1kib(benchmark, compressed, corpus):
    """Scalar baseline for the same extracts: one Python-level NPA hop
    per byte. The batched/scalar ratio is the kernel speedup."""
    offsets = np.random.default_rng(1).integers(0, len(corpus) - 1024, 50)
    offset_iter = iter(offsets.tolist() * 100)

    def run():
        offset = next(offset_iter)
        return compressed.extract_scalar(offset, 1024)

    result = benchmark(run)
    assert len(result) == 1024


def test_micro_search(benchmark, compressed, corpus):
    pattern = corpus[5_000:5_012]

    def run():
        return compressed.search(pattern)

    hits = benchmark(run)
    assert len(hits) >= 1


def test_micro_search_many_hits(benchmark, compressed, corpus):
    """Batched SA resolution over a large matching row range (the case
    the per-row scalar loop made linear in the hit count)."""
    pattern = corpus[5_000:5_002]
    assert compressed.count(pattern) > 50

    def run():
        return compressed.search(pattern)

    hits = benchmark(run)
    assert len(hits) > 50


def test_micro_search_scalar_many_hits(benchmark, compressed, corpus):
    """Scalar baseline for the many-hit search."""
    pattern = corpus[5_000:5_002]

    def run():
        return compressed.search_scalar(pattern)

    hits = benchmark(run)
    assert len(hits) > 50


def test_micro_kernel_counters_and_parity(compressed, corpus):
    """Not a timing bench: asserts the batched kernels actually ran
    batched (AccessStats counters) and match the scalar paths byte for
    byte on this corpus."""
    pattern = corpus[5_000:5_002]
    stats = compressed.stats
    before = stats.snapshot()
    batched = compressed.extract(2_048, 1_024)
    hits = compressed.search(pattern)
    delta = stats.delta_since(before)
    assert delta.batch_kernel_calls >= 2
    assert delta.npa_batched_hops > 0
    assert batched == compressed.extract_scalar(2_048, 1_024)
    assert (hits == compressed.search_scalar(pattern)).all()


def test_micro_count(benchmark, compressed, corpus):
    pattern = corpus[9_000:9_008]
    count = benchmark(lambda: compressed.count(pattern))
    assert count >= 1


def test_micro_kernel_speedup_artifact(compressed, corpus):
    """Self-timed (so it runs under ``--benchmark-disable`` in CI):
    records the batched-vs-scalar kernel speedups as the gate's
    machine-independent ratios. Both sides run on the same machine in
    the same process, so the ratio cancels absolute speed."""

    offsets = np.random.default_rng(1).integers(
        0, len(corpus) - 1024, 8
    ).tolist()
    extract_batched = _best(lambda: [compressed.extract(o, 1024) for o in offsets])
    extract_scalar = _best(lambda: [compressed.extract_scalar(o, 1024) for o in offsets])
    pattern = corpus[5_000:5_002]
    search_batched = _best(lambda: compressed.search(pattern))
    search_scalar = _best(lambda: compressed.search_scalar(pattern))

    extract_speedup = extract_scalar / extract_batched
    search_speedup = search_scalar / search_batched
    record_bench(
        "micro_succinct",
        result={
            "workload": "micro_succinct",
            "extract_speedup_batched_over_scalar": extract_speedup,
            "search_speedup_batched_over_scalar": search_speedup,
            "extract_batched_seconds": extract_batched,
            "search_batched_seconds": search_batched,
        },
        gate={
            "micro.extract_speedup_batched_over_scalar":
                (extract_speedup, "higher_better"),
            "micro.search_speedup_batched_over_scalar":
                (search_speedup, "higher_better"),
        },
    )
    # The vectorized kernels must beat the per-byte/per-row Python
    # loops outright; the gate pins the (much larger) typical margin.
    assert extract_speedup > 1.0
    assert search_speedup > 1.0


def test_micro_nodefile_property_lookup(benchmark):
    rng = np.random.default_rng(2)
    model = TAOPropertyModel(rng)
    nodes = {i: model.node_properties() for i in range(100)}
    dmap = DelimiterMap(model.property_ids())
    node_file = NodeFile(nodes, dmap, alpha=32)
    node_iter = iter(list(range(100)) * 1000)

    def run():
        return node_file.get_property(next(node_iter), "city")

    value = benchmark(run)
    assert value is not None


def test_micro_find_record_vs_extract_artifact():
    """Self-timed: EdgeFile record lookup (backward search for
    ``$src#etype,`` plus SA resolution of the hit) over a 48-byte
    extract on the same compressed file.

    The EdgeFile holds the records of every fourth source of the
    ``orkut`` TAO graph at alpha 32, a shard of the shape every
    assoc_* query searches. Half
    the probes hit a record and half miss on an absent edge type, as
    lookups on the other shards do. Backward search makes one numpy
    call per pattern byte and extract a fixed few, so a per-character
    numpy overhead in search shows up as a rise in this ratio.
    """
    graph = build_dataset("orkut")
    edges = {}
    for source in graph.node_ids():
        if source % 4:
            continue
        for edge_type in graph.edge_types_of(source):
            edges[(source, edge_type)] = graph.edges_of(source, edge_type)
    edge_file = EdgeFile(edges, DelimiterMap(graph.all_property_ids()), alpha=32)
    keys = sorted(edges)
    hits = keys[:: max(1, len(keys) // 200)]
    misses = [(source, edge_type + 1000) for source, edge_type in hits]
    assert all(edge_file.find_record(*key) is not None for key in hits)
    assert all(edge_file.find_record(*key) is None for key in misses)
    probes = [key for pair in zip(hits, misses) for key in pair]

    flat = edge_file._file
    offsets = np.random.default_rng(3).integers(
        0, len(flat) - 48, len(probes)
    ).tolist()
    extracts = [(offset, 48) for offset in offsets]

    find_record = _best(
        lambda: [edge_file.find_record(*key) for key in probes], repeats=5
    ) / len(probes)
    extract48 = _best(
        lambda: [flat.extract(*request) for request in extracts], repeats=5
    ) / len(extracts)
    ratio = find_record / extract48
    record_bench(
        "micro_succinct",
        result={
            "find_record_seconds": find_record,
            "extract48_seconds": extract48,
            "find_record_vs_extract48": ratio,
        },
        gate={"micro.find_record_vs_extract48": (ratio, "lower_better")},
    )


def test_micro_edge_range_per_edge_over_batched_artifact():
    """Self-timed: a loop of ``edge_data_at`` calls over a 10-edge
    TimeOrder range, over one ``edge_data_range`` read of the same
    range (Algorithm 1's assoc_range read, §3.4).

    The EdgeFile holds every record of ``linkbench-small`` at alpha 32.
    The range read makes one lockstep walk for the timestamps,
    destinations and length fields plus one for the payload, where the
    loop makes two per edge; a return to per-edge walks shows up as a
    drop in this ratio.
    """
    graph = build_dataset("linkbench-small")
    edges = {
        (source, edge_type): graph.edges_of(source, edge_type)
        for source in graph.node_ids()
        for edge_type in graph.edge_types_of(source)
    }
    edge_file = EdgeFile(edges, DelimiterMap(graph.all_property_ids()), alpha=32)
    span = 10
    fragments = [
        edge_file.find_record(*key) for key in sorted(edges) if len(edges[key]) >= span
    ][:20]
    assert len(fragments) == 20
    ranges = [(fragment, fragment.edge_count - span) for fragment in fragments]
    for fragment, begin in ranges:
        assert fragment.edge_data_range(begin, begin + span) == [
            fragment.edge_data_at(i) for i in range(begin, begin + span)
        ]

    per_edge = _best(
        lambda: [
            [fragment.edge_data_at(i) for i in range(begin, begin + span)]
            for fragment, begin in ranges
        ],
        repeats=5,
    )
    batched = _best(
        lambda: [
            fragment.edge_data_range(begin, begin + span) for fragment, begin in ranges
        ],
        repeats=5,
    )
    ratio = per_edge / batched
    record_bench(
        "micro_succinct",
        result={
            "edge_range_per_edge_seconds": per_edge / len(ranges),
            "edge_range_batched_seconds": batched / len(ranges),
            "edge_range_per_edge_over_batched": ratio,
        },
        gate={"micro.edge_range_per_edge_over_batched": (ratio, "higher_better")},
    )
    assert ratio > 1.0
