"""Span arithmetic of the traced run.

Run with ``python3 -m pytest perfbench/test_spans.py``.
"""

from __future__ import annotations

import contextvars
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import ROOT_LAYER, Tracer, self_times, union_ns  # noqa: E402


def test_union_counts_overlap_once():
    assert union_ns([(0, 10), (5, 15), (20, 30)]) == 25
    assert union_ns([(0, 10), (2, 3)]) == 10
    assert union_ns([]) == 0


def test_nested_children_leave_parent_its_uncovered_time():
    spans = [
        (1, None, "op", 0, 100),
        (2, 1, "graph_store", 10, 90),
        (3, 2, "edgefile", 20, 50),
        (4, 3, "succinct.search", 25, 45),
        (5, 2, "nodefile", 60, 70),
    ]
    assert self_times(spans) == {
        "op": 20,                # 100 - [10, 90)
        "graph_store": 40,       # 80 - [20, 50) - [60, 70)
        "edgefile": 10,          # 30 - [25, 45)
        "succinct.search": 20,
        "nodefile": 10,
    }


def test_overlapping_parallel_children_are_subtracted_once():
    # A fan-out: two worker spans overlap in time under one map span.
    spans = [
        (1, None, "op", 0, 100),
        (2, 1, "executor", 0, 100),
        (3, 2, "shard", 10, 60),
        (4, 2, "shard", 30, 80),
    ]
    times = self_times(spans)
    assert times["executor"] == 100 - 70   # union [10, 80)
    assert times["shard"] == 100           # each shard span is a leaf
    assert times["op"] == 0


def test_children_are_clipped_to_the_parent():
    spans = [(1, None, "op", 10, 20), (2, 1, "graph_store", 5, 15)]
    assert self_times(spans)["op"] == 5


class _Fanout:
    """Stand-in for ShardExecutor.map: submits through copied contexts."""

    def __init__(self, pool):
        self.pool = pool

    def map(self, fn, items):
        futures = [self.pool.submit(contextvars.copy_context().run, fn, item)
                   for item in items]
        return [future.result() for future in futures]


class _Shard:
    def find(self, item):
        time.sleep(0.01)
        return threading.get_ident()


def test_worker_spans_take_the_submitting_map_as_parent():
    tracer = Tracer()
    with ThreadPoolExecutor(max_workers=2) as pool:
        fanout = _Fanout(pool)
        tracer.wrap(_Fanout, "map", "executor")
        tracer.wrap(_Shard, "find", "shard")
        try:
            shard = _Shard()
            tracer.call(ROOT_LAYER, fanout.map, shard.find, [1, 2])
        finally:
            tracer.restore()
    spans = tracer.kept[0]
    by_layer = {layer: [s for s in spans if s[2] == layer] for layer in ("op", "executor", "shard")}
    (map_span,) = by_layer["executor"]
    assert [s[1] for s in by_layer["shard"]] == [map_span[0], map_span[0]]
    assert by_layer["op"][0][1] is None
    # The two sleeps overlapped, so the map's self time is well under
    # the sum of both worker spans.
    assert tracer.self_ns["executor"] < map_span[4] - map_span[3]
    assert tracer.roots == 1
    assert "map" in vars(_Fanout) and not hasattr(vars(_Fanout)["map"], "__wrapped__")


def test_restore_puts_the_original_functions_back():
    original = _Shard.find
    tracer = Tracer()
    tracer.wrap(_Shard, "find", "shard")
    assert _Shard.find is not original
    tracer.restore()
    assert _Shard.find is original
