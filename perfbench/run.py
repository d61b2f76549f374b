"""ZipG end-to-end and per-layer benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tao --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in turn and exits 1 if any of
them gave a wrong answer.
``--trace 0`` times the workload with every tracing facility off and
prints the end-to-end metrics, in reference time (``refclock.py``
says why and how).  ``--trace 1`` prints the per-layer metrics
instead: each pass then runs twice on fresh stores with the same
operations, once untraced and once with the layers' public
functions wrapped by ``spans.py`` (the program's own ``obs`` tracing
stays off in both).  Every answer of every pass is checked against
the ``neo4j`` PointerGraphStore replaying the same operations; a
mismatch makes the run fail.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.baselines.pointerstore import PointerGraphStore  # noqa: E402
from repro.bench.datasets import build_dataset  # noqa: E402
from repro.bench.systems import ZipGSystem  # noqa: E402

import layers  # noqa: E402
from refclock import ChunkScaler, ReferenceClock  # noqa: E402
from spans import ROOT_LAYER, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CLASS_GROUPS,
    EXTRA_PROPERTY_IDS,
    WORKLOADS,
    PassOps,
    Workload,
    pass_ops,
    probe_groups,
)

OUT_DIR = Path(".perfbench_out")
MIN_PASSES = 3
#: ``setup_s`` is the median of at least this many set-ups: one per
#: pass, and set-ups without operations when a run has fewer passes.
MIN_SETUPS = 10
#: The traced run fails when more of the op time than this is covered
#: by no layer span (the wrappers would then be missing a layer).
UNATTRIBUTED_BOUND = 0.2

#: Metric names and units, from the benchmark's definition file.
_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in _SPEC["per_layer"]}

STORE_LAYERS = ("succinct.search", "succinct.extract", "edgefile", "nodefile",
                "delimiters", "pointers", "shard", "graph_store", "logstore",
                "executor")


# ----------------------------------------------------------------------
# Lanes: where the store lives
# ----------------------------------------------------------------------


class InProcessLane:
    """The store in this process, set up with ``ZipG.compress``."""

    def __init__(self, workload: Workload, graph) -> None:
        self.workload = workload
        self.graph = graph
        self.system: Optional[ZipGSystem] = None
        self.setup_s = 0.0
        self.tracer: Optional[Tracer] = None
        self.new_shards: list = []
        self._npa_hops_before = 0

    def start(self) -> None:
        w = self.workload
        began = time.perf_counter()
        self.system = ZipGSystem.load(
            self.graph, num_shards=w.shards, alpha=w.alpha,
            logstore_threshold_bytes=w.logstore_threshold_bytes,
            extra_property_ids=EXTRA_PROPERTY_IDS,
        )
        self.setup_s = time.perf_counter() - began

    @property
    def target(self):
        return self.system

    def start_tracing(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._npa_hops_before = self.system.store.aggregate_stats().npa_hops
        layers.instrument_store(tracer, self.new_shards)

    def stop_tracing(self) -> None:
        self.tracer.restore()
        self.tracer.add("succinct.npa_hops",
                        self.system.store.aggregate_stats().npa_hops - self._npa_hops_before)
        self.tracer.add("freeze.bytes_out",
                        sum(shard.serialized_size_bytes() for shard in self.new_shards))

    def rss_peak_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def stop(self) -> Tuple[Dict[str, float], List[dict]]:
        store = self.system.store
        stats = {
            "footprint_bytes": store.storage_footprint_bytes(),
            "freeze_count": store.freeze_count,
            "logstore_bytes": store.logstore.size_bytes(),
        }
        store.executor.close()
        self.system = None
        return stats, []


class SocketLane:
    """The store behind ``serve-master`` and ``serve-shard`` processes."""

    def __init__(self, workload: Workload, graph_path: Path, traced: bool) -> None:
        from socket_lane import SocketCluster

        self.cluster = SocketCluster(workload, graph_path, OUT_DIR.resolve(), traced)
        self.tracer: Optional[Tracer] = None

    def start(self) -> None:
        self.cluster.start()

    @property
    def setup_s(self) -> float:
        return self.cluster.setup_s

    @property
    def target(self):
        return self.cluster.client

    def start_tracing(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.cluster.start_tracing()
        layers.instrument_client(tracer)

    def stop_tracing(self) -> None:
        self.tracer.restore()

    def rss_peak_mb(self) -> float:
        return self.cluster.rss_peak_mb()

    def stop(self):
        return self.cluster.stop()


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------


def execute(target, op) -> Tuple[bool, object]:
    """Run one operation; an exception is an outcome, not an abort."""
    try:
        return True, op.run(target)
    except Exception as exc:  # compared against the reference below
        return False, exc


@dataclass
class PassResult:
    setup_s: float                # reference time
    setup_raw_s: float            # wall clock
    mix_ns: int                   # wall clock of the timed mix and probes
    raw_latencies: List[int]      # wall clock, per mix operation
    latencies: List[float]        # reference time, per mix operation
    class_samples: Dict[str, List[float]]  # reference time
    outcomes: List[Tuple[bool, object]]
    rss_peak_mb: float
    stats: Dict[str, float]
    traces: List[dict] = field(default_factory=list)


def start_timed(lane, reference: ReferenceClock) -> Tuple[float, float]:
    """Start ``lane``; return its set-up time in reference and in wall
    seconds, scaled by readings of ``reference`` just around it."""
    before = reference.loop_ns()
    lane.start()
    try:
        scale = reference.scale(before, reference.loop_ns())
    except BaseException:
        lane.stop()
        raise
    return lane.setup_s * scale, lane.setup_s


def run_pass(lane, workload: Workload, ops: PassOps, reference: ReferenceClock,
             tracer: Optional[Tracer] = None) -> PassResult:
    """Set the store up, run warm-up, the timed mix and probes, tear down.

    Set-up, mix and probe times are scaled to reference time by
    readings of ``reference`` around them (see ``refclock.py``).
    """
    setup_s, setup_raw_s = start_timed(lane, reference)
    try:
        target = lane.target
        outcomes = [execute(target, op) for op in ops.warmup]
        probed = set(probe_groups(workload))
        group_of = {name: group for group, names in CLASS_GROUPS.items()
                    if group not in probed for name in names}
        if tracer is not None:
            lane.start_tracing(tracer)
        clock = time.perf_counter_ns
        timed = ChunkScaler(reference)
        raw_latencies: List[int] = []
        began = clock()
        for group, op in ops.timed:
            start = clock()
            if tracer is None:
                outcome = execute(target, op)
            else:
                outcome = tracer.call(ROOT_LAYER, execute, target, op)
            elapsed = clock() - start
            timed.add(elapsed)
            outcomes.append(outcome)
            if group is None:
                raw_latencies.append(elapsed)
        mix_ns = clock() - began
        if tracer is not None:
            lane.stop_tracing()
        latencies: List[float] = []
        class_samples: Dict[str, List[float]] = {group: [] for group in CLASS_GROUPS}
        for (probe_group, op), latency in zip(ops.timed, timed.finish()):
            if probe_group is None:
                latencies.append(latency)
            group = probe_group or group_of.get(op.name)
            if group is not None:
                class_samples[group].append(latency)
        rss = lane.rss_peak_mb()
    finally:
        stats, traces = lane.stop()
    return PassResult(setup_s, setup_raw_s, mix_ns, raw_latencies, latencies,
                      class_samples, outcomes, rss, stats, traces)


def check_answers(reference_graph, ops: PassOps,
                  outcomes: List[Tuple[bool, object]]) -> Tuple[int, int]:
    """Replay ``ops`` on a fresh reference store; return
    (mismatches, unmatched exceptions)."""
    reference = PointerGraphStore.load(reference_graph)
    mismatches = failed = 0
    for op, (ok, value) in zip(ops.all(), outcomes):
        ref_ok, ref_value = execute(reference, op)
        if ok and (not ref_ok or ref_value != value):
            mismatches += 1
            print(f"answer mismatch in {op.name}: {value!r} vs reference {ref_value!r}",
                  file=sys.stderr)
        elif not ok and ref_ok:
            failed += 1
            print(f"unmatched exception in {op.name}: {value!r}", file=sys.stderr)
    return mismatches, failed


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def trimmed_mean(values: List[float]) -> float:
    """The mean of ``values`` without their lowest and highest tenth.

    A class such as ``write`` mixes operations of very different cost
    (assoc_add about 20 us, assoc_del about 200 us on ``tao``), and
    ``obj_get`` on ``linkbench`` is served from the LogStore (about
    10 us) or a NodeFile (about 60 us) in shares that move with the
    seed.  A median can sit in a sparse stretch between two such modes
    and jump with small shifts; the trimmed mean moves smoothly with the
    shares and still ignores the tails.
    """
    ordered = sorted(values)
    tenth = len(ordered) // 10
    middle = ordered[tenth:len(ordered) - tenth]
    return sum(middle) / len(middle)


def end_to_end(passes: List[PassResult], setups: List[float],
               raw_bytes: int) -> Tuple[Dict, Dict]:
    """The latency and throughput metrics over the operations of every
    pass; the median of the set-up times ``setups``; footprint and peak
    RSS per pass, then the median over passes.

    Times are in reference time (``refclock.py``), latencies summarized
    by :func:`trimmed_mean`.  No tail percentile is reported: read from
    the same passes, the wall-clock p99 and p95 varied by up to 0.45 and
    0.54 of their median across ten runs on the machine the benchmark
    was built on, beyond any regression bound the benchmark may set.
    """

    def median_of(metric) -> float:
        return statistics.median(metric(p) for p in passes)

    def pooled(samples) -> List[float]:
        return [value for p in passes for value in samples(p)]

    latencies = pooled(lambda p: p.latencies)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_ref_s": len(latencies) / (sum(latencies) / 1e9),
        "tmean_ref_us": trimmed_mean(latencies) / 1e3,
        "footprint_ratio": median_of(lambda p: p.stats["footprint_bytes"]) / raw_bytes,
        "rss_peak_mb": median_of(lambda p: p.rss_peak_mb),
    }
    for group in CLASS_GROUPS:
        values[f"{group}_tmean_ref_us"] = trimmed_mean(
            pooled(lambda p: p.class_samples[group])) / 1e3
    counts = {"passes": len(passes), "setups": len(setups), "ops": len(latencies),
              "wall_tmean_us": trimmed_mean(pooled(lambda p: p.raw_latencies)) / 1e3,
              "wall_setup_s": median_of(lambda p: p.setup_raw_s)}
    for group in CLASS_GROUPS:
        counts[f"{group}_samples"] = sum(len(p.class_samples[group]) for p in passes)
    return values, counts


def merge_traces(dumps: List[dict]) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {"self_ns": {}, "calls": {}, "counts": {}}
    for dump in dumps:
        for section in merged:
            for key, value in dump[section].items():
                if key == "freeze.max_ms":
                    merged[section][key] = max(merged[section].get(key, 0.0), value)
                else:
                    merged[section][key] = merged[section].get(key, 0) + value
    return merged


def per_layer(client: dict, traced: List[PassResult],
              untraced: List[PassResult]) -> Dict[str, float]:
    """Per-layer metrics from the benchmark process's span totals
    (``client``) and those the servers of traced passes reported."""
    merged = merge_traces([client] + [dump for p in traced for dump in p.traces])
    self_ns, calls, counts = merged["self_ns"], merged["calls"], merged["counts"]
    ops = client["roots"]
    root_ns = client["root_ns"]
    passes = len(traced)

    def per_op(value: float) -> float:
        return value / ops

    values = {f"{layer}.self_us_per_op": per_op(self_ns.get(layer, 0) / 1e3)
              for layer in STORE_LAYERS}
    find_calls = counts.get("edgefile.find_record.calls", 0)
    map_calls = counts.get("executor.map_calls", 0)
    values.update({
        "succinct.search.calls_per_op": per_op(calls.get("succinct.search", 0)),
        "succinct.extract.calls_per_op": per_op(calls.get("succinct.extract", 0)),
        "succinct.extract.bytes_per_op": per_op(counts.get("succinct.extract.bytes", 0)),
        "succinct.npa_hops_per_op": per_op(counts.get("succinct.npa_hops", 0)),
        "edgefile.find_record_calls_per_op": per_op(find_calls),
        "edgefile.find_record_hit_frac": (
            counts.get("edgefile.find_record.hits", 0) / find_calls if find_calls else 0.0),
        "pointers.hops_per_op": per_op(counts.get("pointers.hops", 0)),
        "logstore.calls_per_op": per_op(calls.get("logstore", 0)),
        "logstore.bytes_end": statistics.median(p.stats["logstore_bytes"] for p in traced),
        "freeze.count": counts.get("freeze.count", 0) / passes,
        "freeze.total_ms": counts.get("freeze.total_ms", 0.0) / passes,
        "freeze.max_ms": counts.get("freeze.max_ms", 0.0),
        "freeze.bytes_in": counts.get("freeze.bytes_in", 0) / passes,
        "freeze.bytes_out": counts.get("freeze.bytes_out", 0) / passes,
        "executor.tasks_per_call": counts.get("executor.tasks", 0) / map_calls if map_calls else 0.0,
        "server.codec_us_per_op": per_op(self_ns.get("server.codec", 0) / 1e3),
        "server.wait_us_per_op": per_op(self_ns.get("server.wait", 0) / 1e3),
        "server.rpcs_per_op": per_op(counts.get("server.rpcs", 0)),
        "server.bytes_out_per_op": per_op(counts.get("server.bytes_out", 0)),
        "server.bytes_in_per_op": per_op(counts.get("server.bytes_in", 0)),
        "trace.overhead_ratio": root_ns / sum(sum(p.raw_latencies) for p in untraced),
        "trace.unattributed_frac": client["self_ns"].get(ROOT_LAYER, 0) / root_ns,
    })
    return values


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, traced_run: bool,
                 reference: ReferenceClock) -> bool:
    """Run one workload, print its metrics and result line; return
    whether every answer was right."""
    graph = build_dataset(workload.dataset)
    if workload.socket:
        from socket_lane import write_graph_file

        graph_path = OUT_DIR.resolve() / f"{workload.dataset}.graph.txt"
        graph, replaced = write_graph_file(graph, graph_path)
        print(f"graph file {graph_path.name}: {replaced} property values had "
              f"whitespace, ';' or '=' replaced; edges carry no properties",
              file=sys.stderr)

        def make_lane(traced: bool):
            return SocketLane(workload, graph_path, traced)
    else:
        def make_lane(traced: bool):
            return InProcessLane(workload, graph)

    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    tracer = Tracer() if traced_run else None
    attempted = mismatches = failed = 0
    freezes: List[int] = []
    measured_ns = 0
    index = 0
    while index < MIN_PASSES or measured_ns < seconds * 1e9:
        ops = pass_ops(workload, graph, seed * 1000 + index,
                       with_probes=not traced_run)
        runs = [run_pass(make_lane(False), workload, ops, reference)]
        untraced.append(runs[0])
        if traced_run:
            runs.append(run_pass(make_lane(True), workload, ops, reference, tracer))
            traced.append(runs[1])
        for result in runs:
            measured_ns += result.mix_ns
            bad, unmatched = check_answers(graph, ops, result.outcomes)
            attempted += len(result.outcomes)
            result.outcomes = []
            mismatches += bad
            failed += unmatched
            freezes.append(result.stats["freeze_count"])
            print(f"pass {index}: {len(result.latencies)} ops "
                  f"{len(result.raw_latencies) / (sum(result.raw_latencies) / 1e9):.0f} ops/s, "
                  f"{len(result.latencies) / (sum(result.latencies) / 1e9):.0f} ops/ref-s; "
                  f"setup {result.setup_raw_s:.3f} s, {result.setup_s:.3f} ref-s; "
                  f"freezes {result.stats['freeze_count']}",
                  file=sys.stderr)
        index += 1

    correct = mismatches == 0
    if workload.min_freezes and min(freezes) < workload.min_freezes:
        print(f"a pass froze the LogStore {min(freezes)} times, fewer than "
              f"{workload.min_freezes}", file=sys.stderr)
        correct = False

    if traced_run:
        client = tracer.dump()
        values = per_layer(client, traced, untraced)
        units = PER_LAYER
        trace_file = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
        trace_file.write_text(json.dumps(
            {"client": client, "servers": [d for p in traced for d in p.traces]}))
        if values["trace.unattributed_frac"] > UNATTRIBUTED_BOUND:
            print(f"unattributed share {values['trace.unattributed_frac']:.3f} exceeds "
                  f"{UNATTRIBUTED_BOUND}", file=sys.stderr)
            correct = False
        counts = {"ops": tracer.roots, "passes": len(traced)}
    else:
        setups = [p.setup_s for p in untraced]
        while len(setups) < MIN_SETUPS:
            lane = make_lane(False)
            setups.append(start_timed(lane, reference)[0])
            lane.stop()
        values, counts = end_to_end(untraced, setups, graph.on_disk_size_bytes())
        units = END_TO_END

    print(f"workload {workload.name} seed {seed}: {counts}")
    for name, unit in units.items():
        print(f"  {name:<36} {values[name]:>14.4f} {unit}")
    print(f"  answers: {attempted} checked, {mismatches} mismatched, {failed} unmatched exceptions")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return correct


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    reference = ReferenceClock()
    try:
        results = [run_workload(WORKLOADS[name], args.seed, args.seconds,
                                bool(args.trace), reference)
                   for name in names]
    finally:
        reference.close()
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
