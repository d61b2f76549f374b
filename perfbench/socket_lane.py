"""The ``tao-socket`` lane: real ``serve-master`` + ``serve-shard`` processes.

The servers load the graph from the CLI's ``N``/``E`` text format,
whose reader splits on whitespace, ``;`` and ``=`` and has no edge
properties.  :func:`write_graph_file` therefore writes values with
those characters replaced and no edge properties, parses the file back
with the servers' own reader, and fails on any difference; the
reference store is built from that parsed graph.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.cli import _load_graph_file
from repro.core.model import GraphData
from repro.server.client import ZipGClient

from workloads import Workload

_UNSAFE = re.compile(r"[\s;=]")
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 15.0


def _graph_signature(graph: GraphData):
    nodes = {node: graph.node_properties(node) for node in graph.node_ids()}
    edges = sorted(
        (e.source, e.destination, e.edge_type, e.timestamp, tuple(sorted(e.properties.items())))
        for e in graph.all_edges()
    )
    return nodes, edges


def write_graph_file(graph: GraphData, path: Path) -> Tuple[GraphData, int]:
    """Write ``graph`` in the servers' format; return the graph the
    servers will load, parsed back with their reader, and the number of
    property values whose unsafe characters were replaced."""
    safe = GraphData()
    replaced = 0
    lines: List[str] = []
    for node in graph.node_ids():
        properties = {}
        for key, value in graph.node_properties(node).items():
            clean = _UNSAFE.sub("_", value)
            replaced += clean != value
            properties[key] = clean
        safe.add_node(node, properties)
        pairs = ";".join(f"{key}={value}" for key, value in properties.items())
        lines.append(f"N {node} {pairs}".rstrip())
    for edge in graph.all_edges():
        safe.add_edge(edge.source, edge.destination, edge.edge_type, edge.timestamp)
        lines.append(f"E {edge.source} {edge.destination} {edge.edge_type} {edge.timestamp}")
    path.write_text("\n".join(lines) + "\n")
    parsed = _load_graph_file(str(path))
    if _graph_signature(parsed) != _graph_signature(safe):
        raise RuntimeError(f"{path}: the servers' reader does not read back the graph written")
    return parsed, replaced


def _vm_hwm_kib(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


class SocketCluster:
    """Two shard servers and a master, started and stopped per pass.

    Every server runs under ``serve.py``, which reports its store when
    it stops; with ``traced``, :meth:`start_tracing` has each server
    wrap its storage layers and the span totals come back from
    :meth:`stop`.
    """

    def __init__(self, workload: Workload, graph_path: Path, out_dir: Path,
                 traced: bool = False) -> None:
        self.workload = workload
        self.graph_path = graph_path
        self.out_dir = out_dir
        self.traced = traced
        self.processes: List[subprocess.Popen] = []
        self.client: Optional[ZipGClient] = None
        self.setup_s = 0.0

    def _files(self, index: int) -> Tuple[Path, Path]:
        return (self.out_dir / f"server{index}-stats.json",
                self.out_dir / f"server{index}-trace.json")

    def _spawn(self, command: List[str]) -> subprocess.Popen:
        here = Path(__file__).resolve().parent
        stats_path, trace_path = self._files(len(self.processes))
        argv = [sys.executable, str(here / "serve.py"), "--stats-out", str(stats_path)]
        if self.traced:
            argv += ["--trace-out", str(trace_path)]
        process = subprocess.Popen(
            argv + command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self.processes.append(process)
        return process

    @staticmethod
    def _await_line(process: subprocess.Popen, prefix: str) -> str:
        deadline = time.monotonic() + _START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited with {process.wait()} before {prefix}")
            if line.startswith(prefix):
                return line
        raise RuntimeError(f"server printed no {prefix} line in time")

    def start(self) -> None:
        """Start the servers; ``setup_s`` runs from the first spawn to
        the master's ``LISTENING`` line."""
        w = self.workload
        common = ["--file", str(self.graph_path), "--shards", str(w.shards),
                  "--alpha", str(w.alpha)]
        began = time.perf_counter()
        try:
            shards = [
                self._spawn(["serve-shard", "--server-id", str(server), "--port", "0"]
                            + common)
                for server in range(w.servers)
            ]
            command = ["serve-master", "--port", "0", "--replication", str(w.replication)]
            for server, process in enumerate(shards):
                _, host, port = self._await_line(process, "LISTENING ").split()
                command += ["--shard", f"{server}={host}:{port}"]
            master = self._spawn(command + common)
            _, host, port = self._await_line(master, "LISTENING ").split()
        except BaseException:
            for process in self.processes:
                process.kill()
                process.wait()
            self.processes = []
            raise
        self.setup_s = time.perf_counter() - began
        self.client = ZipGClient(host, int(port))

    def start_tracing(self) -> None:
        for process in self.processes:
            process.send_signal(signal.SIGUSR1)
        for process in self.processes:
            self._await_line(process, "TRACING")

    def rss_peak_mb(self) -> float:
        """Summed peak RSS of the server processes (MiB)."""
        return sum(_vm_hwm_kib(p.pid) for p in self.processes) / 1024.0

    def stop(self) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
        """Stop every process and wait for it; return the master's
        stats and every server's span totals (empty when untraced)."""
        if self.client is not None:
            self.client.close()
            self.client = None
        for process in self.processes:
            if process.poll() is None:
                process.send_signal(signal.SIGINT)
        for process in self.processes:
            try:
                process.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()
        count, self.processes = len(self.processes), []
        stats, traces = {}, []
        for index in range(count):
            stats_path, trace_path = self._files(index)
            if not stats_path.exists():
                raise RuntimeError(f"server {index} wrote no stats on shutdown")
            stats = json.loads(stats_path.read_text())  # the master is last
            stats_path.unlink()
            if self.traced:
                traces.append(json.loads(trace_path.read_text()))
                trace_path.unlink()
        return stats, traces
