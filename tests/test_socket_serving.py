"""End-to-end serving: real master / shard-server processes over TCP.

The issue's acceptance test: spawn two ``serve-shard`` processes and a
``serve-master`` via the CLI (separate Python processes, nothing
shared), run a TAO-style operation mix through :class:`ZipGClient`,
SIGKILL one shard server mid-run, and verify the mix keeps answering
through replica failover with answers identical to an in-process store
built from the same graph file -- plus structured ``partial_results``
degradation and clean SIGINT shutdown for the survivors.
"""

import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.bench.systems import ZipGSystem
from repro.cluster import PartialResult
from repro.core import GraphData
from repro.server.client import ZipGClient

REPO_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src")
)
NUM_SHARDS = 2
ALPHA = 8


def build_graph() -> GraphData:
    graph = GraphData()
    for i in range(20):
        graph.add_node(i, {"name": f"n{i}", "kind": "x" if i % 2 else "y"})
    for i in range(20):
        graph.add_edge(i, (i + 1) % 20, 0, timestamp=i)
        graph.add_edge(i, (i + 3) % 20, 1, timestamp=100 + i)
    return graph


def write_graph_file(graph: GraphData, path) -> None:
    """Serialize ``graph`` in the CLI's canonical N/E text format."""
    lines = []
    for node_id in sorted(graph.node_ids()):
        properties = graph.node_properties(node_id)
        encoded = ";".join(f"{k}={v}" for k, v in sorted(properties.items()))
        lines.append(f"N {node_id} {encoded}")
    for edge in graph.all_edges():
        lines.append(f"E {edge.source} {edge.destination} "
                     f"{edge.edge_type} {edge.timestamp}")
    path.write_text("\n".join(lines) + "\n")


def spawn(*cli_args: str, **popen_kwargs) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *cli_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        **popen_kwargs,
    )


def read_listening(proc: subprocess.Popen, timeout_s: float = 60.0):
    """The ``LISTENING <host> <port>`` line every serve-* prints."""
    result = {}

    def reader():
        result["line"] = proc.stdout.readline()

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(timeout_s)
    line = result.get("line", "")
    if not line.startswith("LISTENING"):
        proc.kill()
        stderr = proc.stderr.read() if proc.stderr else ""
        raise AssertionError(
            f"server did not announce its address: {line!r}\n{stderr}"
        )
    _tag, host, port = line.split()
    return host, int(port)


class Deployment:
    """Two shard-server processes plus a master, torn down robustly."""

    def __init__(self, graph_file):
        self.procs = {}
        shard_flags = ["--file", str(graph_file), "--port", "0",
                       "--shards", str(NUM_SHARDS), "--alpha", str(ALPHA)]
        addresses = {}
        for server_id in (0, 1):
            proc = spawn("serve-shard", "--server-id", str(server_id),
                         *shard_flags)
            self.procs[f"shard{server_id}"] = proc
            addresses[server_id] = read_listening(proc)
        master = spawn(
            "serve-master", "--file", str(graph_file), "--port", "0",
            "--shards", str(NUM_SHARDS), "--alpha", str(ALPHA),
            "--replication", "2", "--retries", "1",
            "--shard", f"0={addresses[0][0]}:{addresses[0][1]}",
            "--shard", f"1={addresses[1][0]}:{addresses[1][1]}",
        )
        self.procs["master"] = master
        self.master_address = read_listening(master)

    def interrupt(self, name: str) -> int:
        """SIGINT one process and reap it (the clean-shutdown path)."""
        proc = self.procs[name]
        proc.send_signal(signal.SIGINT)
        return self.reap(proc)

    @staticmethod
    def reap(proc: subprocess.Popen) -> int:
        try:
            return proc.wait(timeout=15)
        finally:
            for stream in (proc.stdout, proc.stderr):
                if stream:
                    stream.close()

    def close(self):
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.kill()
            self.reap(proc)


@pytest.fixture
def deployment(tmp_path):
    graph_file = tmp_path / "graph.txt"
    write_graph_file(build_graph(), graph_file)
    deployment = Deployment(graph_file)
    try:
        yield deployment
    finally:
        deployment.close()


def run_tao_mix(client: ZipGClient, system: ZipGSystem) -> None:
    """A TAO-style read mix, every answer checked against ``system``."""
    for node_id in (0, 3, 7, 12, 19):
        assert client.get_node_property(node_id) == \
            system.get_node_property(node_id)
        assert client.get_neighbor_ids(node_id) == \
            system.get_neighbor_ids(node_id)
        assert client.edge_count(node_id, 0) == system.edge_count(node_id, 0)
        assert client.edges_from_index(node_id, 1, 0, None) == \
            system.edges_from_index(node_id, 1, 0, None)
        assert client.edges_in_time_range(node_id, 1, 100, 200) == \
            system.edges_in_time_range(node_id, 1, 100, 200)
        assert client.assoc_get(node_id, 0, {(node_id + 1) % 20}, 0, 50) == \
            system.assoc_get(node_id, 0, {(node_id + 1) % 20}, 0, 50)
    assert client.get_node_ids({"kind": "x"}) == \
        system.get_node_ids({"kind": "x"})


def test_serving_mix_survives_shard_sigkill(deployment):
    graph = build_graph()
    system = ZipGSystem.load(graph, num_shards=NUM_SHARDS, alpha=ALPHA)
    host, port = deployment.master_address
    with ZipGClient(host, port, timeout_s=30.0) as client:
        assert client.ping()
        topology = client.topology()
        assert topology["num_servers"] == 2
        assert topology["replication_factor"] == 2

        # Phase 1: healthy cluster, full parity with the local store.
        run_tao_mix(client, system)

        # Writes replicate to both shard processes; mirror them onto
        # the local store so parity checks keep holding.
        client.append_node(500, {"name": "added", "kind": "x"})
        client.append_edge(0, 1, 500, timestamp=999)
        system.append_node(500, {"name": "added", "kind": "x"})
        system.append_edge(0, 1, 500, timestamp=999)
        assert client.get_node_property(500) == \
            {"name": "added", "kind": "x"}
        assert 500 in client.get_neighbor_ids(0)

        # Phase 2: kill -9 one shard server mid-run.  Both servers
        # hold full replicas (replication_factor=2), so every read
        # fails over and the mix's answers do not change.
        deployment.procs["shard1"].kill()
        deployment.reap(deployment.procs["shard1"])
        run_tao_mix(client, system)
        assert client.get_node_property(500) == \
            {"name": "added", "kind": "x"}

        # Degraded mode stays structured: with one full replica alive
        # the partial result is still complete.
        partial = client.get_node_ids({"kind": "x"}, partial_results=True)
        assert isinstance(partial, PartialResult)
        assert partial.complete
        assert partial.value == system.get_node_ids({"kind": "x"})

        # A write now fails its apply_write to the dead server, which
        # quarantines it (stale replica must not serve reads).
        client.append_node(501, {"name": "late", "kind": "y"})
        system.append_node(501, {"name": "late", "kind": "y"})
        assert client.down_servers() == [1]
        run_tao_mix(client, system)

    # Survivors shut down cleanly on SIGINT (the supervisor contract).
    assert deployment.interrupt("master") == 0
    assert deployment.interrupt("shard0") == 0


def test_serve_master_rejects_address_gaps(tmp_path):
    from repro.cli import main

    graph_file = tmp_path / "graph.txt"
    write_graph_file(build_graph(), graph_file)
    with pytest.raises(SystemExit, match="missing --shard"):
        main(["serve-master", "--file", str(graph_file),
              "--shard", "2=127.0.0.1:7002"])


def test_serve_shard_stops_on_sigint_inherited_as_ignored(tmp_path):
    """A server whose parent left SIGINT ignored (a background job in a
    non-interactive shell) still shuts down cleanly on SIGINT."""
    graph_file = tmp_path / "graph.txt"
    write_graph_file(build_graph(), graph_file)
    proc = spawn(
        "serve-shard", "--server-id", "0", "--file", str(graph_file),
        "--port", "0", "--shards", str(NUM_SHARDS), "--alpha", str(ALPHA),
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        read_listening(proc)
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=5) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        Deployment.reap(proc)
