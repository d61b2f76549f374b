"""Run one ``repro`` serve command and report its store when it stops.

Usage::

    python3 perfbench/serve.py --stats-out S.json [--trace-out T.json] \\
        serve-master --file g.txt ...

Everything after the options is handed to the ``repro`` command line
unchanged.  The store the command builds is captured; when the server
stops on SIGINT, its footprint and freeze count are written to
``--stats-out``.  With ``--trace-out``, SIGUSR1 wraps the storage
layers (the process answers with a ``TRACING`` line on stdout), and
their span totals are written to ``--trace-out`` at shutdown.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    from repro import cli
    from repro.bench.systems import ZipGSystem

    from layers import instrument_store
    from spans import Tracer

    parser = argparse.ArgumentParser()
    parser.add_argument("--stats-out", required=True)
    parser.add_argument("--trace-out")
    options, command = parser.parse_known_args()

    stores = []
    tracer = Tracer(keep_roots=0) if options.trace_out else None
    new_shards: list = []
    load = ZipGSystem.load

    npa_hops_before = []

    def load_and_capture(*args, **kwargs):
        system = load(*args, **kwargs)
        stores.append(system.store)
        return system

    def start_tracing(signum, frame):
        npa_hops_before.append(stores[0].aggregate_stats().npa_hops)
        instrument_store(tracer, new_shards)
        print("TRACING", flush=True)

    ZipGSystem.load = staticmethod(load_and_capture)
    if tracer is not None:
        signal.signal(signal.SIGUSR1, start_tracing)
    code = cli.main(command)
    store = stores[0]
    if tracer is not None:
        tracer.restore()
        if npa_hops_before:
            tracer.add("succinct.npa_hops",
                       store.aggregate_stats().npa_hops - npa_hops_before[0])
        tracer.add("freeze.bytes_out",
                   sum(shard.serialized_size_bytes() for shard in new_shards))
        Path(options.trace_out).write_text(json.dumps(tracer.dump()))
    Path(options.stats_out).write_text(json.dumps({
        "footprint_bytes": store.storage_footprint_bytes(),
        "freeze_count": store.freeze_count,
        "logstore_bytes": store.logstore.size_bytes(),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
