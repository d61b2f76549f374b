"""Timings scaled to a reference speed of the machine.

The benchmark runs on two virtual CPUs of a shared host, and their
speed changes while a run goes on.  A fixed pure-Python loop takes
1.0-1.9x its fastest time, in stretches of one to several seconds, and
per-thread CPU time varies as much as wall time, so the host slows the
CPU itself rather than taking it away.  The same ``tao`` workload gave
a median latency of 81 us in one run and 131 us in a run a minute
later; no statistic over one run removes that.

So every end-to-end timing is scaled to a reference speed.  A separate
Python process runs a fixed loop (``_CHILD``) on request.  Its fastest of
``LOOP_REPEATS`` runs, read before and after each chunk of about
``CHUNK_NS`` of timed benchmark work, tells how fast the machine ran
meanwhile.  Every time measured in the chunk is multiplied by
``NOMINAL_LOOP_NS`` over the mean of those two readings: it reads as
the time the work would have taken on a machine that runs the loop in
exactly ``NOMINAL_LOOP_NS``, about the fastest the machine the
benchmark was built on ran it.  The loop runs outside the benchmark
process, so the program's threads, locks or interpreter hooks cannot
slow it; only the machine does.
"""

from __future__ import annotations

import subprocess
import sys
from typing import List

LOOP_REPEATS = 3
NOMINAL_LOOP_NS = 600_000
CHUNK_NS = 25_000_000

#: The reference loop's process.  The loop mixes interpreter work
#: (string keys, a dict, small sorts, object creation and method calls)
#: with numpy calls on 24 MB of arrays (binary searches and slice sums
#: at fixed random positions), as the program does.  A plain integer
#: loop slowed less than the program when the machine slowed (1.3x
#: against 1.5x), which left a tenth of the drift in the scaled times.
_CHILD = """
import sys, time
import numpy as np

class Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def size(self):
        return self.a + len(self.b)

def interpreter_work():
    counts, total = {}, 0
    for i in range(200):
        key = "k%d" % (i % 97)
        counts[key] = counts.get(key, 0) + len(key)
        total += sum(sorted([(i * j * 7919) % 113 for j in range(5)]))
        total += Item(i, key).size()
    return total

rng = np.random.default_rng(1)
ordered = np.sort(rng.integers(0, 1 << 40, size=1 << 21))
keys = rng.integers(0, 1 << 40, size=32)
data = rng.integers(0, 255, size=1 << 23, dtype=np.uint8)
offsets = rng.integers(0, (1 << 23) - 32, size=150)

def numpy_work():
    total = 0
    for key in keys:
        total += int(np.searchsorted(ordered, key))
    for offset in offsets:
        total += int(data[offset:offset + 32].sum())
    return total

for line in sys.stdin:
    best = None
    for _ in range(int(line)):
        began = time.perf_counter_ns()
        interpreter_work()
        numpy_work()
        elapsed = time.perf_counter_ns() - began
        best = elapsed if best is None else min(best, elapsed)
    sys.stdout.write("%d\\n" % best)
    sys.stdout.flush()
"""


class ReferenceClock:
    """The reference loop's process; :meth:`close` stops it."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, "-c", _CHILD],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.loop_ns()

    def loop_ns(self) -> int:
        """The loop's fastest time (ns) of ``LOOP_REPEATS`` runs, now."""
        self._process.stdin.write(f"{LOOP_REPEATS}\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("the reference loop's process ended")
        return int(line)

    def scale(self, before_ns: int, after_ns: int) -> float:
        """Factor turning a time measured between two readings into
        reference time."""
        return 2.0 * NOMINAL_LOOP_NS / (before_ns + after_ns)

    def close(self) -> None:
        self._process.stdin.close()
        try:
            self._process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()


class ChunkScaler:
    """Scales a stream of measured durations chunk by chunk.

    :meth:`add` takes each duration as it is measured; once the chunk
    holds ``CHUNK_NS`` the clock is read again and the chunk is scaled.
    Call :meth:`finish` after the last duration; ``scaled`` then holds
    every duration in reference time, in the order added.
    """

    def __init__(self, clock: ReferenceClock) -> None:
        self._clock = clock
        self._before = clock.loop_ns()
        self._chunk: List[int] = []
        self._chunk_ns = 0
        self.scaled: List[float] = []

    def add(self, duration_ns: int) -> None:
        self._chunk.append(duration_ns)
        self._chunk_ns += duration_ns
        if self._chunk_ns >= CHUNK_NS:
            self._flush()

    def _flush(self) -> None:
        after = self._clock.loop_ns()
        factor = self._clock.scale(self._before, after)
        self.scaled.extend(duration * factor for duration in self._chunk)
        self._before = after
        self._chunk, self._chunk_ns = [], 0

    def finish(self) -> List[float]:
        if self._chunk:
            self._flush()
        return self.scaled
