"""In-memory span recording by wrapping a program's functions from outside.

The traced benchmark run replaces public functions of each layer's
module with thin wrappers that record one span per call: layer, start,
end and the span that caused it.  Nothing in the program changes; the
wrappers are removed again by :meth:`Tracer.restore`.

Parentage travels in a :mod:`contextvars` variable.  ``ShardExecutor``
submits every worker task through ``contextvars.copy_context().run``,
so a span opened in a worker thread takes the span that was current at
submission -- the wrapped ``ShardExecutor.map`` call -- as its parent.

A span's *self time* is its duration minus the union of its children's
intervals (clipped to the span).  Children of one parent may overlap
when they ran in parallel worker threads; the union counts that
overlap once.  Spans are folded into per-layer totals when their root
(a span with no parent) ends, so memory stays bounded by one request's
spans; the first few roots are kept verbatim for the trace file.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One recorded span: (span_id, parent_id or None, layer, start_ns, end_ns).
Span = Tuple[int, Optional[int], str, int, int]

#: Layer name of the per-request root span the benchmark loop opens.
ROOT_LAYER = "op"


def union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        elif end > cover_end:
            cover_end = end
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, int]:
    """Per-layer exclusive time (ns) of one set of spans.

    Each span contributes its duration minus the union of its direct
    children's intervals, clipped to the span's own interval.
    """
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: Dict[str, int] = defaultdict(int)
    for span_id, _, layer, start, end in spans:
        clipped = [
            (max(start, child_start), min(end, child_end))
            for child_start, child_end in children.get(span_id, ())
            if child_end > start and child_start < end
        ]
        totals[layer] += (end - start) - union_ns(clipped)
    return dict(totals)


class Tracer:
    """Records spans from wrapped functions and folds them per layer.

    ``self_ns[layer]`` is exclusive time, ``calls[layer]`` the number of
    spans, ``counts[name]`` the extra quantities observers add (bytes,
    hits, hops), ``inclusive_ns[layer]`` plain span duration.  ``roots``
    counts finished root spans and ``root_ns`` their total duration.
    """

    def __init__(self, keep_roots: int = 50) -> None:
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._open: Dict[int, List[Span]] = defaultdict(list)
        self._patches: List[Tuple[object, str, object]] = []
        self._keep_roots = keep_roots
        self.kept: List[List[Span]] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.inclusive_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.roots = 0
        self.root_ns = 0

    # -- recording -------------------------------------------------------

    def add(self, name: str, amount: float) -> None:
        """Add ``amount`` to the named count (thread-safe)."""
        with self._lock:
            self.counts[name] += amount

    def maximum(self, name: str, value: float) -> None:
        """Raise the named count to ``value`` if it is larger."""
        with self._lock:
            self.counts[name] = max(self.counts.get(name, value), value)

    def _finish(self, span: Span, root_id: int) -> None:
        with self._lock:
            self._open[root_id].append(span)
            if span[1] is not None:
                return
            spans = self._open.pop(root_id)
            if len(self.kept) < self._keep_roots:
                self.kept.append(spans)
            for layer, ns in self_times(spans).items():
                self.self_ns[layer] += ns
            for _, _, layer, start, end in spans:
                self.inclusive_ns[layer] += end - start
                self.calls[layer] += 1
            self.roots += 1
            self.root_ns += span[4] - span[3]

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        parent = self._current.get()
        span_id = next(self._ids)
        root_id = span_id if parent is None else parent[1]
        token = self._current.set((span_id, root_id))
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
            self._finish(
                (span_id, None if parent is None else parent[0], layer, start, end),
                root_id,
            )

    # -- wrapping --------------------------------------------------------

    def wrap(self, owner: object, attr: str, layer: str,
             observe: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``observe(tracer, args, kwargs, result)`` runs after a call that
        returned, to add counts derived from the call.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(layer, original, *args, **kwargs)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(original, "__name__", attr)
        self.patch(owner, attr, wrapper)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def wrap_public(self, cls: type, layer: str,
                    skip: Sequence[str] = ()) -> None:
        """Wrap every public plain function defined on ``cls`` itself."""
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or attr in skip:
                continue
            if isinstance(value, (staticmethod, classmethod, property)):
                continue
            if callable(value):
                self.wrap(cls, attr, layer)

    def restore(self) -> None:
        """Put every wrapped function back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def unattributed_frac(self) -> float:
        """Share of root time that no layer span covers."""
        if not self.root_ns:
            return 0.0
        return self.self_ns.get(ROOT_LAYER, 0) / self.root_ns

    def dump(self) -> Dict[str, object]:
        """JSON-ready totals plus the kept roots' raw spans."""
        return {
            "roots": self.roots,
            "root_ns": self.root_ns,
            "self_ns": dict(self.self_ns),
            "inclusive_ns": dict(self.inclusive_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "sample_roots": [[list(span) for span in spans] for spans in self.kept],
        }
