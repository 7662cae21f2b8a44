"""Span tracing from outside the program: wrap public callables.

Nothing under ``src/`` knows it is being traced. :class:`Tracer`
replaces a fixed list of public callables with timing wrappers while
installed and puts the originals back on :meth:`Tracer.uninstall`, so a
run with tracing off executes the program's own functions untouched.

Spans are kept in memory as ``(name, start, end, parent, run)`` — the
parent is the index of the enclosing span (``-1`` at the top) and
``run`` numbers the traced pass — and written out once, at the end, as
Chrome trace-event JSON.

Wrappers are installed after ``Profiler.open()`` returns, so the forked
shard workers run unwrapped code; every span is a parent-side one.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int, int]


def targets() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, counter)`` for every traced callable.

    ``counter(tracer, *args)`` runs before the span opens, so what it
    computes (frame bytes, fold input nodes) is not charged to the layer.
    """
    import repro.runtime.profiler as profiler_module
    from repro.core.columnar import ColumnarRapTree
    from repro.core.serialize import frame_nbytes
    from repro.core.tree import RapTree
    from repro.runtime.partition import HashPartitioner
    from repro.runtime.profiler import Profiler
    from repro.runtime.ring import RingProducer
    from repro.runtime.shm import ShmAttachment

    def ring_bytes(tracer: "Tracer", _producer, kind, values=None, counts=None):
        count = 0 if values is None else len(values)
        tracer.count("runtime.ring.bytes", frame_nbytes(kind, count))

    def fold_inputs(tracer: "Tracer", trees, **_options):
        # The profiler always passes a list, so counting consumes nothing.
        tracer.count(
            "core.combine.input_nodes", sum(tree.node_count for tree in trees)
        )

    return [
        (Profiler, "ingest", "runtime.profiler.ingest", None),
        (Profiler, "drain", "runtime.worker.drain_wait", None),
        (Profiler, "snapshot", "runtime.profiler.snapshot", None),
        (Profiler, "hot_ranges", "core.hot_ranges", None),
        (Profiler, "close", "runtime.profiler.close", None),
        (HashPartitioner, "split", "runtime.partition.split", None),
        (RingProducer, "write_frame", "runtime.ring.write", ring_bytes),
        (ColumnarRapTree, "extend", "core.columnar.ingest", None),
        (ColumnarRapTree, "add_batch", "core.columnar.ingest", None),
        (ColumnarRapTree, "add_counted", "core.columnar.ingest", None),
        (ShmAttachment, "__init__", "runtime.shm.attach", None),
        (profiler_module, "combine_many", "core.combine.fold", fold_inputs),
        (RapTree, "estimate", "core.tree.estimate", None),
        (ColumnarRapTree, "estimate", "core.tree.estimate", None),
    ]


class Tracer:
    """Records spans around the calls into each layer while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[Tuple[int, str], float] = {}
        self.run = 0
        self._open: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def count(self, name: str, amount: float) -> None:
        key = (self.run, name)
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _wrap(self, name: str, function: Callable, counter: Optional[Callable]):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(tracer, *args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.run))
            tracer._open.append(index)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.run)

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attribute, name, counter in targets():
            original = vars(owner)[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def self_times(self, run: int) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per-name self time and call count of one traced pass.

        A span's self time is its duration minus the durations of its
        direct children; spans are recorded on one thread, so children
        never overlap and the subtraction is exact.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for index, (name, start, end, _, span_run) in enumerate(self.spans):
            if span_run != run:
                continue
            totals[name] = totals.get(name, 0.0) + (end - start) - child[index]
            calls[name] = calls.get(name, 0) + 1
        return totals, calls

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as Chrome trace-event JSON (one track per pass)."""
        origin = min((span[1] for span in self.spans), default=0.0)
        pid = os.getpid()
        events = []
        for name, start, end, parent, run in self.spans:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": pid,
                    "tid": run,
                    "args": {
                        "run": run,
                        "parent": self.spans[parent][0] if parent >= 0 else None,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
