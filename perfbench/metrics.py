"""Metric definitions and the percentile rule for the answer tail.

``END_TO_END`` are what a user of ``repro.Profiler`` sees; a run with
tracing off reports exactly these. ``PER_LAYER`` come from the traced
run; each one names the end-to-end metric and workload it should move,
so a later change that claims a gain in one layer can say beforehand
where the gain must show up. ``BENCHMARK.json`` mirrors both lists (a
test keeps them in step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    moves: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric("events_per_s", "events/s", "higher", 0.2),
    Metric("answer_p50_ms", "ms", "lower", 0.25),
    Metric("answer_tail_ms", "ms", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("snapshot_nodes", "count", "lower", 0.1),
    Metric("shard_nodes", "count", "lower", 0.1),
    Metric("max_undercount_frac", "frac", "lower", 0.25),
)

# Self-time metrics: each is the time spent in one wrapped callable
# minus its traced children. Together with ``trace.unattributed_s`` they
# add up to ``trace.wall_s``.
SELF_TIMES: Dict[str, str] = {
    "runtime.profiler.ingest_self_s": "runtime.profiler.ingest",
    "runtime.partition.split_s": "runtime.partition.split",
    "runtime.ring.write_s": "runtime.ring.write",
    "core.columnar.ingest_s": "core.columnar.ingest",
    "runtime.worker.drain_wait_s": "runtime.worker.drain_wait",
    "runtime.profiler.snapshot_self_s": "runtime.profiler.snapshot",
    "runtime.shm.attach_s": "runtime.shm.attach",
    "core.combine.fold_s": "core.combine.fold",
    "core.hot_ranges.s": "core.hot_ranges",
    "core.tree.estimate_s": "core.tree.estimate",
    "runtime.profiler.close_s": "runtime.profiler.close",
}

_BULK = "events_per_s on values-bulk"
_SERIAL = "events_per_s on code-serial"
_LIVE = "answer_p50_ms and answer_tail_ms on values-live"

PER_LAYER: Tuple[Metric, ...] = (
    Metric("runtime.partition.split_s", "s", "lower", None,
           _BULK + "; zero on code-serial"),
    Metric("runtime.partition.calls", "count", "lower", None,
           _BULK + "; zero on code-serial"),
    Metric("runtime.ring.write_s", "s", "lower", None, _BULK),
    Metric("runtime.ring.frames", "count", "lower", None, _BULK),
    Metric("runtime.ring.bytes", "bytes", "lower", None, _BULK),
    Metric("runtime.ring.stalls", "count", "lower", None,
           _BULK + "; many stalls mean the workers are the bottleneck"),
    Metric("runtime.ring.stall_s", "s", "lower", None,
           _BULK + "; a large value means the workers are the bottleneck"),
    Metric("runtime.worker.drain_wait_s", "s", "lower", None,
           _BULK + " (worker work left after the producer stops)"),
    Metric("runtime.worker.splits", "count", "lower", None,
           _BULK + "; answer_p50_ms on values-live"),
    Metric("runtime.worker.merge_batches", "count", "lower", None,
           _BULK + "; answer_p50_ms on values-live"),
    Metric("core.columnar.ingest_s", "s", "lower", None,
           _SERIAL + "; near zero on the process workloads"),
    Metric("core.columnar.events", "count", "higher", None,
           _SERIAL + "; zero on the process workloads"),
    Metric("core.columnar.splits", "count", "lower", None, _SERIAL),
    Metric("core.columnar.merge_batches", "count", "lower", None, _SERIAL),
    Metric("runtime.shm.attach_s", "s", "lower", None,
           _LIVE + "; barely registers on values-bulk"),
    Metric("core.combine.fold_s", "s", "lower", None,
           _LIVE + "; barely registers on values-bulk"),
    Metric("core.combine.calls", "count", "lower", None, _LIVE),
    Metric("core.combine.input_nodes", "count", "lower", None, _LIVE),
    Metric("core.hot_ranges.s", "s", "lower", None, _LIVE),
    Metric("core.tree.estimate_s", "s", "lower", None, _LIVE),
    Metric("runtime.profiler.ingest_self_s", "s", "lower", None,
           "events_per_s on every workload (dispatch overhead of no layer)"),
    Metric("runtime.profiler.snapshot_self_s", "s", "lower", None,
           _LIVE + " (sync and fold overhead of no layer)"),
    Metric("runtime.profiler.close_s", "s", "lower", None,
           "none end to end (close is after the last answer)"),
    Metric("trace.wall_s", "s", "lower", None,
           "first ingest() to close() return of one traced pass"),
    Metric("trace.unattributed_s", "s", "lower", None,
           "wall time outside every traced span (the loop itself)"),
    Metric("trace.events_per_s", "events/s", "higher", None,
           "events_per_s with wrappers installed"),
    Metric("trace.untraced_events_per_s", "events/s", "higher", None,
           "events_per_s of the paired untraced passes"),
    Metric("trace.overhead_frac", "frac", "lower", None,
           "1 - traced/untraced events_per_s"),
)

#: Percentiles tried for the answer tail, highest first; the tail is the
#: highest one with at least ``TAIL_BEYOND`` answers above it.
TAIL_LADDER = (99, 90, 50)
TAIL_BEYOND = 10


def tail_percentile(samples: int) -> int:
    """Highest ladder percentile the sample count supports.

    Falls back to the median when fewer than ``2 * TAIL_BEYOND``
    answers exist (the bulk workloads answer once per pass).
    """
    for percentile in TAIL_LADDER:
        if samples * (100 - percentile) >= TAIL_BEYOND * 100:
            return percentile
    return 50
