"""The benchmark's workloads and the closed-loop pass each run repeats.

Every workload pins ``epsilon=0.01``, ``backend="columnar"``, hash
partitioning, ``block`` backpressure, ``batch_size=16384`` and
``shard_epsilon = shards * epsilon``, with at most 2 shards (the
reference machine has 2 cores). The ring transport is the process
executor's default and is not passed. One caller drives each pass and
sends the next call only after the previous one returns.

Why these three: ``values-bulk`` is the fastest path at steady state
(parent partitions and writes ring frames, workers run the combining
window, bootstrap and kernel; one fold). ``code-serial`` keeps all work
on the calling thread in the columnar kernel's per-event path, so
kernel and serial-ingest changes show there and not on ``values-bulk``.
``values-live`` answers after every chunk: each answer forces a worker
sync and a fold, so work deferred to sync time shows as answer latency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from repro import Profiler, RapConfig
from repro.workloads import benchmark

import oracle

EPSILON = 0.01
BATCH_SIZE = 16384
HOT_FRACTION = 0.05
QUERIES = 32


@dataclass(frozen=True)
class Workload:
    name: str
    program: str  # a repro.workloads.benchmark name
    kind: str  # "values" (load values) or "code" (basic-block PCs)
    events: int  # events per stream
    executor: str
    shards: int
    chunk: int  # events per ingest() call; chunk < events answers after each
    pool: int  # distinct streams per run, cycled by the passes
    min_passes: int  # measured passes even when --seconds runs out first
    why: str

    # Stream lengths sit between powers of two on purpose: merge batches
    # fire at power-of-two event counts, so a stream ending on one would
    # report the post-merge minimum of the node-count sawtooth instead
    # of the memory a profiler holds for most of the run.
    #
    # Node counts and the worst undercount are averaged over ``pool``
    # streams. The worst undercount is an extreme over thousands of
    # nodes and varies most from stream to stream on the gcc code
    # stream (about 0.9e-3 to 2.4e-3 of n), hence 32 streams there.

    @property
    def shard_epsilon(self) -> float:
        return self.shards * EPSILON

    @property
    def live(self) -> bool:
        return self.chunk < self.events


WORKLOADS = {
    "values-bulk": Workload(
        name="values-bulk",
        program="gzip",
        kind="values",
        events=3 << 20,
        executor="process",
        shards=2,
        chunk=3 << 20,
        pool=8,
        min_passes=8,
        why=(
            "Fastest steady-state path: gzip values, 3Mi events, process "
            "executor x2 shards, one ingest+drain+answer. Pins: eps .01, "
            "shard eps .02, columnar, hash, block, batch 16Ki"
        ),
    ),
    "code-serial": Workload(
        name="code-serial",
        program="gcc",
        kind="code",
        events=3 << 19,
        executor="serial",
        shards=1,
        chunk=3 << 19,
        pool=32,
        min_passes=32,
        why=(
            "Kernel per-event path on the caller: gcc PCs, 1.5Mi events, "
            "serial executor x1 shard; no partition, ring or fold. Pins: "
            "eps .01, shard eps .01, columnar, batch 16Ki"
        ),
    ),
    "values-live": Workload(
        name="values-live",
        program="parser",
        kind="values",
        events=3 << 19,
        executor="process",
        shards=2,
        chunk=3 << 14,
        pool=6,
        min_passes=6,
        why=(
            "Reads beside writes: parser values, 1.5Mi events, process x2 "
            "shards, 32x(ingest 48Ki, answer); each answer syncs and folds. "
            "Pins: eps .01, shard eps .02, columnar, hash, block"
        ),
    ),
}


@dataclass
class Stream:
    """One generated input: events, sorted ingest chunks and queries."""

    values: np.ndarray
    universe: int
    chunk: int
    parts: List[np.ndarray]  # each ingest chunk, sorted (for the oracle)
    queries: np.ndarray  # (QUERIES, 2) inclusive ranges
    ranges: List[Tuple[int, int]]  # the same ranges as Python ints


def make_stream(workload: Workload, seed: int, index: int) -> Stream:
    """Stream ``index`` of a run with ``seed``; the same pair, the same input."""
    spec = benchmark(workload.program)
    stream_seed = seed * 1000 + index
    if workload.kind == "code":
        events = spec.code_stream(workload.events, seed=stream_seed)
    else:
        events = spec.value_stream(workload.events, seed=stream_seed)
    values = np.ascontiguousarray(events.values, dtype=np.uint64)
    return _stream(values, events.universe, workload.chunk, seed, index)


def _stream(
    values: np.ndarray, universe: int, chunk: int, seed: int, index: int
) -> Stream:
    parts = [
        np.sort(values[at:at + chunk]) for at in range(0, len(values), chunk)
    ]
    # Query ranges between two events drawn from the stream, so they
    # land where the stream has weight, at every scale it spans.
    rng = np.random.default_rng([seed, index])
    ends = np.sort(rng.choice(values, size=(QUERIES, 2)), axis=1)
    ranges = [(int(lo), int(hi)) for lo, hi in ends]
    return Stream(values, universe, chunk, parts, ends, ranges)


def head(stream: Stream, events: int) -> Stream:
    """The first ``events`` events of ``stream`` (used to warm up)."""
    chunk = min(stream.chunk, events)
    return _stream(stream.values[:events].copy(), stream.universe, chunk, 0, 0)


@dataclass
class PassResult:
    events: int
    setup_s: float = 0.0
    span_s: float = 0.0  # first ingest() to the return of the last answer
    wall_s: float = 0.0  # first ingest() to the return of close()
    answer_s: List[float] = field(default_factory=list)
    calls: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    snapshot_nodes: int = 0
    shard_nodes: int = 0
    worst_frac: float = 0.0
    metrics: Optional[object] = None  # repro RuntimeMetrics after the last answer
    parent_stats: Optional[object] = None  # TreeStats of an in-process shard
    speed: float = 1.0  # host slowness around the pass (see speed.py)

    @property
    def events_per_s(self) -> float:
        """Events per second, scaled to nominal host speed (0 if it failed)."""
        return self.events * self.speed / self.span_s if self.span_s else 0.0


def open_profiler(workload: Workload, universe: int, clock=None):
    """Construct and open the pinned profiler; returns it and the setup time."""
    start = time.perf_counter()
    profiler = Profiler(
        RapConfig(range_max=universe, epsilon=EPSILON, backend="columnar"),
        shards=workload.shards,
        executor=workload.executor,
        partition="hash",
        shard_epsilon=workload.shard_epsilon,
        backpressure="block",
        batch_size=BATCH_SIZE,
        clock=clock,
    )
    profiler.open()
    return profiler, time.perf_counter() - start


def run_pass(workload: Workload, stream: Stream, tracer=None) -> PassResult:
    """One closed-loop pass over ``stream``, then the oracle and hygiene.

    With a ``tracer`` the wrappers are installed after ``open()`` and
    removed after ``close()``, and the profiler gets a clock so ring
    stall time is recorded; without one, nothing is wrapped.
    """
    result = PassResult(events=len(stream.values))
    answers = []
    profiler = None
    try:
        profiler, result.setup_s = open_profiler(
            workload, stream.universe, time.perf_counter if tracer else None
        )
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        chunk = stream.chunk
        for at in range(0, len(stream.values), chunk):
            result.calls += 1
            profiler.ingest(stream.values[at:at + chunk])
            if not workload.live:
                profiler.drain()
            result.calls += 1
            asked = time.perf_counter()
            snapshot = profiler.snapshot()
            hot = profiler.hot_ranges(HOT_FRACTION)
            estimates = [snapshot.estimate(lo, hi) for lo, hi in stream.ranges]
            result.answer_s.append(time.perf_counter() - asked)
            answers.append((snapshot, hot, estimates, at + chunk))
        result.span_s = time.perf_counter() - start
        result.metrics = profiler.metrics
        if workload.executor != "process":
            result.parent_stats = profiler.shard_trees()[0].stats
        profiler.close()
        result.wall_s = time.perf_counter() - start
    except Exception as error:  # a failed call is counted, not fatal
        result.failed += 1
        result.problems.append(f"{type(error).__name__}: {error}")
    finally:
        if tracer is not None:
            tracer.uninstall()
        if profiler is not None and not profiler.closed:
            try:
                profiler.close()
            except Exception as error:
                result.failed += 1
                result.problems.append(f"close: {type(error).__name__}: {error}")
    _check(workload, stream, answers, result)
    return result


def _check(workload: Workload, stream: Stream, answers, result: PassResult) -> None:
    for snapshot, hot, estimates, end in answers:
        events = min(end, len(stream.values))
        parts = stream.parts[: -(-events // stream.chunk)]
        problems, worst = oracle.check_answer(
            snapshot, hot, stream.queries, estimates, parts, events,
            workload.shard_epsilon,
        )
        result.worst_frac = max(result.worst_frac, worst)
        if problems:
            result.failed += 1
            result.problems.extend(problems)
    if answers:
        result.snapshot_nodes = answers[-1][0].node_count
    if result.metrics is not None:
        result.shard_nodes = result.metrics.node_count
        if result.metrics.dropped_events:
            result.failed += 1
            result.problems.append(
                f"{result.metrics.dropped_events} events dropped"
            )
    leaks = oracle.hygiene_problems()
    if leaks:
        result.failed += 1
        result.problems.extend(leaks)
