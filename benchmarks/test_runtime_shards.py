"""Multi-shard runtime throughput against the single-shard baseline.

The tentpole claim for :mod:`repro.runtime`: partitioning a stream
across shards, each fed by its own ingest stage
(:class:`repro.core.combine.IngestStage`), beats a single shard by
>= 2x events/sec at the default 50k scale. Both sides run the same
stage over columnar shard trees: the runtime builds no other kind.
The multi-shard configuration uses ``shard_epsilon = N * epsilon``
(equal total node budget, documented ``shard_epsilon * n`` snapshot
bound) so the comparison holds memory constant; see ``docs/runtime.md``.

The workload is the 64-bit gzip value stream at eps = 1% — the
"heaviest realistic configuration" from ``test_core_throughput.py`` —
ingested in 16k-event chunks so ``np.unique`` amortizes per chunk.

These benchmarks feed the same regression lineage as
``test_core_throughput.py``: their means land in the JSON payload that
``check_regression.py`` gates in CI (see ``benchmarks/conftest.py``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import RapConfig
from repro.core.combine import combine_many
from repro.runtime import Profiler
from repro.workloads import benchmark as load_benchmark

EVENTS = int(os.environ.get("RAP_BENCH_EVENTS", "50000"))
EPSILON = 0.01
SHARDS = 4
BATCH = 16_384


@pytest.fixture(scope="module")
def value_stream():
    stream = load_benchmark("gzip").value_stream(EVENTS, seed=1)
    return (
        np.asarray(stream.values, dtype=np.uint64),
        stream.universe,
    )


def _single_shard(values, universe):
    """The baseline: one serial shard (no partition), fed by the same
    ingest stage as every other shard."""
    return Profiler(
        RapConfig(range_max=universe, epsilon=EPSILON),
        shards=1,
        executor="serial",
    )


def _multi_shard(values, universe, backend="columnar"):
    """The tentpole path: hash partition, 4 serial shards, equal node
    budget."""
    return Profiler(
        RapConfig(range_max=universe, epsilon=EPSILON, backend=backend),
        shards=SHARDS,
        executor="serial",
        shard_epsilon=SHARDS * EPSILON,
        batch_size=BATCH,
    )


def _process_shard(values, universe, backend="columnar"):
    """The multiprocess path: same partition/budget, worker processes
    over shared-memory columnar trees fed raw partitioned frames through
    shared-memory rings; each worker duplicate-combines them in its own
    combining buffer."""
    return Profiler(
        RapConfig(range_max=universe, epsilon=EPSILON, backend=backend),
        shards=SHARDS,
        executor="process",
        shard_epsilon=SHARDS * EPSILON,
        batch_size=BATCH,
    )


def _timed_ingest(profiler, values):
    """The measured section: producer dispatch plus, for multi-shard
    profilers, ``drain()`` so every accepted batch is applied before
    the clock stops — the same methodology as the 2x speedup floor
    below. Open/close (worker spawn and teardown) and the snapshot fold
    happen outside the timer: the fold has its own row
    (``test_runtime_snapshot_fold``) and lifecycle churn is round-to-
    round scheduling noise, not ingest throughput."""
    profiler.ingest(values)
    if profiler.shards > 1:
        profiler.drain()
    return profiler


def _bench_ingest(benchmark, make_profiler, values, universe, rounds=7):
    opened = []

    def fresh_profiler():
        while opened:
            opened.pop().close()
        profiler = make_profiler(values, universe).open()
        opened.append(profiler)
        return (profiler, values), {}

    benchmark.pedantic(
        _timed_ingest, setup=fresh_profiler, rounds=rounds, iterations=1
    )
    snapshot = opened.pop().close()
    assert snapshot.events == EVENTS


def test_runtime_single_shard_ingest(benchmark, value_stream):
    _bench_ingest(benchmark, _single_shard, *value_stream)


# Parametrized by backend so the row ids stay stable for the regression
# gate; the runtime builds columnar shard trees whatever the config says,
# so "columnar" is the only row.
@pytest.mark.parametrize("backend", ["columnar"])
def test_runtime_multi_shard_ingest(benchmark, backend, value_stream):
    def make(values, universe):
        return _multi_shard(values, universe, backend)

    _bench_ingest(benchmark, make, *value_stream)


# Parametrized like the serial multi-shard row so the two lineages pair
# by backend.
@pytest.mark.parametrize("backend", ["columnar"])
def test_runtime_process_shard_ingest(benchmark, backend, value_stream):
    def make(values, universe):
        return _process_shard(values, universe, backend)

    # This row feeds the frozen-baseline ring gate, whose 1.4x floor
    # leaves far less margin than the 30% tolerance band — so give its
    # min estimator more samples to find the quiet-machine floor
    # through scheduler noise.
    _bench_ingest(benchmark, make, *value_stream, rounds=21)


def test_runtime_snapshot_fold(benchmark, value_stream):
    """Latency of folding 4 populated shards into one snapshot tree."""
    values, universe = value_stream
    with _multi_shard(values, universe) as profiler:
        profiler.ingest(values)
        profiler.drain()  # folds below then see quiesced shards
        folded = benchmark(combine_many, profiler.shard_trees())
    assert folded.events == EVENTS


def test_multi_shard_speedup_is_at_least_2x(value_stream):
    """The ISSUE acceptance gate, asserted only at the full 50k scale.

    Times pure ingest — producer dispatch plus ``drain()`` for the
    multi-shard path. The snapshot fold is measured separately above.
    Scaled-down smoke runs (e.g. CI at 10k) still execute both paths —
    exercising the runtime end to end — but their ratio is dominated by
    the single shard's cold start, so the 2x floor applies only at the
    scale the claim is documented for.
    """
    values, universe = value_stream

    def timed_ingest(make_profiler, runs=3):
        best = float("inf")
        for _ in range(runs):
            with make_profiler(values, universe) as profiler:
                start = time.perf_counter()
                profiler.ingest(values)
                if profiler.shards > 1:
                    profiler.drain()
                best = min(best, time.perf_counter() - start)
                assert profiler.snapshot().events == EVENTS
        return best

    single = timed_ingest(_single_shard)
    multi = timed_ingest(_multi_shard)
    speedup = single / multi
    print(
        f"\nsingle-shard {EVENTS / single:,.0f} ev/s, "
        f"{SHARDS}-shard {EVENTS / multi:,.0f} ev/s "
        f"({speedup:.2f}x)"
    )
    if EVENTS >= 50_000:
        assert speedup >= 2.0, (
            f"multi-shard ingest only {speedup:.2f}x the single-shard "
            f"baseline at {EVENTS} events (required >= 2x)"
        )


def test_process_speedup_is_at_least_1_5x(value_stream):
    """The ``executor="process"`` acceptance gate, at the full 50k scale.

    Same methodology as the 2x floor above — pure ingest plus
    ``drain()``, best of three — comparing the multiprocess executor
    against the serial executor on the *same* columnar backend and
    shard configuration, so the ratio isolates what the process
    executor adds: no GIL over the shard kernels, raw-frame dispatch,
    and each worker's cross-frame combining buffer feeding the
    cold-start bulk build. Mirrored in CI by ``check_regression.py``'s
    process-executor gate over the same two rows of
    ``BENCH_core_throughput.json``. Smoke scales run both paths but
    skip the floor: process spawn and ring handshakes dominate there.
    """
    values, universe = value_stream

    def timed_ingest(make_profiler, runs=3):
        best = float("inf")
        for _ in range(runs):
            with make_profiler(values, universe) as profiler:
                start = time.perf_counter()
                profiler.ingest(values)
                profiler.drain()
                best = min(best, time.perf_counter() - start)
                assert profiler.snapshot().events == EVENTS
        return best

    serial = timed_ingest(_multi_shard)
    process = timed_ingest(_process_shard)
    speedup = serial / process
    print(
        f"\nserial {EVENTS / serial:,.0f} ev/s, "
        f"process {EVENTS / process:,.0f} ev/s ({speedup:.2f}x)"
    )
    if EVENTS >= 50_000:
        assert speedup >= 1.5, (
            f"process-executor ingest only {speedup:.2f}x the serial "
            f"executor at {EVENTS} events (required >= 1.5x)"
        )
