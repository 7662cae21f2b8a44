"""Sharded profiles vs the single-tree oracle, and run-to-run determinism.

Splitting a stream across ``N`` shards (each profiling at the inherited
``epsilon``) and folding with ``combine_many`` must preserve the RAP
accuracy contract: for any range, the folded estimate is a lower bound
on the exact count and undercounts by at most
``sum_i(epsilon * n_i) = epsilon * n``. These tests pin that bound on
seeded zipf and phased streams for 1, 2, and 8 shards, check that the
``block``/``spill`` ring policies make process-executor ingestion a
deterministic function of the stream — one the serial executor, which
runs the same ingest stage, reproduces shard for shard — and run the
acceptance scenario
on both executors: a 4-shard profiler over a 200k-event zipf stream
whose hot-range report agrees with a single-tree oracle within the
documented bound.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

import numpy as np
import pytest

from repro.core import RapConfig, RapTree, dump_tree
from repro.core.combine import _COMBINE_WINDOW
from repro.runtime import MIN_RING_BYTES, Profiler

from tests.core.test_tree_fastpath import phased_stream, shape, zipf_stream

UNIVERSE = 2**16
EPS = 0.05


def exact_counts(values: Sequence[int]) -> np.ndarray:
    """Sorted value array for O(log n) exact range counts."""
    return np.sort(np.asarray(values, dtype=np.int64))


def exact_in(sorted_values: np.ndarray, lo: int, hi: int) -> int:
    left = np.searchsorted(sorted_values, lo, side="left")
    right = np.searchsorted(sorted_values, hi, side="right")
    return int(right - left)


def random_ranges(rng: random.Random, n: int) -> List[Tuple[int, int]]:
    ranges = []
    for _ in range(n):
        lo = rng.randrange(UNIVERSE)
        hi = rng.randrange(lo, UNIVERSE)
        ranges.append((lo, hi))
    return ranges


def profiled_snapshot(values: Sequence[int], shards: int, **options) -> RapTree:
    config = RapConfig(UNIVERSE, epsilon=EPS)
    with Profiler(config, shards=shards, **options) as profiler:
        profiler.ingest(np.asarray(values, dtype=np.uint64))
        return profiler.snapshot()


class TestAccuracyBoundAcrossShardCounts:
    """Undercount <= eps * n for every shard count, on every stream."""

    @pytest.mark.parametrize("shards", [1, 2, 8])
    @pytest.mark.parametrize("make_stream", [zipf_stream, phased_stream])
    def test_folded_estimates_stay_within_bound(self, shards, make_stream):
        rng = random.Random(97)
        values = make_stream(rng, UNIVERSE, 30_000)
        sorted_values = exact_counts(values)
        snapshot = profiled_snapshot(values, shards)
        assert snapshot.events == len(values)
        budget = EPS * len(values)
        for lo, hi in random_ranges(rng, 60):
            exact = exact_in(sorted_values, lo, hi)
            estimate = snapshot.estimate(lo, hi)
            assert estimate <= exact, (shards, lo, hi)
            assert exact - estimate <= budget, (shards, lo, hi)

    @pytest.mark.parametrize("shards", [2, 8])
    def test_sharded_agrees_with_single_tree_oracle(self, shards):
        """Both are within eps*n of exact, so within eps*n of each other."""
        rng = random.Random(101)
        values = zipf_stream(rng, UNIVERSE, 30_000)
        oracle = RapTree.from_config(RapConfig(UNIVERSE, epsilon=EPS))
        oracle.extend(values)
        snapshot = profiled_snapshot(values, shards)
        budget = EPS * len(values)
        for lo, hi in random_ranges(rng, 60):
            delta = abs(snapshot.estimate(lo, hi) - oracle.estimate(lo, hi))
            assert delta <= budget, (shards, lo, hi)


class TestDeterminism:
    """block/spill ingestion is a pure function of the stream."""

    def test_spill_matches_block_shape(self):
        rng = random.Random(107)
        values = phased_stream(rng, UNIVERSE, 20_000)
        options = dict(
            executor="process", ring_bytes=MIN_RING_BYTES, batch_size=128
        )
        block = profiled_snapshot(values, 4, backpressure="block", **options)
        spill = profiled_snapshot(values, 4, backpressure="spill", **options)
        assert dump_tree(spill) == dump_tree(block)

    def test_repeat_runs_are_identical(self):
        rng = random.Random(109)
        values = zipf_stream(rng, UNIVERSE, 15_000)
        first = profiled_snapshot(values, 4)
        second = profiled_snapshot(values, 4)
        assert shape(first.root) == shape(second.root)


class TestProcessExecutorOracle:
    """The multiprocess executor honors the same accuracy contract.

    Same fold (``combine_many``), same partitioner, same per-shard
    undercount budget — only the shard trees live in worker processes
    over shared memory. The envelope is therefore identical:
    ``eps * n`` against exact counts, hence ``eps * n`` against any
    other executor's snapshot too.
    """

    def test_200k_zipf_within_bound_of_single_tree_oracle(self):
        rng = random.Random(2006)
        values = zipf_stream(rng, UNIVERSE, 200_000)
        sorted_values = exact_counts(values)
        oracle = RapTree.from_config(RapConfig(UNIVERSE, epsilon=EPS))
        oracle.extend(values)
        snapshot = profiled_snapshot(values, 4, executor="process")
        assert snapshot.events == oracle.events == len(values)
        budget = EPS * len(values)
        for lo, hi in random_ranges(rng, 60):
            exact = exact_in(sorted_values, lo, hi)
            estimate = snapshot.estimate(lo, hi)
            assert estimate <= exact, (lo, hi)
            assert exact - estimate <= budget, (lo, hi)
            assert abs(estimate - oracle.estimate(lo, hi)) <= budget, (lo, hi)

    def test_repeat_process_runs_are_identical(self):
        rng = random.Random(113)
        values = zipf_stream(rng, UNIVERSE, 15_000)
        first = profiled_snapshot(values, 4, executor="process")
        second = profiled_snapshot(values, 4, executor="process")
        assert dump_tree(first) == dump_tree(second)

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_process_shards_equal_serial(self, shards):
        """One ingest stage, two places to run it: given the same calls,
        each followed by a sync, serial and process shards are the same
        trees. Every call crosses the combining window mid-call on every
        shard, and raw and counted calls mix."""
        rng = random.Random(127 + shards)
        per_call = shards * (_COMBINE_WINDOW + 5_000)
        calls = [
            ("ingest", zipf_stream(rng, UNIVERSE, 2 * per_call)),
            ("ingest_counted", [
                (rng.randrange(UNIVERSE), rng.randrange(1, 9))
                for _ in range(per_call // 4)
            ]),
            ("ingest", phased_stream(rng, UNIVERSE, per_call)),
        ]

        def run(executor):
            config = RapConfig(UNIVERSE, epsilon=EPS)
            dumps, shard_rows = [], []
            with Profiler(
                config, shards=shards, executor=executor
            ) as profiler:
                for method, data in calls:
                    if method == "ingest":
                        data = np.asarray(data, dtype=np.uint64)
                    getattr(profiler, method)(data)
                    dumps.append(dump_tree(profiler.snapshot()))
                    shard_rows.append([
                        (s.events, s.node_count, s.splits, s.merge_batches)
                        for s in profiler.metrics.shards
                    ])
            return dumps, shard_rows

        serial = run("serial")
        assert run("process") == serial
        shard_events = np.array(
            [[row[0] for row in rows] for rows in serial[1]]
        )
        call_events = np.diff(shard_events, axis=0, prepend=0)
        assert (call_events > _COMBINE_WINDOW).all()


class TestSanitizedRuns:
    """The race sanitizer must observe nothing — and change nothing."""

    @staticmethod
    def sanitized_matches_plain(executor: str) -> dict:
        rng = random.Random(131)
        values = zipf_stream(rng, UNIVERSE, 30_000)
        plain = profiled_snapshot(values, 4, executor=executor)
        config = RapConfig(UNIVERSE, epsilon=EPS, debug_sanitize=True)
        with Profiler(config, shards=4, executor=executor) as profiler:
            profiler.ingest(np.asarray(values, dtype=np.uint64))
            sanitized = profiler.snapshot()
        sanitizer = profiler.sanitizer
        assert sanitizer is not None
        report = sanitizer.report()
        assert report["violations"] == []
        assert report["events_logged"] > 0
        # Instrumentation is observation-only: identical trees.
        assert dump_tree(sanitized) == dump_tree(plain)
        return report

    def test_sanitized_run_is_clean_and_matches_unsanitized(self):
        report = self.sanitized_matches_plain("serial")
        assert report["trees_tracked"] == 4

    def test_sanitized_process_run_is_clean_and_matches_unsanitized(self):
        report = self.sanitized_matches_plain("process")
        # Worker-side sanitizers track the trees and report in.
        assert len(report["workers"]) == 4

    def test_sanitized_serial_run_is_clean(self):
        rng = random.Random(137)
        values = zipf_stream(rng, UNIVERSE, 10_000)
        config = RapConfig(UNIVERSE, epsilon=EPS, debug_sanitize=True)
        with Profiler(config, shards=2, executor="serial") as profiler:
            profiler.ingest(np.asarray(values, dtype=np.uint64))
            snapshot = profiler.snapshot()
        assert snapshot.events == len(values)
        assert profiler.sanitizer.violations == ()


class TestAcceptanceScenario:
    """Acceptance: 4 shards, 200k zipf events, hot ranges vs oracle."""

    executor = "serial"

    @pytest.fixture(scope="class")
    def stream(self):
        rng = random.Random(2006)  # CGO 2006
        values = zipf_stream(rng, UNIVERSE, 200_000)
        return values, exact_counts(values)

    @pytest.fixture(scope="class")
    def snapshot(self, stream):
        values, _ = stream
        config = RapConfig(UNIVERSE, epsilon=EPS)
        with Profiler(config, shards=4, executor=self.executor) as profiler:
            profiler.ingest(np.asarray(values, dtype=np.uint64))
            report = profiler.hot_ranges(hot_fraction=0.05)
            return profiler.snapshot(), report

    def test_hot_report_matches_oracle_within_bound(self, stream, snapshot):
        values, sorted_values = stream
        folded, report = snapshot
        budget = EPS * len(values)

        oracle = RapTree.from_config(RapConfig(UNIVERSE, epsilon=EPS))
        oracle.extend(values)

        assert folded.events == oracle.events == len(values)
        assert report, "200k zipf stream must surface hot ranges"
        for lo, hi, weight in report:
            exact = exact_in(sorted_values, lo, hi)
            # Reported weight is a lower bound within the documented
            # eps * n budget of both the truth and the oracle's answer.
            assert weight <= exact
            assert exact - weight <= budget, (lo, hi)
            assert abs(weight - oracle.estimate(lo, hi)) <= budget, (lo, hi)

    def test_hot_report_covers_the_true_heavy_hitters(self, stream, snapshot):
        values, sorted_values = stream
        _, report = snapshot
        counts = {}
        for value in values:
            counts[value] = counts.get(value, 0) + 1
        heavy = [
            value for value, count in counts.items()
            if count >= 0.05 * len(values)
        ]
        assert heavy, "zipf stream should have >=5% heavy hitters"
        for value in heavy:
            assert any(lo <= value <= hi for lo, hi, _ in report), value

    def test_snapshot_satisfies_tree_invariants(self, snapshot):
        folded, _ = snapshot
        folded.check_invariants()


class TestAcceptanceScenarioProcess(TestAcceptanceScenario):
    """The same acceptance scenario on the process executor."""

    executor = "process"
