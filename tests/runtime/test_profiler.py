"""Profiler service tests: lifecycle, consistency, metrics, policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RapConfig, RapTree, combine_many, dump_tree
from repro.runtime import MIN_RING_BYTES, Profiler, make_partitioner

UNIVERSE = 2**16


def config(**overrides) -> RapConfig:
    base = dict(epsilon=0.05)
    base.update(overrides)
    return RapConfig(UNIVERSE, **base)


def zipf_values(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.zipf(1.3, size=n) % UNIVERSE).astype(np.uint64)


class TestLifecycle:
    def test_ingest_before_open_raises(self):
        profiler = Profiler(config())
        with pytest.raises(RuntimeError, match="open"):
            profiler.ingest([1, 2, 3])

    def test_open_twice_raises(self):
        profiler = Profiler(config(), executor="serial").open()
        with pytest.raises(RuntimeError, match="open"):
            profiler.open()
        profiler.close()

    def test_ingest_after_close_raises(self):
        profiler = Profiler(config(), executor="serial").open()
        profiler.close()
        with pytest.raises(RuntimeError, match="closed"):
            profiler.ingest([1])

    def test_snapshot_before_open_raises(self):
        with pytest.raises(RuntimeError, match="not open"):
            Profiler(config()).snapshot()

    def test_context_manager_opens_and_closes(self):
        with Profiler(config(), shards=2) as profiler:
            profiler.ingest([1, 2, 3])
        assert profiler.closed
        assert profiler.snapshot().events == 3

    def test_close_is_idempotent_and_returns_final_snapshot(self):
        profiler = Profiler(config(), executor="serial").open()
        profiler.ingest([5] * 10)
        first = profiler.close()
        assert profiler.close() is first
        assert first.events == 10

    def test_invalid_knobs_raise(self):
        with pytest.raises(ValueError, match="shards"):
            Profiler(config(), shards=0)
        with pytest.raises(ValueError, match="executor"):
            Profiler(config(), executor="fork")
        with pytest.raises(ValueError, match="batch_size"):
            Profiler(config(), batch_size=0)


class TestSingleShardPassthrough:
    def test_serial_single_shard_matches_bare_tree_exactly(self):
        values = zipf_values(3, 20_000)
        oracle = RapTree.from_config(config())
        oracle.extend(int(v) for v in values)
        with Profiler(config(), shards=1, executor="serial") as profiler:
            profiler.ingest(values)
            snapshot = profiler.snapshot()
        assert snapshot.events == oracle.events
        assert [
            (n.lo, n.hi, n.count) for n in snapshot.nodes()
        ] == [(n.lo, n.hi, n.count) for n in oracle.nodes()]

    def test_snapshot_does_not_alias_the_live_tree(self):
        with Profiler(config(), shards=1, executor="serial") as profiler:
            profiler.ingest([7] * 100)
            snapshot = profiler.snapshot()
            profiler.ingest([9] * 50)
            assert snapshot.events == 100  # unchanged by later ingest
            assert profiler.snapshot().events == 150


class TestColumnarRuntime:
    """Shard trees are columnar on every executor; the object tree,
    fed the same operations, is the oracle for their shape."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_default_config_snapshots_are_columnar(self, executor):
        with Profiler(RapConfig(UNIVERSE), executor=executor) as profiler:
            profiler.ingest(zipf_values(41, 5_000))
            snapshot = profiler.snapshot()
        assert type(snapshot).__name__ == "ColumnarRapTree"
        assert snapshot.events == 5_000

    @pytest.mark.parametrize("shards", [1, 3])
    def test_serial_snapshot_matches_the_object_oracle(self, shards):
        batch = 1024
        chunks = [zipf_values(seed, 3 * batch + 17) for seed in (43, 47)]
        counted = [(5, 40), (900, 3), (5, 2), (UNIVERSE - 1, 7), (900, 1)]
        with Profiler(
            config(), shards=shards, executor="serial", batch_size=batch
        ) as profiler:
            profiler.ingest(chunks[0])
            profiler.ingest_counted(counted)
            profiler.ingest(chunks[1])
            snapshot = profiler.snapshot()

        # The oracle: one object tree per shard fed each part the way
        # the runtime documents — a lone shard takes the raw chunk
        # through extend(), several shards take their part of every
        # chunk duplicate-combined; counted pairs are always combined.
        partitioner = make_partitioner("hash", shards, UNIVERSE)
        trees = [
            RapTree.from_config(config(backend="object"))
            for _ in range(shards)
        ]

        def combined(values, weights):
            totals = {}
            for value, weight in zip(values, weights):
                totals[int(value)] = totals.get(int(value), 0) + int(weight)
            return sorted(totals.items())

        def feed(values):
            for at in range(0, len(values), batch):
                chunk = values[at:at + batch]
                if shards == 1:
                    trees[0].extend(chunk.tolist())
                    continue
                for tree, part in zip(trees, partitioner.split(chunk)):
                    if len(part):
                        tree.add_batch(combined(part, [1] * len(part)))

        feed(chunks[0])
        for shard, tree in enumerate(trees):
            mine = [
                pair for pair in counted
                if partitioner.shard_of(pair[0]) == shard
            ]
            if mine:
                tree.add_batch(combined(*zip(*mine)))
        feed(chunks[1])
        oracle = combine_many(trees)
        assert type(oracle).__name__ == "RapTree"
        assert dump_tree(snapshot) == dump_tree(oracle)



class TestNonIntegralInput:
    """Float or complex data is refused before any event is applied."""

    CALLS = {
        "float-array": lambda p: p.ingest(np.array([5.0, 7.5])),
        "float-value": lambda p: p.ingest_counted([(5, 1), (5.5, 1)]),
        "float-count": lambda p: p.ingest_counted([(5, 2), (7, 2.7)]),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_rejected_with_type_error(self, executor, shards, call):
        with Profiler(config(), shards=shards, executor=executor) as profiler:
            profiler.ingest([1, 2, 3])
            with pytest.raises(TypeError, match="integers"):
                self.CALLS[call](profiler)
            assert profiler.snapshot().events == 3
            assert profiler.metrics.events == 3

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_count_past_int64_is_refused_whole(self, executor):
        with Profiler(config(), shards=2, executor=executor) as profiler:
            with pytest.raises(OverflowError, match="int64"):
                profiler.ingest_counted([(5, 1), (7, 2**63)])
            assert profiler.snapshot().events == 0


class TestThreadedIngestion:
    """Multi-shard ingestion: accounting, epochs, drain and errors."""

    def test_all_events_accounted_for(self):
        values = zipf_values(5, 50_000)
        with Profiler(config(), shards=4) as profiler:
            profiler.ingest(values)
            snapshot = profiler.snapshot()
        assert snapshot.events == len(values)
        assert snapshot.estimate(0, UNIVERSE - 1) == len(values)
        snapshot.check_invariants()

    def test_snapshot_cached_per_epoch(self):
        with Profiler(config(), shards=2) as profiler:
            profiler.ingest([1, 2, 3])
            first = profiler.snapshot()
            assert profiler.snapshot() is first
            profiler.ingest([4])
            second = profiler.snapshot()
            assert second is not first
            assert second.events == 4

    def test_drain_applies_all_accepted_batches(self):
        values = zipf_values(31, 20_000)
        with Profiler(config(), shards=4, batch_size=256) as profiler:
            profiler.ingest(values)
            profiler.drain()
            assert sum(
                tree.events for tree in profiler.shard_trees()
            ) == len(values)
        with pytest.raises(RuntimeError, match="not open"):
            profiler.drain()

    def test_query_is_snapshot_sugar(self):
        with Profiler(config(), shards=2) as profiler:
            profiler.ingest([100] * 500)
            assert profiler.query(0, UNIVERSE - 1) == 500

    def test_worker_error_propagates_to_producer(self):
        # A worker process reports its ingest failure on the next sync;
        # the producer side raises it from drain() and again from
        # close(), which still reaps every worker.
        profiler = Profiler(
            config(), shards=2, executor="process"
        ).open()
        try:
            profiler.ingest_counted([(UNIVERSE + 5, 1)] * 8)
            with pytest.raises(RuntimeError, match="shard worker failed"):
                profiler.drain()
        finally:
            with pytest.raises(RuntimeError, match="shard worker failed"):
                profiler.close()
        assert profiler.closed

    def test_serial_error_raises_at_the_ingest_call(self):
        with Profiler(config(), shards=2) as profiler:
            with pytest.raises(ValueError):
                profiler.ingest_counted([(UNIVERSE + 5, 1)] * 8)

    def test_ingest_counted_routes_by_value(self):
        with Profiler(config(), shards=4, executor="serial") as profiler:
            profiler.ingest_counted([(5, 100), (1000, 20), (5, 1)])
            assert profiler.snapshot().events == 121


class TestBackpressurePolicies:
    """Ring backpressure under the process executor.

    The minimum ring with 128-event batches overflows constantly, so
    every policy is exercised; serial ingest is synchronous and never
    overflows.
    """

    @staticmethod
    def ring_profiler(backpressure: str) -> Profiler:
        return Profiler(
            config(),
            shards=2,
            executor="process",
            backpressure=backpressure,
            ring_bytes=MIN_RING_BYTES,
            batch_size=128,
        )

    def test_block_loses_nothing(self):
        values = zipf_values(11, 30_000)
        with self.ring_profiler("block") as profiler:
            profiler.ingest(values)
            assert profiler.snapshot().events == len(values)
            assert profiler.metrics.dropped_events == 0

    def test_spill_loses_nothing_and_counts_spills(self):
        values = zipf_values(13, 30_000)
        with self.ring_profiler("spill") as profiler:
            profiler.ingest(values)
            assert profiler.snapshot().events == len(values)
            metrics = profiler.metrics
            assert metrics.dropped_events == 0
            assert metrics.spilled_batches > 0

    def test_spill_drain_matches_serial_profile(self):
        """Spilled frames re-enter the ring in order, so the shard
        trees end exactly where ``block`` leaves them."""
        values = zipf_values(23, 20_000)
        with self.ring_profiler("spill") as spilling:
            spilling.ingest(values)
            spilled_snapshot = spilling.snapshot()
            spilled = spilling.metrics.spilled_batches
        with self.ring_profiler("block") as blocking:
            blocking.ingest(values)
            block_snapshot = blocking.snapshot()
        assert spilled > 0  # the workload must actually exercise spill
        from repro.core import dump_tree
        assert dump_tree(spilled_snapshot) == dump_tree(block_snapshot)

    def test_drop_accounts_for_every_lost_event(self):
        values = zipf_values(17, 30_000)
        with self.ring_profiler("drop") as profiler:
            profiler.ingest(values)
            snapshot = profiler.snapshot()
            metrics = profiler.metrics
        assert snapshot.events + metrics.dropped_events == len(values)
        assert snapshot.events == metrics.events

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_unknown_policy_rejected_for_every_executor(self, executor):
        with pytest.raises(ValueError, match="backpressure"):
            Profiler(
                config(),
                executor=executor,
                backpressure="explode",
            )


class TestMetrics:
    def test_deterministic_counters(self):
        values = zipf_values(19, 20_000)
        with Profiler(config(), shards=2, executor="serial") as profiler:
            profiler.ingest(values)
            profiler.snapshot()
            metrics = profiler.metrics
        assert metrics.events == len(values)
        assert metrics.snapshots == 1
        assert sum(shard.batches for shard in metrics.shards) > 0
        assert all(shard.splits > 0 for shard in metrics.shards)
        assert metrics.node_count == sum(
            tree.node_count for tree in profiler.shard_trees()
        )
        # Without a clock, every time-shaped field is exactly zero.
        assert metrics.ingest_seconds == 0.0
        assert metrics.snapshot_seconds == 0.0
        assert metrics.events_per_second == 0.0

    def test_injected_clock_populates_time_metrics(self):
        ticks = iter(range(1000))
        clock = lambda: float(next(ticks))  # noqa: E731
        with Profiler(
            config(), shards=2, executor="serial", clock=clock
        ) as profiler:
            profiler.ingest(zipf_values(23, 1000))
            profiler.snapshot()
            metrics = profiler.metrics
        assert metrics.ingest_seconds > 0.0
        assert metrics.snapshot_seconds > 0.0
        assert metrics.events_per_second > 0.0

    def test_as_dict_round_trips_all_fields(self):
        with Profiler(config(), shards=2, executor="serial") as profiler:
            profiler.ingest([1, 2, 3])
            payload = profiler.metrics.as_dict()
        assert payload["events"] == 3
        assert len(payload["shards"]) == 2
        assert {"shard", "events", "batches", "splits"} <= set(
            payload["shards"][0]
        )

    def test_metrics_dict_shape_is_pinned(self):
        # The exact key sets are part of the metrics contract: dashboards
        # and the regression harness key into these dumps by name, so a
        # rename or a dropped field must fail loudly here first.
        with Profiler(config(), shards=2, executor="serial") as profiler:
            profiler.ingest([1, 2, 3])
            payload = profiler.metrics.as_dict()
        assert set(payload) == {
            "events",
            "dropped_events",
            "spilled_batches",
            "node_count",
            "transport_stalls",
            "transport_stall_s",
            "snapshots",
            "snapshot_seconds",
            "ingest_seconds",
            "events_per_second",
            "shards",
        }
        assert set(payload["shards"][0]) == {
            "shard",
            "events",
            "batches",
            "dropped_batches",
            "dropped_events",
            "spilled_batches",
            "transport_stalls",
            "transport_stall_s",
            "ring_peak_bytes",
            "splits",
            "merge_batches",
            "node_count",
        }

    def test_transport_fields_read_zero_off_ring(self):
        # Ring-space stalls are a process-executor phenomenon; the
        # serial executor never touches a ring, so every transport
        # field stays exactly zero and metric dumps stay reproducible.
        with Profiler(config(), shards=2, executor="serial") as profiler:
            profiler.ingest(zipf_values(31, 4000))
            metrics = profiler.metrics
        assert metrics.transport_stalls == 0
        assert metrics.transport_stall_s == 0.0
        for shard in metrics.shards:
            assert shard.transport_stalls == 0
            assert shard.transport_stall_s == 0.0
            assert shard.ring_peak_bytes == 0


class TestHotRanges:
    def test_hot_report_finds_the_heavy_value(self):
        values = np.concatenate([
            np.full(5000, 42, dtype=np.uint64),
            zipf_values(29, 5000),
        ])
        with Profiler(config(), shards=4) as profiler:
            profiler.ingest(values)
            report = profiler.hot_ranges(hot_fraction=0.2)
        assert report, "expected at least one hot range"
        lo, hi, weight = report[0]
        assert lo <= 42 <= hi
        assert weight >= 5000 * 0.8

    @staticmethod
    def walked_hot_ranges(tree, hot_fraction):
        """The node-walk definition: leaf estimates, heaviest first."""
        threshold = hot_fraction * tree.events
        rows = [
            (node.lo, node.hi, node.subtree_weight())
            for node in tree.nodes()
            if node.is_leaf and node.subtree_weight() >= threshold
        ]
        rows.sort(key=lambda row: (-row[2], row[0]))
        return rows

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_report_matches_the_node_walk(self, executor, shards):
        values = np.concatenate([
            np.full(3000, 42, dtype=np.uint64),
            zipf_values(31, 20_000),
            np.arange(0, UNIVERSE, 97, dtype=np.uint64),
        ])
        with Profiler(
            config(epsilon=0.01),
            shards=shards,
            executor=executor,
        ) as profiler:
            profiler.ingest(values)
            snapshot = profiler.snapshot()
            reports = {
                fraction: profiler.hot_ranges(hot_fraction=fraction)
                for fraction in (0.0, 0.001, 0.05, 0.2)
            }
        weights = [weight for _, _, weight in reports[0.0]]
        assert len(set(weights)) < len(weights), "expected tied estimates"
        for fraction, report in reports.items():
            assert report == self.walked_hot_ranges(snapshot, fraction)
        assert reports[0.2], "expected a hot leaf at 20%"

    def test_heavy_leaves_compare_counts_exactly(self):
        # A leaf count of 2**53 + 3 rounds up to 2**53 + 4 in float64: a
        # float-side comparison would wrongly admit it at that bar.
        count = 2**53 + 3
        bar = float(2**53 + 4)
        for backend in ("object", "columnar"):
            tree = RapTree.from_config(
                RapConfig(2, epsilon=0.05, backend=backend)
            )
            tree.add(0, count + 2)  # the root keeps 2, leaf [0, 0] the rest
            assert [(n.lo, n.hi, n.count) for n in tree.leaves()] == [
                (0, 0, count)
            ]
            assert tree.heavy_leaves(bar) == []
            assert tree.heavy_leaves(bar - 4) == [(0, 0, count)]
            assert tree.heavy_leaves(float("nan")) == []
            assert tree.heavy_leaves(float("inf")) == []
            assert tree.heavy_leaves(float("-inf")) == [(0, 0, count)]
