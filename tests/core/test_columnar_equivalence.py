"""Property-style equivalence sweep: columnar backend vs object backend.

The columnar kernel (:mod:`repro.core.columnar`) promises *exact
observational equivalence* with the object tree: identical operation
sequences must produce byte-identical ``dump_tree`` output — same
splits, same merge batches, same counters — for any workload shape.
This sweep drives both backends through zipf/uniform/phased/runs raw
streams (lists and ndarrays), pre-combined counted updates at
eps ∈ {1e-2, 1e-3} and malformed input, then checks

* ``dump_tree`` identity (serialization-level equivalence),
* event totals, merge-scheduler state and the ``TreeStats`` update
  counts, merge points and peak node count,
* ``check_invariants()`` on the columnar structure itself, and
* a clean :class:`~repro.checks.audit.TreeAuditor` report on columnar.

``tests/core/test_tree_fastpath.py`` pins the object tree to the
reference oracle; this file pins columnar to the object tree, closing
the chain back to the oracle.
"""

from __future__ import annotations

import math
import random
import zlib

import numpy as np
import pytest

from repro.checks.audit import TreeAuditor
from repro.core import RapConfig, RapTree, dump_tree, load_tree

UNIVERSE = 2**20
INT64_MAX = 2**63 - 1


def zipf_stream(rng: random.Random, n: int) -> list:
    return [int(rng.paretovariate(1.2)) % UNIVERSE for _ in range(n)]


def uniform_stream(rng: random.Random, n: int) -> list:
    return [rng.randrange(UNIVERSE) for _ in range(n)]


def phased_stream(rng: random.Random, n: int) -> list:
    """Locality phases: the stream camps in one narrow window at a time."""
    values = []
    remaining = n
    while remaining:
        span = min(remaining, rng.randint(200, 800))
        base = rng.randrange(UNIVERSE - 1024)
        values.extend(base + rng.randrange(1024) for _ in range(span))
        remaining -= span
    return values


def runs_stream(rng: random.Random, n: int) -> list:
    """Each value repeated 1-64 times, so runs straddle split thresholds
    and merge triggers."""
    values = []
    while len(values) < n:
        base = int(rng.paretovariate(1.2)) % UNIVERSE
        values.extend([base] * rng.randint(1, 64))
    return values[:n]


STREAMS = {
    "zipf": zipf_stream,
    "uniform": uniform_stream,
    "phased": phased_stream,
    "runs": runs_stream,
}


def stable_seed(*parts) -> int:
    """Deterministic across processes — ``hash()`` on strings is not."""
    return zlib.crc32("|".join(map(str, parts)).encode())


def both_trees(epsilon: float):
    config = RapConfig(UNIVERSE, epsilon=epsilon, merge_initial_interval=512)
    return (
        RapTree.from_config(config),
        RapTree.from_config(config.with_updates(backend="columnar")),
    )


def assert_equivalent(obj: RapTree, col: RapTree) -> None:
    assert obj.events == col.events
    assert obj.stats.updates == col.stats.updates
    assert obj.stats.merge_points == col.stats.merge_points
    assert obj.stats.max_nodes == col.stats.max_nodes
    assert obj.node_count == col.node_count
    assert obj.merge_scheduler.next_at == col.merge_scheduler.next_at
    dump_obj, dump_col = dump_tree(obj), dump_tree(col)
    assert dump_obj == dump_col
    col.check_invariants()
    TreeAuditor().audit(col).raise_if_failed()
    # The serialized form must round-trip regardless of the backend that
    # produced it (the backend is a runtime knob, never serialized).
    assert dump_tree(load_tree(dump_col)) == dump_obj


class TestStreamEquivalence:
    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
    @pytest.mark.parametrize("workload", sorted(STREAMS))
    def test_extend_equivalence(self, workload, epsilon):
        rng = random.Random(stable_seed(workload, epsilon))
        values = STREAMS[workload](rng, 6_000)
        obj, col = both_trees(epsilon)
        obj.extend(values)
        col.extend(values)
        assert_equivalent(obj, col)

    @pytest.mark.parametrize("dtype", [np.uint64, np.int64])
    @pytest.mark.parametrize("workload", sorted(STREAMS))
    def test_extend_ndarray_equivalence(self, workload, dtype):
        rng = random.Random(stable_seed(workload, "ndarray"))
        values = np.asarray(STREAMS[workload](rng, 6_000), dtype=dtype)
        obj, col = both_trees(1e-2)
        obj.extend(values)
        col.extend(values)
        assert_equivalent(obj, col)

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
    @pytest.mark.parametrize("workload", sorted(STREAMS))
    def test_counted_equivalence(self, workload, epsilon):
        """Pre-combined (value, count) updates, in arrival order."""
        rng = random.Random(stable_seed(workload, epsilon, "counted"))
        pairs = [
            (value, rng.randint(1, 25))
            for value in STREAMS[workload](rng, 2_500)
        ]
        obj, col = both_trees(epsilon)
        obj.add_counted(pairs)
        col.add_counted(pairs)
        assert_equivalent(obj, col)

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
    def test_batch_equivalence(self, epsilon):
        """add_batch (value-sorted counted ingest) on a zipf profile."""
        rng = random.Random(int(1 / epsilon))
        pairs = [(value, rng.randint(1, 9)) for value in zipf_stream(rng, 3_000)]
        obj, col = both_trees(epsilon)
        for at in range(0, len(pairs), 512):
            obj.add_batch(pairs[at:at + 512])
            col.add_batch(pairs[at:at + 512])
        assert_equivalent(obj, col)


class TestMixedOperations:
    """Randomized interleavings of add/extend/add_counted/add_batch."""

    @pytest.mark.parametrize("seed", range(6))
    def test_interleaved_operation_equivalence(self, seed):
        rng = random.Random(seed)
        epsilon = rng.choice([1e-2, 1e-3])
        obj, col = both_trees(epsilon)
        for _ in range(rng.randint(4, 8)):
            kind = rng.choice(["add", "extend", "add_counted", "add_batch"])
            if kind == "add":
                value, count = rng.randrange(UNIVERSE), rng.randint(1, 50)
                obj.add(value, count)
                col.add(value, count)
            elif kind == "extend":
                workload = rng.choice(sorted(STREAMS))
                values = STREAMS[workload](rng, rng.randint(100, 1_500))
                obj.extend(values)
                col.extend(values)
            else:
                pairs = [
                    (rng.randrange(UNIVERSE), rng.randint(1, 20))
                    for _ in range(rng.randint(50, 800))
                ]
                getattr(obj, kind)(pairs)
                getattr(col, kind)(pairs)
        assert_equivalent(obj, col)


class TestCoherenceUnderChurn:
    """Mutation-generation coherence of the single-copy columnar layout.

    The contiguous kernel keeps exactly one copy of every column, so
    there is no mirror to refresh — but every *derived* structure (the
    materialized node view, the cover index, query-side caches keyed on
    ``mutation_generation``) must still track mutations exactly. These
    tests interleave every mutating operation with dump/estimate reads
    so a stale view or a skipped generation bump shows up as a direct
    divergence from the object backend.
    """

    def test_mutation_generation_bumps_and_views_track(self):
        rng = random.Random(stable_seed("coherence"))
        obj, col = both_trees(1e-2)
        # Mirror every op onto both trees with identical inputs.
        for step in range(12):
            kind = rng.choice(["add", "extend", "add_counted", "add_batch"])
            if kind == "add":
                value, count = rng.randrange(UNIVERSE), rng.randint(1, 60)
                inputs = [(value, count)]
            else:
                inputs = [
                    (rng.randrange(UNIVERSE), rng.randint(1, 12))
                    for _ in range(rng.randint(64, 500))
                ]
            before = col.mutation_generation
            if kind == "add":
                obj.add(value, count)
                col.add(value, count)
            elif kind == "extend":
                values = [value for value, _ in inputs]
                obj.extend(values)
                col.extend(values)
            else:
                getattr(obj, kind)(inputs)
                getattr(col, kind)(inputs)
            assert col.mutation_generation > before, (
                f"{kind} did not bump mutation_generation"
            )
            # Reads between mutations must reflect the newest state:
            # a stale cached view would reproduce the previous epoch.
            assert dump_tree(col) == dump_tree(obj)
            for _ in range(4):
                lo = rng.randrange(UNIVERSE)
                hi = rng.randrange(lo, UNIVERSE)
                assert col.estimate(lo, hi) == obj.estimate(lo, hi)
                assert col.estimate_upper(lo, hi) == obj.estimate_upper(lo, hi)
            assert col.total_weight() == col.events
        before = col.mutation_generation
        obj.merge_now()
        col.merge_now()
        assert col.mutation_generation > before
        assert_equivalent(obj, col)

    def test_free_list_churn_split_merge_free_realloc_cycles(self):
        """Camp/collapse cycles: slots split into existence, merge back
        onto the free stack, and get recycled by the next camp.

        Each cycle camps the stream in a fresh narrow window (forcing
        split cascades and fresh allocations), then fires an explicit
        merge pass (collapsing the previous camp and freeing its slots).
        The columnar tree must stay dump-identical to the object tree
        through every cycle while its free list actually churns.
        """
        rng = random.Random(stable_seed("churn"))
        obj, col = both_trees(1e-2)
        saw_free_slots = False
        saw_reuse = False
        for cycle in range(6):
            base = rng.randrange(UNIVERSE - 2048)
            values = [base + rng.randrange(512) for _ in range(2_000)]
            free_before = col._free_top  # noqa: SLF001 - churn probe
            obj.extend(values)
            col.extend(values)
            if col._free_top < free_before:  # noqa: SLF001 - churn probe
                saw_reuse = True
            obj.merge_now()
            col.merge_now()
            if col._free_top > 0:  # noqa: SLF001 - churn probe
                saw_free_slots = True
            assert_equivalent(obj, col)
        assert saw_free_slots, "merge passes never freed a slot"
        assert saw_reuse, "allocation never reused a freed slot"


class TestExtremeCounts:
    """Exactness of the vectorized fit mask above 2**53.

    float64 cannot represent 2**53 + 1, so a float-side mask rounds a
    counter total of 2**53 + 1 down to 2**53 and wrongly proves a batch
    inline against a threshold of exactly 2**53. The kernel now sums
    deposits exactly in int64 (``_exact_bincount``) and compares against
    ``floor`` of the threshold, so the vectorized path must agree with
    the object backend's unbounded-int arithmetic at any magnitude.
    """

    def _trees(self):
        config = RapConfig(
            UNIVERSE,
            epsilon=1e-6,
            min_split_threshold=float(2**53),
            merge_initial_interval=2**62,
        )
        return (
            RapTree.from_config(config),
            RapTree.from_config(config.with_updates(backend="columnar")),
        )

    def test_fit_mask_exact_at_2_53_boundary(self):
        """A counted batch whose running total lands on 2**53 + 1 —
        one past the largest odd float64 integer — must split exactly
        where the object backend splits."""
        obj, col = self._trees()
        pairs = [(200_000, 2**53 - 63)] + [
            (100 if i % 2 else 300_000, 1) for i in range(64)
        ]
        obj.add_counted(pairs)
        col.add_counted(pairs)
        assert obj.events == 2**53 + 1
        assert_equivalent(obj, col)

    def test_fit_mask_exact_below_boundary_no_split(self):
        """The same batch one deposit short stays below the threshold on
        both backends (guards against the fix over-flooring)."""
        obj, col = self._trees()
        pairs = [(200_000, 2**53 - 64)] + [
            (100 if i % 2 else 300_000, 1) for i in range(64)
        ]
        obj.add_counted(pairs)
        col.add_counted(pairs)
        assert obj.events == 2**53
        assert_equivalent(obj, col)


    def test_merge_boundary_exact_past_2_53(self):
        """Counts near 2**57: the units left until the merge trigger are
        computed in exact integers, so a counted add that runs up to the
        trigger fires the merge instead of descending into an unsplit
        leaf (a float subtraction there is off by up to 16 units)."""
        obj, col = both_trees(1e-3)
        for tree in (obj, col):
            tree.add(5, 2**57)
            tree.add(70_000, 2**57)
        obj.check_invariants()
        assert_equivalent(obj, col)


BAD_ITEMS = {
    "negative": (-1, 1),
    "range_max": (UNIVERSE, 1),
    "zero_count": (7, 0),
}

# Non-integral items: each must raise TypeError on both backends, after
# the same prefix, instead of being counted or crashing mid-cascade.
NON_INTEGRAL_VALUES = {"5.5": 5.5, "nan": math.nan, "7.25": 7.25}
NON_INTEGRAL_PAIRS = {
    "value_5.5": (5.5, 1),
    "value_nan": (math.nan, 2),
    "value_7.25": (7.25, 3),
    "count_5.5": (4, 5.5),
    "count_nan": (4, math.nan),
    "count_7.25": (9, 7.25),
}


def outcome(call):
    """The exception type ``call`` raises, or ``None``."""
    try:
        call()
    except Exception as error:  # parity is on the exception type
        return type(error)
    return None


class TestMalformedInputParity:
    """A malformed item stops both backends at the same item.

    Everything before it is ingested, the item itself raises the same
    exception type, and the trees stay dump-identical after the catch.
    """

    def _pairs(self, bad: str, position: int) -> list:
        rng = random.Random(stable_seed("malformed", bad, position))
        pairs = [(value, rng.randint(1, 5)) for value in zipf_stream(rng, 5_000)]
        pairs[position] = BAD_ITEMS[bad]
        return pairs

    def _check(self, feed_obj, feed_col, expect_error=True):
        obj, col = both_trees(1e-2)
        raised = outcome(lambda: feed_obj(obj))
        assert outcome(lambda: feed_col(col)) is raised
        assert (raised is not None) == expect_error
        assert_equivalent(obj, col)
        return raised

    @pytest.mark.parametrize("position", [0, 10, 4_000])
    @pytest.mark.parametrize("bad", ["negative", "range_max"])
    def test_extend(self, bad, position):
        values = [value for value, _ in self._pairs(bad, position)]
        self._check(lambda t: t.extend(values), lambda t: t.extend(values))

    @pytest.mark.parametrize("position", [0, 10, 4_000])
    @pytest.mark.parametrize("bad", sorted(BAD_ITEMS))
    @pytest.mark.parametrize("entry", ["add_counted", "add_batch"])
    def test_counted_entries(self, entry, bad, position):
        pairs = self._pairs(bad, position)
        self._check(
            lambda t: getattr(t, entry)(pairs), lambda t: getattr(t, entry)(pairs)
        )

    @pytest.mark.parametrize("position", [0, 10, 4_000])
    @pytest.mark.parametrize("bad", sorted(BAD_ITEMS))
    def test_counted_arrays(self, bad, position):
        pairs = self._pairs(bad, position)
        values = np.asarray([value for value, _ in pairs], dtype=np.int64)
        counts = np.asarray([count for _, count in pairs], dtype=np.int64)
        self._check(
            lambda t: t.add_counted(pairs),
            lambda t: t.add_counted_arrays(values, counts),
        )

    @pytest.mark.parametrize("position", [0, 10, 4_000])
    @pytest.mark.parametrize("bad", sorted(NON_INTEGRAL_VALUES))
    def test_extend_non_integral(self, bad, position):
        values = [value for value, _ in self._pairs("negative", position)]
        values[position] = NON_INTEGRAL_VALUES[bad]
        raised = self._check(
            lambda t: t.extend(values), lambda t: t.extend(values)
        )
        assert raised is TypeError

    @pytest.mark.parametrize("position", [0, 10, 4_000])
    @pytest.mark.parametrize("bad", sorted(NON_INTEGRAL_PAIRS))
    @pytest.mark.parametrize("entry", ["add_counted", "add_batch"])
    def test_counted_entries_non_integral(self, entry, bad, position):
        pairs = self._pairs("negative", position)
        pairs[position] = NON_INTEGRAL_PAIRS[bad]
        raised = self._check(
            lambda t: getattr(t, entry)(pairs),
            lambda t: getattr(t, entry)(pairs),
        )
        assert raised is TypeError

    @pytest.mark.parametrize("bad", sorted(NON_INTEGRAL_PAIRS))
    def test_add_non_integral(self, bad):
        value, count = NON_INTEGRAL_PAIRS[bad]
        values = [value for value, _ in self._pairs("negative", 4_000)][:3_000]

        def feed(tree):
            tree.extend(values)
            tree.add(value, count)

        assert self._check(feed, feed) is TypeError

    @pytest.mark.parametrize("position", [0, 10, 4_000])
    def test_counted_arrays_past_int64(self, position):
        """A uint64 count past int64 takes the exact per-item path, which
        ingests the prefix and refuses the item with ``OverflowError``:
        the columnar kernel's event total stays inside int64 (the object
        backend's Python ints would keep going)."""
        pairs = self._pairs("negative", position)
        pairs[position] = (12_345, 2**63)
        values = np.asarray([value for value, _ in pairs], dtype=np.uint64)
        counts = np.asarray([count for _, count in pairs], dtype=np.uint64)
        obj, col = both_trees(1e-2)
        obj.add_counted(pairs[:position])
        with pytest.raises(OverflowError, match="int64 counter domain"):
            col.add_counted_arrays(values, counts)
        assert_equivalent(obj, col)

    def test_event_total_past_int64_is_refused(self):
        """Counts whose running total leaves int64 are refused item by
        item instead of wrapping the kernel's subtree sums (which once
        left ``events == 2**64`` with every counter zero)."""
        obj, col = both_trees(1e-2)
        with pytest.raises(OverflowError, match="int64 counter domain"):
            col.add_batch([(5, 2**63), (9, 2**63)])
        assert col.events == 0
        pairs = [(9, 2**62 - 1), (70_000, 2**62)]
        col.add(5, 2**62)
        with pytest.raises(OverflowError, match="int64 counter domain"):
            col.add_batch(pairs)
        obj.add(5, 2**62)
        obj.add_batch(pairs[:1])
        assert col.events == INT64_MAX == obj.events
        assert col.estimate(0, UNIVERSE - 1) == INT64_MAX
        assert_equivalent(obj, col)
