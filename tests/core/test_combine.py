"""Unit and property tests for combining RAP trees (shard merging)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ExactProfiler
from repro.core import ColumnarRapTree, RapConfig, RapTree, dump_tree, load_tree
from repro.core.combine import (
    _add_at_range,
    combine_many,
    combine_trees,
    split_stream_profile,
)
from repro.core.node import partition_range

UNIVERSE = 1024


def tree_of(values, epsilon=0.05, universe=UNIVERSE) -> RapTree:
    tree = RapTree(
        RapConfig(range_max=universe, epsilon=epsilon,
                  merge_initial_interval=256)
    )
    tree.extend(values)
    return tree


class TestCombineTrees:
    def test_weight_is_sum_of_shards(self):
        first = tree_of([1, 2, 3] * 50)
        second = tree_of([500] * 100)
        combined = combine_trees(first, second)
        assert combined.events == first.events + second.events
        assert combined.total_weight() == combined.events

    def test_estimates_at_least_shard_sums(self):
        rng = np.random.default_rng(1)
        first_values = [int(v) for v in rng.integers(0, UNIVERSE, 800)]
        second_values = [7] * 500
        first = tree_of(first_values)
        second = tree_of(second_values)
        combined = combine_trees(first, second)
        for lo, hi in [(0, UNIVERSE - 1), (7, 7), (0, 63), (512, 1023)]:
            assert combined.estimate(lo, hi) >= (
                first.estimate(lo, hi) + second.estimate(lo, hi)
            ) - combined.config.merge_threshold(combined.events) * 8

    def test_combined_error_bound(self):
        """Undercount of the combined tree <= sum of shard bounds."""
        rng = np.random.default_rng(2)
        shard_a = [int(v) for v in rng.integers(0, UNIVERSE, 1_000)]
        shard_b = [13] * 700 + [900] * 300
        combined = combine_trees(tree_of(shard_a), tree_of(shard_b))
        exact = ExactProfiler(UNIVERSE)
        exact.extend(shard_a)
        exact.extend(shard_b)
        for lo, hi in [(13, 13), (0, 255), (896, 959)]:
            undercount = exact.count(lo, hi) - combined.estimate(lo, hi)
            assert undercount <= 0.05 * combined.events + 2 * 10  # slack

    def test_rejects_mismatched_universes(self):
        with pytest.raises(ValueError, match="different universes"):
            combine_trees(tree_of([1]), tree_of([1], universe=2048))

    def test_rejects_mismatched_branching(self):
        first = tree_of([1])
        second = RapTree(RapConfig(range_max=UNIVERSE, branching=2))
        second.add(1)
        with pytest.raises(ValueError, match="branching"):
            combine_trees(first, second)

    def test_combining_with_empty_tree_is_identityish(self):
        populated = tree_of([5] * 300 + list(range(100)))
        empty = RapTree(populated.config)
        combined = combine_trees(populated, empty)
        assert combined.events == populated.events
        assert combined.estimate(5, 5) >= populated.estimate(5, 5) - 1

    def test_fold_deposit_rejects_a_non_partition_range(self):
        destination = RapTree(RapConfig(range_max=UNIVERSE))
        cell_lo, cell_hi = partition_range(0, UNIVERSE - 1, 4)[1]
        _add_at_range(destination, cell_lo, cell_hi, 5)
        assert destination.find_node(cell_lo, cell_hi).count == 5
        for lo, hi in [(0, 600), (3, 300), (UNIVERSE, UNIVERSE)]:
            with pytest.raises(ValueError, match="not a partition range"):
                _add_at_range(destination, lo, hi, 1)

    def test_invariants_after_combine(self):
        first = tree_of([3] * 400)
        second = tree_of(list(range(0, UNIVERSE, 3)))
        combined = combine_trees(first, second)
        combined.check_invariants()


class TestEpsilonMismatch:
    def test_rejects_mismatched_epsilon(self):
        first = tree_of([1, 2, 3] * 20, epsilon=0.05)
        second = tree_of([500] * 60, epsilon=0.01)
        with pytest.raises(ValueError, match="epsilon"):
            combine_trees(first, second)
        with pytest.raises(ValueError, match="epsilon"):
            combine_many([first, second])

    def test_escape_hatch_records_max_epsilon(self):
        first = tree_of([1, 2, 3] * 20, epsilon=0.05)
        second = tree_of([500] * 60, epsilon=0.01)
        combined = combine_trees(
            first, second, allow_mismatched_epsilon=True
        )
        assert combined.config.epsilon == 0.05
        assert combined.events == first.events + second.events
        combined.check_invariants()

    def test_escape_hatch_keeps_other_config(self):
        first = tree_of([1] * 50, epsilon=0.01)
        second = tree_of([2] * 50, epsilon=0.08)
        combined = combine_many(
            [first, second], allow_mismatched_epsilon=True
        )
        assert combined.config.epsilon == 0.08
        assert combined.config.range_max == UNIVERSE
        assert combined.config.branching == first.config.branching

    def test_matched_epsilon_needs_no_flag(self):
        first = tree_of([1] * 50)
        second = tree_of([2] * 50)
        combined = combine_trees(first, second)
        assert combined.config.epsilon == first.config.epsilon


class TestCombineMany:
    def test_requires_at_least_one(self):
        with pytest.raises(ValueError):
            combine_many([])

    def test_single_tree_passthrough(self):
        tree = tree_of([1, 2])
        assert combine_many([tree]) is tree

    def test_sharded_equals_single_pass_within_bound(self):
        rng = np.random.default_rng(4)
        values = [7] * 900 + [int(v) for v in rng.integers(0, UNIVERSE, 2_100)]
        rng.shuffle(values)
        config = RapConfig(range_max=UNIVERSE, epsilon=0.05,
                           merge_initial_interval=256)
        shards = [values[i::4] for i in range(4)]
        sharded = split_stream_profile(config, shards)
        single = RapTree(config)
        single.extend(values)
        assert sharded.events == single.events
        for lo, hi in [(7, 7), (0, 255), (0, UNIVERSE - 1)]:
            difference = abs(sharded.estimate(lo, hi) - single.estimate(lo, hi))
            assert difference <= 0.05 * len(values) * 2


class TestCombineProperties:
    @given(
        first_values=st.lists(
            st.integers(min_value=0, max_value=UNIVERSE - 1),
            min_size=1, max_size=400,
        ),
        second_values=st.lists(
            st.integers(min_value=0, max_value=UNIVERSE - 1),
            min_size=1, max_size=400,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_weight_conservation_and_validity(self, first_values, second_values):
        combined = combine_trees(tree_of(first_values), tree_of(second_values))
        assert combined.events == len(first_values) + len(second_values)
        combined.check_invariants()

    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=UNIVERSE - 1),
            min_size=2, max_size=600,
        ),
        lo=st.integers(min_value=0, max_value=UNIVERSE - 1),
        width=st.integers(min_value=1, max_value=UNIVERSE),
    )
    @settings(max_examples=30, deadline=None)
    def test_combined_estimate_still_lower_bound(self, values, lo, width):
        hi = min(lo + width - 1, UNIVERSE - 1)
        half = len(values) // 2
        combined = combine_trees(tree_of(values[:half]), tree_of(values[half:]))
        exact = ExactProfiler(UNIVERSE)
        exact.extend(values)
        assert combined.estimate(lo, hi) <= exact.count(lo, hi)


# ----------------------------------------------------------------------
# Columnar fold vs object fold
# ----------------------------------------------------------------------

#: Largest power exponent per branching factor (keeps universes modest
#: enough that a few hundred events exercise every depth).
MAX_POWER = {2: 12, 3: 8, 4: 6, 16: 3}


def columnar_tree(universe, branching, epsilon, values, interval=16):
    tree = RapTree.from_config(
        RapConfig(
            range_max=universe,
            epsilon=epsilon,
            branching=branching,
            merge_initial_interval=interval,
            backend="columnar",
        )
    )
    if values:
        tree.extend(values)
    return tree


def object_twin(tree):
    """An object-backend tree with exactly the same contents."""
    return load_tree(dump_tree(tree))


@st.composite
def fold_cases(draw):
    branching = draw(st.sampled_from([2, 3, 4, 16]))
    kind = draw(st.sampled_from(["power", "uneven", "full64"]))
    if kind == "full64":
        universe = 2**64
    else:
        power = branching ** draw(st.integers(1, MAX_POWER[branching]))
        # Strictly between two powers of b: partition cells are uneven.
        offset = 0 if kind == "power" else draw(
            st.integers(1, power * (branching - 1) - 1)
        )
        universe = power + offset
    hot = draw(
        st.lists(st.integers(0, universe - 1), min_size=1, max_size=6)
    )
    value = st.one_of(st.sampled_from(hot), st.integers(0, universe - 1))
    shards = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.05, 0.2, 0.5]),
                st.lists(value, max_size=300),  # may be empty
            ),
            min_size=1,
            max_size=5,
        )
    )
    return universe, branching, shards


def node_features(tree):
    """(has a merge gap, has a zero-count leaf) over ``tree``'s nodes."""
    branching = tree.config.branching
    gap = any(
        node.children
        and len(node.children) < len(
            partition_range(node.lo, node.hi, branching)
        )
        for node in tree.nodes()
    )
    zero_leaf = any(
        node.is_leaf and node.count == 0 for node in tree.nodes()
    )
    return gap, zero_leaf


class TestColumnarFold:
    """All-columnar folds build from the columns and match the object fold."""

    @given(case=fold_cases())
    @settings(max_examples=150, deadline=None)
    def test_columnar_fold_dumps_like_object_fold(self, case):
        universe, branching, shards = case
        trees = [
            columnar_tree(universe, branching, epsilon, values)
            for epsilon, values in shards
        ]
        folded = combine_many(trees, allow_mismatched_epsilon=True)
        reference = combine_many(
            [object_twin(tree) for tree in trees],
            allow_mismatched_epsilon=True,
        )
        if len(trees) > 1:
            assert isinstance(folded, ColumnarRapTree)
            assert type(reference) is RapTree
        assert dump_tree(folded) == dump_tree(reference)
        assert folded.config.epsilon == max(eps for eps, _ in shards)
        assert folded.events == sum(len(values) for _, values in shards)
        folded.check_invariants()

    @pytest.mark.parametrize("universe", [4**6, 1000, 2**64])
    def test_gaps_and_zero_leaves_fold_identically(self, universe):
        rng = np.random.default_rng(universe % 1009)
        hot = rng.integers(0, universe, 5, dtype=np.uint64)
        trees = []
        for _ in range(3):
            # Hot values, then a sweep of cold ones: merges collapse the
            # cold camps back into partially covered parents (gaps).
            # A burst on a fresh value after the last merge (512 events)
            # splits its path and leaves zero-count sibling cells.
            values = [int(v) for v in rng.choice(hot, 400)]
            values += [
                int(v) for v in rng.integers(0, universe, 300, dtype=np.uint64)
            ]
            values += [int(rng.integers(0, universe, dtype=np.uint64))] * 150
            trees.append(columnar_tree(universe, 4, 0.2, values, interval=32))
        gap, zero_leaf = zip(*(node_features(tree) for tree in trees))
        assert any(gap) and any(zero_leaf), "inputs must exercise both"
        folded = combine_many(trees)
        assert isinstance(folded, ColumnarRapTree)
        assert dump_tree(folded) == dump_tree(
            combine_many([object_twin(tree) for tree in trees])
        )
        folded.check_invariants()

    def test_empty_shards_fold_to_an_empty_tree(self):
        trees = [columnar_tree(2**64, 2, 0.1, []) for _ in range(3)]
        folded = combine_many(trees)
        assert isinstance(folded, ColumnarRapTree)
        assert folded.events == 0 and folded.node_count == 1
        assert dump_tree(folded) == dump_tree(
            combine_many([object_twin(tree) for tree in trees])
        )

    def test_mixed_backends_take_the_object_fold(self):
        rng = np.random.default_rng(11)
        values = [int(v) for v in rng.integers(0, UNIVERSE, 900)]
        columnar = [
            columnar_tree(UNIVERSE, 4, 0.05, values[i::3]) for i in range(3)
        ]
        mixed = [columnar[0], object_twin(columnar[1]), columnar[2]]
        folded = combine_many(mixed)
        assert type(folded) is RapTree
        assert dump_tree(folded) == dump_tree(combine_many(columnar))
        folded.check_invariants()

    def test_fold_does_not_alias_its_inputs(self):
        shards = [columnar_tree(UNIVERSE, 2, 0.05, [5] * 100 + [700] * 50)]
        shards.append(columnar_tree(UNIVERSE, 2, 0.05, [5] * 60))
        before = [dump_tree(tree) for tree in shards]
        folded = combine_many(shards)
        folded.add(9, 40)
        folded.merge_now()
        folded.check_invariants()
        assert [dump_tree(tree) for tree in shards] == before

    def test_attached_shards_fold_without_building_a_cover_index(self):
        rng = np.random.default_rng(5)
        shards = [
            columnar_tree(
                UNIVERSE, 4, 0.05, [int(v) for v in rng.zipf(1.4, 2_000) % 997]
            )
            for _ in range(2)
        ]
        attached = [
            ColumnarRapTree.attach_columns(
                tree.config,
                {name: getattr(tree, name) for name in tree.COLUMN_DTYPES},
                tree.column_state(),
            )
            for tree in shards
        ]
        folded = combine_many(attached)
        assert dump_tree(folded) == dump_tree(combine_many(shards))
        # Neither the fold nor an estimate needed the cover index ...
        attached[0].estimate(0, 500)
        assert all(tree._cov_starts is None for tree in attached)  # noqa: SLF001
        # ... and whatever does need it gets one equal to the live tree's.
        copy = attached[0].clone()
        live = shards[0].clone()  # folds the live tree's queued splices
        assert np.array_equal(copy._cov_starts, live._cov_starts)  # noqa: SLF001
        assert np.array_equal(copy._cov_owner, live._cov_owner)  # noqa: SLF001
        copy.add(3)
        copy.check_invariants()
        attached[1].check_invariants()
