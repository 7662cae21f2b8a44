"""Tamper suite for ``ColumnarRapTree.check_invariants``.

Every case corrupts exactly one field of a valid columnar tree and
expects the structural check to raise ``AssertionError``. Each case runs
on three trees built by different code paths:

* ``fold``: a two-shard ``combine_many`` result (``fold_columns`` plus
  its merge pass);
* ``incremental``: a tree grown by ``extend`` through locality phases,
  so merges free slots and later splits recycle them;
* ``bootstrap``: a ``bootstrap_counted_arrays`` bulk build.

``TestExactSums`` pins the check's arithmetic at the edge of int64:
counts near 2**63 and event totals past it must be accepted or rejected
exactly as the object backend's Python-int check rejects them.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import RapConfig, RapTree, combine_many

UNIVERSE = 2**20
INT64_MAX = 2**63 - 1


def config(epsilon: float = 2e-2) -> RapConfig:
    return RapConfig(
        UNIVERSE, epsilon=epsilon, merge_initial_interval=512,
        backend="columnar",
    )


def zipf_values(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.zipf(1.3, n) * 97 + rng.integers(0, 50, n)) % UNIVERSE


def fold_tree():
    shards = []
    for seed in (1, 2):
        shard = RapTree.from_config(config())
        shard.extend(zipf_values(seed, 20_000).tolist())
        shards.append(shard)
    return combine_many(shards)


def incremental_tree():
    tree = RapTree.from_config(config())
    rng = random.Random(3)
    for _ in range(6):
        base = rng.randrange(UNIVERSE - 4096)
        tree.extend([base + rng.randrange(4096) for _ in range(3_000)])
    tree.merge_now()
    return tree


def bootstrap_tree():
    tree = RapTree.from_config(config())
    values, counts = np.unique(zipf_values(9, 30_000), return_counts=True)
    assert tree.bootstrap_counted_arrays(
        values.astype(np.uint64), counts.astype(np.int64)
    )
    tree.merge_now()
    return tree


BUILDERS = {
    "fold": fold_tree,
    "incremental": incremental_tree,
    "bootstrap": bootstrap_tree,
}


@pytest.fixture(scope="module")
def built():
    return {name: build() for name, build in BUILDERS.items()}


@pytest.fixture(params=sorted(BUILDERS))
def tree(request, built):
    copy = built[request.param].clone()
    copy._sync_cover()
    return copy


# ----------------------------------------------------------------------
# Slot pickers (all trees are fully merged, so every node is clean)
# ----------------------------------------------------------------------


def live(tree) -> np.ndarray:
    return np.flatnonzero(tree._live[: tree._size])


def leaves(tree) -> np.ndarray:
    slots = live(tree)
    return slots[tree._n_children[slots] == 0]


def weighted_leaf(tree) -> int:
    slots = leaves(tree)
    return int(slots[tree._counts[slots] > 0][0])


def inner_child(tree) -> int:
    """A non-root, non-item node (its parent is an inner node too)."""
    slots = live(tree)[1:]
    return int(slots[~tree._is_item[slots]][0])


def parent_of_two(tree) -> int:
    slots = live(tree)
    return int(slots[tree._n_children[slots] >= 2][0])


def free_slot(tree) -> int:
    return int(tree._free_slots[tree._free_top - 1])


# ----------------------------------------------------------------------
# Tampers: each corrupts one field
# ----------------------------------------------------------------------


def leaf_count_up(tree):
    tree._counts[weighted_leaf(tree)] += 1


def leaf_count_down(tree):
    tree._counts[weighted_leaf(tree)] -= 1


def count_moved(tree):
    donor = weighted_leaf(tree)
    taker = int(leaves(tree)[leaves(tree) != donor][0])
    tree._counts[donor] -= 1
    tree._counts[taker] += 1


def cached_weight(tree):
    tree._cached_weight[inner_child(tree)] += 1


def cached_min(tree):
    tree._cached_min[inner_child(tree)] -= 1


def dirty_child(tree):
    tree._dirty[weighted_leaf(tree)] = True


def parent_pointer(tree):
    """Re-point a child at another node on its parent's level, so only
    the link itself is wrong (depths still agree)."""
    slots = live(tree)
    child = int(slots[tree._depth[slots] >= 2][0])
    parent = int(tree._parents[child])
    level = tree._depth[slots] == tree._depth[parent]
    uncles = slots[level & (slots != parent)]
    tree._parents[child] = int(uncles[0])


def depth(tree):
    tree._depth[inner_child(tree)] += 1


def n_children(tree):
    tree._n_children[parent_of_two(tree)] += 1


def item_flag(tree):
    slot = weighted_leaf(tree)
    tree._is_item[slot] = not tree._is_item[slot]


def hi_leaves_cell(tree):
    # Shrinking a range leaf keeps the siblings sorted and disjoint.
    slots = leaves(tree)
    slot = int(slots[~tree._is_item[slots]][0])
    tree._his[slot] -= np.uint64(1)


def sibling_order(tree):
    parent = parent_of_two(tree)
    first = int(tree._first_child[parent])
    second = int(tree._next_sibling[first])
    tree._first_child[parent] = second
    tree._next_sibling[first] = tree._next_sibling[second]
    tree._next_sibling[second] = first


def node_count(tree):
    tree._node_count += 1


def events(tree):
    tree._events += 1


def duplicated_free_slot(tree):
    tree._free_slots[tree._free_top] = free_slot(tree)
    tree._free_top += 1


def live_free_slot(tree):
    tree._live[free_slot(tree)] = True


def free_slot_count(tree):
    tree._counts[free_slot(tree)] = 1


def cover_entry(tree):
    owners = tree._cov_owner
    owners[len(owners) // 2] = owners[len(owners) // 2 - 1]


TAMPERS = {
    tamper.__name__: tamper
    for tamper in (
        leaf_count_up,
        leaf_count_down,
        count_moved,
        cached_weight,
        cached_min,
        dirty_child,
        parent_pointer,
        depth,
        n_children,
        item_flag,
        hi_leaves_cell,
        sibling_order,
        node_count,
        events,
        duplicated_free_slot,
        live_free_slot,
        free_slot_count,
        cover_entry,
    )
}


class TestTamperSuite:
    def test_trees_are_valid_and_cover_every_case(self, tree):
        """Each tree passes untouched and has what every tamper needs:
        free slots, clean nodes and a node with two children."""
        tree.check_invariants()
        assert tree._free_top >= 1
        assert not tree._dirty[live(tree)].any()
        assert parent_of_two(tree) >= 0

    @pytest.mark.parametrize("case", sorted(TAMPERS))
    def test_tamper_is_rejected(self, tree, case):
        TAMPERS[case](tree)
        with pytest.raises(AssertionError):
            tree.check_invariants()


# ----------------------------------------------------------------------
# Exact sums at the edge of int64
# ----------------------------------------------------------------------


def python_int_verdict(tree) -> bool:
    """Whether the object backend's Python-int check accepts ``tree``.

    It runs on a node view of the columns, so its sums are exact at any
    magnitude.
    """
    tree._view_root = None  # the columns may have changed under the view
    probe = RapTree(tree.config)
    probe._events = tree.events
    probe._node_count = tree.node_count
    probe._root = tree.root
    try:
        probe.check_invariants()
    except AssertionError:
        return False
    return True


def columnar_verdict(tree) -> bool:
    try:
        tree.check_invariants()
    except AssertionError:
        return False
    return True


def near_int64_tree():
    """Every node clean, ``events`` 999 below 2**63 - 1."""
    tree = RapTree.from_config(config(1e-2))
    tree.extend(list(range(0, UNIVERSE, 997)))
    tree.add(5, 2**62)
    tree.add(900_000, 2**63 - 1000 - tree.events)
    tree.merge_now()
    assert tree.events == INT64_MAX - 999
    return tree


def past_int64_tree():
    """``events`` past 2**63; every node dirty (no cache can hold it).

    Ingest refuses to take a columnar tree past the int64 counter domain
    (``OverflowError``), so this state is set by hand on a valid tree:
    one item counter raised to 2**63 - 10, ``events`` following it past
    2**63 - 1, and every node marked dirty. It is conserved and well
    formed, so the check must accept it exactly as Python ints do.
    """
    tree = RapTree.from_config(config(1e-2))
    tree.extend(list(range(0, UNIVERSE, 997)))
    tree.add_counted([(12_345, 2**62), (700_000, 5)])
    slot = heaviest(tree)
    assert tree._is_item[slot]
    extra = 2**63 - 10 - int(tree._counts[slot])
    tree._counts[slot] += extra
    tree._events += extra
    tree._dirty[live(tree)] = True
    assert tree.events > INT64_MAX
    return tree


def heaviest(tree) -> int:
    slots = live(tree)
    return int(slots[np.argmax(tree._counts[slots])])


def clean_light_leaf(tree):
    """Mark a light leaf clean with exact caches (valid under a dirty
    parent), so clean-node caches are compared in the past-int64 regime."""
    slots = leaves(tree)
    slot = int(slots[np.argmin(tree._counts[slots])])
    tree._dirty[slot] = False
    tree._cached_weight[slot] = tree._counts[slot]
    tree._cached_min[slot] = tree._counts[slot]
    return slot


def bump_heaviest(tree):
    tree._counts[heaviest(tree)] += 1


def bump_heaviest_and_events(tree):
    tree._counts[heaviest(tree)] += 1
    tree._events += 1


def push_events_past_int64(tree):
    tree._counts[heaviest(tree)] += 1_000
    tree._events += 1_000
    assert tree.events > INT64_MAX


def root_weight_down(tree):
    tree._cached_weight[0] -= 1


def root_min_down(tree):
    tree._cached_min[0] -= 1


def clean_root_at_int64_max(tree):
    tree._dirty[0] = False
    tree._cached_weight[0] = INT64_MAX
    tree._cached_min[0] = 0


def events_down(tree):
    tree._events -= 1


def clean_leaf_weight_up(tree):
    tree._cached_weight[clean_light_leaf(tree)] += 1


EXACT_CASES = {
    "near/valid": (near_int64_tree, None, True),
    # +1 on a count near 2**63: conservation breaks by one unit.
    "near/count+1": (near_int64_tree, bump_heaviest, False),
    # With events to match, the tree is conserved but the clean
    # ancestors' caches are one short.
    "near/count+1,events+1": (
        near_int64_tree, bump_heaviest_and_events, False,
    ),
    # ... and past 2**63 - 1 no int64 cache can hold the root's weight.
    "near/count+1000,events+1000": (
        near_int64_tree, push_events_past_int64, False,
    ),
    "near/root weight-1": (near_int64_tree, root_weight_down, False),
    "near/root min-1": (near_int64_tree, root_min_down, False),
    "past/valid": (past_int64_tree, None, True),
    "past/clean light leaf": (past_int64_tree, clean_light_leaf, True),
    "past/clean leaf weight+1": (past_int64_tree, clean_leaf_weight_up, False),
    "past/count+1": (past_int64_tree, bump_heaviest, False),
    "past/count+1,events+1": (past_int64_tree, bump_heaviest_and_events, True),
    "past/events-1": (past_int64_tree, events_down, False),
    "past/clean root": (past_int64_tree, clean_root_at_int64_max, False),
}


class TestExactSums:
    @pytest.mark.parametrize("case", sorted(EXACT_CASES))
    def test_same_verdict_as_python_ints(self, case):
        build, tamper, accepted = EXACT_CASES[case]
        tree = build()
        if tamper is not None:
            tamper(tree)
        assert python_int_verdict(tree) is accepted
        assert columnar_verdict(tree) is accepted
