"""Combining RAP trees: merge profiles from separate runs or windows.

The paper's software API is built for post-processing ("can either be
called from online analysis or to post process trace files", Section
3.2); combining summaries is the natural companion operation — profile
shards of a long run (or different cores / trace files) independently,
then merge the trees into one summary whose guarantees still hold:

* the combined estimate for a range is at least the sum of the shard
  estimates (weight only ever moves to *finer* placement, never coarser),
  so it remains a lower bound on the true combined count;
* the undercount of the combined tree is at most the sum of the shards'
  undercounts, i.e. at most ``epsilon * (n1 + ... + nk)`` when all
  shards ran with the same epsilon. Mismatched epsilons silently void
  this guarantee, so they are rejected unless explicitly allowed — in
  which case the result's config records the *largest* shard epsilon,
  the only value for which the combined bound still holds;
* memory is re-pruned with a final merge batch, so the result obeys the
  same worst-case bound.

The construction adds each shard node's *own* count into a single
accumulator tree at the node for its own range ``[lo, hi]``, created on
demand along the deterministic partition path (every node passed on the
way is split into all of its cells, so structure stays valid). One
accumulator for all shards keeps ``combine_many`` linear in total shard
size.

When every input is a columnar tree the accumulator is built straight
from the shard columns (:meth:`ColumnarRapTree.fold_columns`): the
partition is a canonical ``b``-ary hierarchy, so the node set is the
closure "every cell of every strict ancestor of a nonzero range", which
numpy computes level by level. Any other mix of inputs folds through the
object tree, one descent per nonzero node. Both paths produce the same
``dump_tree``; the columnar one returns a ``ColumnarRapTree``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .backend import TreeBackend
from .columnar import ColumnarRapTree
from .config import RapConfig
from .node import RapNode, partition_range
from .tree import RapTree


def combine_trees(
    first: RapTree,
    second: RapTree,
    *,
    allow_mismatched_epsilon: bool = False,
) -> RapTree:
    """Merge two RAP profiles over the same universe into a new tree.

    Both trees must share ``range_max`` and ``branching`` (so their
    range systems are identical) and ``epsilon`` (so the combined
    ``epsilon * (n1 + n2)`` undercount bound is meaningful). Pass
    ``allow_mismatched_epsilon=True`` to combine shards profiled at
    different precision; the result's config then records the larger
    epsilon, for which the combined bound still holds. The result ends
    with a merge batch to restore the memory bound.
    """
    return combine_many(
        [first, second], allow_mismatched_epsilon=allow_mismatched_epsilon
    )


def combine_many(
    trees: Iterable[TreeBackend],
    *,
    allow_mismatched_epsilon: bool = False,
) -> TreeBackend:
    """Merge any number of shard profiles into a single accumulator tree.

    Every shard is walked exactly once and deposited into one fresh
    accumulator — linear in total shard size, unlike a pairwise
    :func:`combine_trees` fold. A single tree is returned as-is (callers
    that must not alias the input — e.g. runtime snapshots — should
    :meth:`~repro.core.tree.RapTree.clone` it). The result is a
    ``ColumnarRapTree`` when every input is one, otherwise a ``RapTree``;
    either way it has been merged and passed ``check_invariants``.

    Error bound: each shard ``i`` undercounts any range by at most
    ``epsilon_i * n_i``, and the fold deposits every shard counter at
    its exact range, so the combined tree undercounts by at most the sum
    ``sum_i(epsilon_i * n_i)``. With equal epsilons that is the familiar
    ``epsilon * (n_1 + ... + n_k)``; with ``allow_mismatched_epsilon=True``
    the result's config records ``max_i(epsilon_i)``, the smallest
    single epsilon for which the bound still reads ``epsilon * n``.
    """
    trees = list(trees)
    if not trees:
        raise ValueError("combine_many needs at least one tree")
    if len(trees) == 1:
        return trees[0]
    first = trees[0]
    for other in trees[1:]:
        _check_compatible(
            first, other, allow_mismatched_epsilon=allow_mismatched_epsilon
        )
    config = first.config
    max_epsilon = max(tree.config.epsilon for tree in trees)
    if max_epsilon != config.epsilon:
        config = config.with_updates(epsilon=max_epsilon)
    if all(isinstance(tree, ColumnarRapTree) for tree in trees):
        combined: TreeBackend = ColumnarRapTree.fold_columns(config, trees)
    else:
        combined = _fold_nodes(config, trees)
    if combined.events:
        combined.merge_now()
        combined.check_invariants()
    return combined


def _fold_nodes(config: RapConfig, trees: Sequence[TreeBackend]) -> RapTree:
    """Object fold: deposit every nonzero node of every shard in turn."""
    combined = RapTree(config)
    total_events = 0
    for source in trees:
        total_events += source.events
        for node in source.nodes():
            if node.count:
                _add_at_range(combined, node.lo, node.hi, node.count)
    combined._events = total_events  # noqa: SLF001 - fold owns the new tree
    return combined


def _check_compatible(
    first: TreeBackend,
    second: TreeBackend,
    *,
    allow_mismatched_epsilon: bool = False,
) -> None:
    if first.config.range_max != second.config.range_max:
        raise ValueError(
            "cannot combine trees over different universes: "
            f"{first.config.range_max} vs {second.config.range_max}"
        )
    if first.config.branching != second.config.branching:
        raise ValueError(
            "cannot combine trees with different branching factors: "
            f"{first.config.branching} vs {second.config.branching}"
        )
    if (
        first.config.epsilon != second.config.epsilon
        and not allow_mismatched_epsilon
    ):
        raise ValueError(
            "cannot combine trees with different epsilon "
            f"({first.config.epsilon} vs {second.config.epsilon}): the "
            "epsilon * (n1 + n2) undercount guarantee would be silently "
            "voided; pass allow_mismatched_epsilon=True to combine at "
            "the larger epsilon's guarantee"
        )


def _add_at_range(tree: RapTree, lo: int, hi: int, count: int) -> None:
    """Add ``count`` onto the node for exactly ``[lo, hi]``.

    Descends the deterministic partition from the root, bursting each
    leaf on the way into all of its partition cells (at most ``log_b R``
    levels); raises if ``[lo, hi]`` is not a valid partition range of
    the universe (it always is when the source is a compatible RAP
    tree). The destination only grows during a fold — it never merges —
    so every inner node it holds carries its full set of cells.
    """
    node = tree.root
    branching = tree.config.branching
    created = 0
    while not (node.lo == lo and node.hi == hi):
        if node.is_leaf:
            for cell in partition_range(node.lo, node.hi, branching):
                node.attach_child(RapNode(cell[0], cell[1]))
                created += 1
        child = node.child_covering(lo)
        if child is None or child.hi < hi:
            raise ValueError(
                f"[{lo}, {hi}] is not a partition range of this universe"
            )
        node = child
    # Combination deposits a source tree's range weight wholesale; the
    # destination re-establishes conservation once every range lands.
    node.count += count  # noqa: RAP-LINT003 - fold re-establishes conservation
    tree._node_count += created  # noqa: SLF001 - fold owns the new tree
    tree._generation += 1  # noqa: SLF001 - fold owns the new tree


def combine_frames(
    raw: List[np.ndarray],
    counted: List[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Duplicate-combine buffered frames into one sorted counted frame.

    The paper's event-combining buffer (Section 3.3, stage 0) as one
    array pass: ``raw`` frames weight each occurrence 1; ``counted``
    frames carry explicit counts. The result is exactly ``np.unique``
    with counts over the concatenated expansion — ascending values,
    summed weights — without ever materializing the expansion. Dtypes
    pass through untouched: ``add_counted_arrays`` owns validation, so
    malformed values raise there exactly as they would have frame by
    frame.
    """
    if not counted:
        uniques, counts = np.unique(
            np.concatenate(raw), return_counts=True
        )
        return uniques, counts.astype(np.int64, copy=False)
    parts = list(raw) + [values for values, _ in counted]
    weights = [
        np.ones(len(values), dtype=np.int64) for values in raw
    ] + [counts for _, counts in counted]
    uniques, inverse = np.unique(
        np.concatenate(parts), return_inverse=True
    )
    combined = np.zeros(uniques.size, dtype=np.int64)
    np.add.at(combined, inverse, np.concatenate(weights))
    return uniques, combined


def split_stream_profile(
    config: RapConfig,
    shards: List[List[int]],
    *,
    allow_mismatched_epsilon: bool = False,
) -> RapTree:
    """Convenience: profile each shard separately, then combine.

    Models the distributed deployment (one profiler per core or per
    trace file segment) and is what the combination tests exercise
    against a single-pass reference. All shards profile at the same
    ``config`` here, so ``allow_mismatched_epsilon`` only matters when a
    caller relaxes the fold after re-configuring shards; it is threaded
    through to :func:`combine_many` unchanged.
    """
    trees = []
    for shard in shards:
        tree = RapTree(config)
        tree.extend(shard)
        trees.append(tree)
    return combine_many(
        trees, allow_mismatched_epsilon=allow_mismatched_epsilon
    )
