"""Struct-of-arrays RAP tree kernel with vectorized batch ingest.

:class:`ColumnarRapTree` stores the range tree in parallel numpy
columns instead of linked :class:`~repro.core.node.RapNode` objects.
One *slot* (column index) is one node; freed slots are recycled through
a free stack. Every column has exactly one copy — there is no Python
shadow list and no mirror to refresh:

========================  ============  ===================================
column                    dtype         meaning
========================  ============  ===================================
``_counts``               int64         the node's counter (canonical)
``_los`` / ``_his``       uint64        closed range bounds (universe 2**64)
``_parents``              int32         parent slot (-1 at the root)
``_first_child``          int32         head of the sorted sibling chain
``_next_sibling``         int32         next sibling in ``lo`` order
``_n_children``           int32         chain length (avoids walks)
``_depth``                int32         node depth (root 0; level kernels)
``_is_item``              bool          ``lo == hi`` (vector fit predicate)
``_dirty``                bool          dirty-frontier flag (see tree.py)
``_cached_weight``        int64         subtree weight at last merge visit
``_cached_min``           int64         min subtree weight at last visit
``_live``                 bool          slot is an allocated node
``_free_slots``           int32         free stack (``_free_top`` entries)
========================  ============  ===================================

On top of the slots sits the *cover index*: the deepest covering node is
piecewise constant over the value space, so ``_cov_starts`` (sorted
segment starts) and ``_cov_owner`` (owning slot per segment) answer
"smallest covering range" with one ``searchsorted`` — for a whole batch
at once. The index is maintained incrementally in both directions:
splits queue positioned-insert splices on ``_cov_pending`` (a split
node's owned region is exactly its missing partition cells), and merge
passes remap every segment to the nearest surviving ancestor of its old
owner and coalesce equal-owner runs — no wholesale rebuild on either
path. ``_rebuild_cover`` derives the index from the sibling chains in
one vectorized pass; it serves as the oracle that ``check_invariants``
compares against, and builds the index once, on first use, for a tree
wrapped by ``attach_columns`` or built by ``bootstrap_counted_arrays``.

Batch ingest has one form: counted columns (uint64 values, int64
counts). ``add_counted``/``add_batch``/``add_counted_arrays`` convert
their input to the two columns at the entry, and ``extend`` run-length
encodes its raw stream into them (a run of ``k`` equal values is the
pair ``(value, k)``, unit-for-unit identical to ``k`` single adds —
Section 3.3). The entry also cuts the batch at its first malformed item:
the kernel ingests the prefix, then ``add()`` on the bad item raises
the object backend's error.

The kernel (``_ingest``) alternates scalar windows and vectorized
rounds. A round routes one *window* through the cover index, cuts it
before the next merge trigger, and partitions the cut into *safe*
positions — provably inline at their arrival moment — and *holdout*
positions. Safe positions are applied with one exact ``bincount``
scatter; holdouts (the tail of each owner that crosses the split
threshold) replay in arrival order, each with ``events`` rewound to its
arrival value, so split cascades land exactly where the object backend
puts them. Unlike a prefix mask, a blocked owner never stalls the rest
of the window: every other owner's items still vectorize. Scalar
windows (a cold tree's split storm, a short tail) and the holdout
replay run the same scalar deposit loop (``_scalar_deposit``), whose
cascade is arithmetic-identical to :class:`repro.core.tree.RapTree`
(same closed-form split crossing points, same mid-count merges), so the
two backends produce identical trees for identical operation sequences.

Why the safe/holdout partition is exact: within one cut window no merge
can fire (the cut ends before the trigger) and thresholds only grow, so
a deposit that keeps its owner's counter at or below the *first* item's
threshold fits at its own (later) arrival too. An owner's safe
positions all precede its first crossing, so scattering them before
replaying the holdouts reproduces the object backend's per-item
counter states: a holdout cascade reads its owner's counter after
exactly the deposits that preceded it in arrival order, and splits it
performs only re-route items of that same owner (owner regions are
disjoint, so other owners' routing is unaffected).

Exactness: the fit predicate works entirely on the integer side.
Per-owner deposits are summed exactly in int64 (``_exact_bincount``
splits each weight into 32-bit halves so every float64 partial sum that
``np.bincount`` computes internally stays below 2**53), totals are
compared against ``math.floor`` of the float threshold — for integral
``x``, ``x <= t`` iff ``x <= floor(t)`` — and the merge-trigger cut
compares int64 running totals against ``math.ceil`` of the trigger, so
no float64 rounding ever enters a routing decision, including counters
past 2**53 (RAP-LINT019/020 gate regressions here). The scalar cascade
converts every counter it reads to a Python int before comparing
against float thresholds, preserving CPython's exact int-float
comparison. Totals beyond int64 are out of the kernel's domain: batches
whose event total nears it take the per-item path (see ``_cut``), and
``add`` refuses any item that would take ``events`` past 2**63-1 with
``OverflowError`` — so no counter, and no subtree sum a merge pass
computes, can wrap (the object backend's Python ints keep going; the
paper's ``n`` sits far below the bound).

Validation: ``check_invariants`` (which ``combine_many`` runs on every
snapshot fold) checks the whole structural contract on the columns,
with no node view and no per-slot Python loop:

* slot accounting — the root (slot 0) is live, ``node_count`` slots are
  live, and the free stack holds every other allocated slot once, each
  with a zero count and no item flag;
* links — each live non-root slot has a live parent one level up and
  exactly one incoming chain pointer (its parent's ``first_child`` or a
  same-parent sibling's ``next_sibling``); ``lo`` strictly increases
  along a chain; ``n_children`` counts the children;
* geometry — ``lo <= hi``, ``is_item`` is ``lo == hi``, items have no
  children, and every child is a cell of its parent's partition;
* conservation — counts are non-negative and sum exactly to ``events``;
* merge caches — a clean node has no dirty child and caches its exact
  subtree weight and minimum;
* the cover index equals the ``_rebuild_cover`` derivation.

The link checks are why no reachability walk is needed: walking a live
slot's incoming pointers backwards stays under one parent with ``lo``
strictly decreasing, so it ends at that parent's ``first_child``, and the
parent is live and one level shallower — repeating reaches the root. So
the live set is exactly the set reachable from the root.

Construct through ``RapTree.from_config(RapConfig(backend="columnar"))``
— importing this module's internals elsewhere is flagged by RAP-LINT012.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from array import array
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .config import MergeScheduler, RapConfig, split_crossing_point
from .node import RapNode, partition_range
from .stats import TreeStats

_NO_SLOT = -1
_INITIAL_CAPACITY = 64
# Vectorized window sizing: grows while rounds come back nearly
# holdout-free, shrinks while the holdout fraction is high (cold-start
# split storms), bounding the threshold staleness a long window causes.
_WINDOW_MIN = 512
_WINDOW_START = 1024
_WINDOW_MAX = 16384
# Below this many remaining items the fixed numpy overhead of a round
# (routing, argsort, mask passes) costs more than finishing the tail
# through the scalar loop, which runs ~1us per item. It is also the
# length of a storm-mode scalar window: short windows notice quickly
# when crossings have thinned out (a raw stream's items are runs of
# equal values, so a window of them can hold many more events).
_MIN_VECTOR_TAIL = 384

# int64 split point for _exact_bincount: weights are divided at 32 bits
# so each half's float64 bincount sum stays exact (see the docstring).
_LOW32 = (1 << 32) - 1
_INT64_MAX = 2**63 - 1
# float64(2**63), exact: thresholds at or above it exceed every int64
# counter, so the integer-side comparison clamps to _INT64_MAX there.
_TWO_POW_63 = 9223372036854775808.0
# Batches whose running event totals could reach this take the per-item
# path: the kernel keeps them in int64 (see _cut).
_TWO_POW_62 = 4611686018427387904.0


def _exact_bincount(
    owners: np.ndarray, weights: np.ndarray, minlength: int
) -> np.ndarray:
    """Exact int64 per-owner sums of non-negative int64 ``weights``.

    ``np.bincount(..., weights=...)`` always accumulates in float64,
    which rounds individual deposits above 2**53. Splitting each weight
    into 32-bit halves keeps every float64 partial sum exact — with
    fewer than 2**21 contributions per owner each half sums to below
    2**21 * 2**32 = 2**53 (an ingest window holds at most ``_WINDOW_MAX``
    = 2**14 items) — and the recombined int64 total is exact for any
    sum that fits int64. Where the accumulation is an indexed add of
    existing int64 values rather than a ``weights=`` sum (the merge
    pass), ``np.add.at`` is exact and cheaper — this helper is for the
    bincount-shaped reductions only.
    """
    low = np.bincount(owners, weights=weights & _LOW32, minlength=minlength)
    high = np.bincount(owners, weights=weights >> 32, minlength=minlength)
    return low.astype(np.int64) + (high.astype(np.int64) << 32)


_TYPECODES = {"Q": np.dtype(np.uint64), "q": np.dtype(np.int64)}


def _int_column(items, typecode: str) -> np.ndarray:
    """``items`` as an integer array, or whatever ``np.asarray`` infers.

    A list goes through ``array.array(typecode)`` first: it converts
    exactly or raises — no float truncation, no wrap — at a fraction of
    the cost of numpy's per-item type inference. Lists it refuses
    (negative values under ``"Q"``, non-integers, magnitudes past 64
    bits) and arrays fall back to ``np.asarray``; the caller checks the
    inferred dtype.
    """
    if isinstance(items, list):
        try:
            return np.frombuffer(
                array(typecode, items), dtype=_TYPECODES[typecode]
            )
        except (OverflowError, TypeError):
            pass
    return np.asarray(items)


def _level_order(levels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Positions grouped by level: ``(order, bounds)``.

    ``order[bounds[d] : bounds[d + 1]]`` are the positions of ``levels``
    equal to ``d`` (ascending within a level); ``bounds`` runs one entry
    past the deepest level, so ``bounds.size - 2`` is the maximum level.
    ``levels`` must be non-empty and non-negative.
    """
    order = np.argsort(levels, kind="stable")
    ordered = levels[order]
    bounds = np.searchsorted(ordered, np.arange(int(ordered[-1]) + 2))
    return order, bounds


def _cell_geometry(
    lo: np.ndarray, hi: np.ndarray, branching: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`~repro.core.node.partition_range` shape.

    Returns ``(cells, base, extra)`` per uint64 range ``[lo, hi]``:
    ``cells = min(b, width)`` cells of width ``base``, the first
    ``extra`` of them one wider. The width itself (2**64 at a 64-bit
    root) may not fit uint64, so everything derives from
    ``span = hi - lo``.
    """
    one = np.uint64(1)
    span = hi - lo
    cells = np.minimum(span, np.uint64(branching - 1)) + one
    rem = span % cells + one
    return cells, span // cells + rem // cells, rem % cells


def _cell_bounds(
    lo: np.ndarray, base: np.ndarray, extra: np.ndarray, index: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Closed bounds of cell ``index`` of each range (see ``_cell_geometry``).

    Broadcasts, so a column of ranges against a row of indices yields
    every cell of every range at once.
    """
    start = lo + index * base + np.minimum(index, extra)
    return start, start + (base - np.uint64(1)) + (index < extra)


class _Preorder(NamedTuple):
    """Live nodes as preorder rows (see ``ColumnarRapTree._preorder``)."""

    slots: np.ndarray  # slot of each row
    los: np.ndarray
    his: np.ndarray
    depth: np.ndarray
    counts: np.ndarray
    inclusive: np.ndarray  # subtree weight of each row
    parent_row: np.ndarray  # row of each row's parent (meaningless at row 0)
    by_level: np.ndarray  # rows grouped by depth (see _level_order)
    level_bounds: np.ndarray


#: Per-slot columns, grown together (see _grow). ``_free_slots`` rides
#: along at the same capacity: every slot can be on the stack at most
#: once, so pushes can never overflow it.
_ARRAY_COLUMNS: Tuple[str, ...] = (
    "_counts",
    "_los",
    "_his",
    "_parents",
    "_first_child",
    "_next_sibling",
    "_n_children",
    "_depth",
    "_is_item",
    "_dirty",
    "_cached_weight",
    "_cached_min",
    "_live",
)


class ColumnarRapTree:
    """Array-backed RAP profile, observably equivalent to ``RapTree``.

    Implements the :class:`repro.core.backend.TreeBackend` protocol.
    ``root``/``nodes()``/``leaves()`` materialize a read-only
    :class:`~repro.core.node.RapNode` view of the columns (cached per
    mutation generation) so serialization, auditing and mixed-backend
    folds treat both backends identically (an all-columnar fold reads the
    columns instead, see :meth:`fold_columns`). Mutating the view does
    not affect the tree.
    """

    #: dtype of every slot column plus the free stack, in
    #: ``_ARRAY_COLUMNS + ("_free_slots",)`` order. The shared-memory
    #: arena (:mod:`repro.runtime.shm`) sizes its segments from this
    #: table, and :meth:`attach_columns` validates against it.
    COLUMN_DTYPES: Dict[str, np.dtype] = {
        "_counts": np.dtype(np.int64),
        "_los": np.dtype(np.uint64),
        "_his": np.dtype(np.uint64),
        "_parents": np.dtype(np.int32),
        "_first_child": np.dtype(np.int32),
        "_next_sibling": np.dtype(np.int32),
        "_n_children": np.dtype(np.int32),
        "_depth": np.dtype(np.int32),
        "_is_item": np.dtype(np.bool_),
        "_dirty": np.dtype(np.bool_),
        "_cached_weight": np.dtype(np.int64),
        "_cached_min": np.dtype(np.int64),
        "_live": np.dtype(np.bool_),
        "_free_slots": np.dtype(np.int32),
    }

    def __init__(
        self,
        config: RapConfig,
        *,
        allocator: Optional[
            Callable[[str, np.dtype, int], np.ndarray]
        ] = None,
    ) -> None:
        self._config = config
        # Optional column allocator hook: ``allocator(name, dtype,
        # capacity)`` returns a zero-filled 1-D array of exactly
        # ``capacity`` elements. The process-executor runtime passes the
        # shared-memory arena's allocator so every column (and every
        # ``_grow`` remap) lands in a SharedMemory block the parent can
        # attach; ``None`` keeps plain heap-backed numpy arrays.
        self._allocator = allocator
        capacity = _INITIAL_CAPACITY
        self._capacity = capacity
        for name in _ARRAY_COLUMNS + ("_free_slots",):
            setattr(
                self,
                name,
                self._new_column(name, self.COLUMN_DTYPES[name], capacity),
            )
        self._free_top = 0
        self._size = 0
        # Allocation-default pre-fill: fresh (never-allocated) slots
        # already hold the state _alloc would write — leaf chain head,
        # dirty, live — and freed slots are restored to it in bulk when
        # the merge pass recycles them, so the allocation hot path only
        # stores the per-node fields (bounds, depth, item flag). The
        # live pre-fill is safe: every _live read is masked to the
        # allocated prefix ``[:size]``.
        self._first_child.fill(_NO_SLOT)
        self._dirty.fill(True)
        self._live.fill(True)
        self._rebind_views()
        root = self._alloc(0, config.range_max - 1, 0)
        assert root == 0, "root must occupy slot 0"
        # _alloc leaves parent/sibling pointers to _set_children; the
        # root is never anyone's child, so pin its pointers here once.
        self._parents[0] = _NO_SLOT
        self._next_sibling[0] = _NO_SLOT
        self._root_hi = config.range_max - 1
        self._node_count = 1
        self._events = 0
        self._scheduler = MergeScheduler(
            initial_interval=config.merge_initial_interval,
            growth=config.merge_growth,
        )
        self._stats = TreeStats(sample_every=config.timeline_sample_every)
        self._eps_over_height = config.epsilon / config.max_height
        self._min_threshold = config.min_split_threshold
        self._audit_every = config.audit_every
        self._next_audit = config.audit_every
        self._generation = 0
        self._confined_ident: Optional[Tuple[int, int]] = None
        # Finger cache for scalar descents (same role as RapTree's
        # ``_cached_node``); reset to the root after merges recycle slots.
        self._cached_slot = 0
        # Cover index: one segment, the whole universe, owned by the root.
        self._cov_starts = np.zeros(1, dtype=np.uint64)
        self._cov_owner = np.zeros(1, dtype=np.int64)
        # Queued split splices, folded in batch by the next _sync_cover.
        self._cov_pending: List[Tuple[int, List[int]]] = []
        # Materialized RapNode view, cached per mutation generation.
        self._view_root: Optional[RapNode] = None
        self._view_generation = -1
        # Bulk-ingest mode flag, persistent across _ingest calls: a
        # cold tree starts in a holdout storm (every deposit crosses
        # the still-tiny thresholds), and chunked feeders like
        # add_stream re-enter _ingest mid-storm. Purely a routing
        # heuristic — both modes are the exact scalar semantics.
        # ``_calm`` counts consecutive low-fallback scalar windows; the
        # storm only ends after two, so one quiet window between split
        # bursts (common in chunked counted feeds) does not buy a
        # wasted vectorized round trip.
        self._storm = True
        self._calm = 0

    # ------------------------------------------------------------------
    # Slot management
    # ------------------------------------------------------------------

    def _new_column(
        self, name: str, dtype: np.dtype, capacity: int
    ) -> np.ndarray:
        """Allocate one zero-filled column through the allocator hook."""
        if self._allocator is not None:
            return self._allocator(name, dtype, capacity)
        return np.zeros(capacity, dtype=dtype)

    def _rebind_views(self) -> None:
        """Rebind the zero-copy scalar read views over the columns.

        ``memoryview`` indexing returns plain Python ints/bools straight
        off the numpy buffers (no array-scalar boxing), which makes the
        scalar cascade's per-element reads ~3x cheaper while keeping a
        single copy of every column — the views alias the same memory,
        so every vectorized write is visible through them immediately.
        Scalar *writes* go through the views too (~1.5-2x cheaper than
        a numpy scalar store), counters included: an int64 counter
        store that overflows raises ``ValueError`` from the memoryview
        (numpy's array store would raise ``OverflowError``) — either
        way a loud failure, never a silent wrap; the module docstring
        pins the exception types. Must be called whenever a column
        array object is replaced (``_grow``/``clone``).
        """
        self._v_counts = memoryview(self._counts)
        self._v_los = memoryview(self._los)
        self._v_his = memoryview(self._his)
        self._v_parents = memoryview(self._parents)
        self._v_first_child = memoryview(self._first_child)
        self._v_next_sibling = memoryview(self._next_sibling)
        self._v_n_children = memoryview(self._n_children)
        self._v_depth = memoryview(self._depth)
        self._v_is_item = memoryview(self._is_item)
        self._v_dirty = memoryview(self._dirty)
        self._v_live = memoryview(self._live)
        self._v_free_slots = memoryview(self._free_slots)

    def _alloc(self, lo: int, hi: int, depth: int) -> int:
        """Pop a slot off the free stack (or extend) and initialize it.

        Recycled slots had their counter and item flag reset when the
        merge pass freed them, so a zero counter is an invariant of
        every non-live slot (estimate/total_weight sum the raw column).
        This path stores only the per-node fields (bounds, depth, item
        flag). Everything else already holds the allocation default:
        parent and sibling pointers are immediately overwritten by the
        caller's chain build (the root's are set once in ``__init__``),
        a dirty slot's cached weight/min are never read before the next
        merge pass rewrites them wholesale, and the leaf/dirty/live
        state is pre-filled for fresh slots and bulk-restored when the
        merge pass frees a batch (only ``live`` needs a store on the
        recycle branch — frees are what cleared it).
        """
        if self._free_top:
            self._free_top -= 1
            slot = self._v_free_slots[self._free_top]
            self._v_live[slot] = True
        else:
            slot = self._size
            if slot == self._capacity:
                self._grow()
            self._size += 1
        self._v_los[slot] = lo
        self._v_his[slot] = hi
        self._v_depth[slot] = depth
        if lo == hi:
            self._v_is_item[slot] = True
        return slot

    def _grow(self) -> None:
        capacity = max(_INITIAL_CAPACITY, 2 * self._capacity)
        old_capacity = self._capacity
        for name in _ARRAY_COLUMNS + ("_free_slots",):
            old = getattr(self, name)
            # Under the allocator hook this is the shared-memory "grow
            # by remap": a fresh (larger) segment per column, the live
            # prefix copied over, the old segment retired by the arena.
            grown = self._new_column(name, old.dtype, capacity)
            grown[: old.size] = old
            setattr(self, name, grown)
        # Restore the allocation-default pre-fill on the fresh tail
        # (see __init__) so _alloc can keep skipping those stores.
        self._first_child[old_capacity:] = _NO_SLOT
        self._dirty[old_capacity:] = True
        self._live[old_capacity:] = True
        self._capacity = capacity
        self._rebind_views()

    def _children_slots(self, slot: int) -> List[int]:
        """Direct children of ``slot`` in ``lo`` order."""
        out: List[int] = []
        child = self._v_first_child[slot]
        next_sibling = self._v_next_sibling
        while child != _NO_SLOT:
            out.append(child)
            child = next_sibling[child]
        return out

    def _set_children(self, slot: int, kids: List[int]) -> None:
        """Rebuild the sibling chain of ``slot`` from a sorted slot list."""
        self._v_n_children[slot] = len(kids)
        self._v_first_child[slot] = kids[0] if kids else _NO_SLOT
        parents = self._v_parents
        next_sibling = self._v_next_sibling
        last = len(kids) - 1
        for index, kid in enumerate(kids):
            parents[kid] = slot
            next_sibling[kid] = kids[index + 1] if index < last else _NO_SLOT

    def _mark_dirty(self, slot: int) -> None:
        """Mark ``slot`` and its clean ancestors dirty (early-exit walk)."""
        vdirty = self._v_dirty
        vparents = self._v_parents
        while slot != _NO_SLOT and not vdirty[slot]:
            vdirty[slot] = True
            slot = vparents[slot]

    def _mark_dirty_many(self, touched: np.ndarray) -> None:
        """Vectorized dirty propagation for a batch of deposited slots.

        Level-by-level frontier walk: same final dirty set as calling
        :meth:`_mark_dirty` per slot (a slot already dirty stops the
        climb; ancestors of newly dirtied slots continue it).
        """
        dirty = self._dirty
        parents = self._parents
        current = touched[~dirty[touched]]
        while current.size:
            dirty[current] = True
            up = parents[current]
            up = up[up != _NO_SLOT]
            if not up.size:
                return
            up = np.unique(up)
            current = up[~dirty[up]]

    # ------------------------------------------------------------------
    # Scalar descent (finger search over the sibling chains)
    # ------------------------------------------------------------------

    def _deepest_slot(self, value: int) -> int:
        """Slot of the deepest node covering ``value``.

        Finger search, exactly like ``RapTree._locate``: walk up from
        the cached slot until the value is covered, then descend the
        sorted sibling chains. Consecutive events land near each other
        (loops, hot ranges), so the walk is usually O(1). All reads go
        through the memoryview accessors (plain Python ints out).
        """
        los = self._v_los
        his = self._v_his
        no_slot = _NO_SLOT
        slot = self._cached_slot
        if value < los[slot] or value > his[slot]:
            parents = self._v_parents
            slot = parents[slot]
            while slot != no_slot and (
                value < los[slot] or value > his[slot]
            ):
                slot = parents[slot]
            if slot == no_slot:
                slot = 0
        first_child = self._v_first_child
        next_sibling = self._v_next_sibling
        while True:
            child = first_child[slot]
            while child != no_slot and value > his[child]:
                child = next_sibling[child]
            if child == no_slot or los[child] > value:
                self._cached_slot = slot
                return slot
            slot = child

    # ------------------------------------------------------------------
    # Cover index (incremental in both directions)
    # ------------------------------------------------------------------

    def _rebuild_cover(self) -> None:
        """Recompute the full cover index from the sibling chains.

        The incremental splices (split inserts in ``_sync_cover``, the
        merge remap in ``_merge_frontier``) keep the live index equal to
        this derivation; ``check_invariants`` asserts exactly that, so
        this is the oracle, not a maintenance path. Its one other use
        builds the index of an attached or bootstrapped tree on first
        use.

        A node owns the parts of its range no child covers: its first
        value unless its first child starts there, and the value after
        each child unless the next sibling (or, after the last child,
        the end of the node's own range) starts there. Those gap starts,
        in value order, are the segments.
        """
        size = self._size
        los = self._los
        his = self._his
        live_idx = np.flatnonzero(self._live[:size])
        heads = self._first_child[live_idx]
        leading = heads == _NO_SLOT
        linked = ~leading
        leading[linked] = los[heads[linked]] > los[live_idx[linked]]
        kids = live_idx[live_idx != 0]
        after = self._next_sibling[kids]
        up = self._parents[kids]
        # Last value the child's gap may run to; ``after`` is -1 where
        # the parent's range ends first (that lane's sibling read is
        # discarded).
        bound = np.where(
            after == _NO_SLOT, his[up], los[after] - np.uint64(1)
        )
        trailing = his[kids] < bound
        starts = np.concatenate(
            (los[live_idx[leading]], his[kids[trailing]] + np.uint64(1))
        )
        owners = np.concatenate(
            (live_idx[leading], up[trailing].astype(np.int64))
        )
        order = np.argsort(starts, kind="stable")
        self._cov_starts = starts[order]
        self._cov_owner = owners[order]

    def _sync_cover(self) -> None:
        """Fold queued split splices into the cover index.

        After a split every missing partition cell gained a child, so the
        split node owns nothing: its segments are exactly the union of
        the new children's ranges. Batching the queued splits means one
        positioned insert per vectorized round instead of one per split;
        a fresh child that itself split later in the same batch
        contributes no segment (its own children do).

        A tree wrapped by :meth:`attach_columns` or built by
        :meth:`bootstrap_counted_arrays` has no cover index yet
        (``_cov_starts is None``): folds and estimates never read it, so
        it is built here, from the chains, the first time something does.
        """
        if self._cov_starts is None:
            self._cov_pending = []
            self._rebuild_cover()
            return
        pending = self._cov_pending
        if not pending:
            return
        self._cov_pending = []
        split_slots = {slot for slot, _ in pending}
        new_owners = [
            kid
            for _, created in pending
            for kid in created
            if kid not in split_slots
        ]
        # Membership via a boolean table over slots: owners are slot ids
        # (< size), so this is O(segments) with no sorting — much cheaper
        # than np.isin for the handful of splits pending between rounds.
        split_table = np.zeros(self._size, dtype=np.bool_)
        split_table[list(split_slots)] = True
        keep = ~split_table[self._cov_owner]
        kept_starts = self._cov_starts[keep]
        kept_owner = self._cov_owner[keep]
        owner_arr = np.asarray(new_owners, dtype=np.int64)
        new_starts = self._los[owner_arr]
        order = np.argsort(new_starts, kind="stable")
        new_starts = new_starts[order]
        owner_arr = owner_arr[order]
        # Both sides are sorted, so a positioned insert replaces the
        # concatenate-and-argsort: O(segments) copy, no sort. Done by
        # hand (shared scatter mask) — np.insert's argument handling
        # costs more than the copy itself at this size.
        positions = np.searchsorted(kept_starts, new_starts)
        grown = kept_starts.size + new_starts.size
        at = positions + np.arange(new_starts.size)
        starts_out = np.empty(grown, dtype=np.uint64)
        owner_out = np.empty(grown, dtype=np.int64)
        old_at = np.ones(grown, dtype=np.bool_)
        old_at[at] = False
        starts_out[at] = new_starts
        owner_out[at] = owner_arr
        starts_out[old_at] = kept_starts
        owner_out[old_at] = kept_owner
        self._cov_starts = starts_out
        self._cov_owner = owner_out

    # ------------------------------------------------------------------
    # Basic properties (mirrors RapTree)
    # ------------------------------------------------------------------

    @property
    def config(self) -> RapConfig:
        return self._config

    @property
    def root(self) -> RapNode:
        """Materialized read-only view of the tree (see class docstring)."""
        return self._materialize()

    @property
    def events(self) -> int:
        """Total event weight processed so far (the paper's ``n``)."""
        return self._events

    @property
    def node_count(self) -> int:
        """Current number of counters (nodes) in the tree."""
        return self._node_count

    @property
    def stats(self) -> TreeStats:
        return self._stats

    @property
    def mutation_generation(self) -> int:
        """Epoch counter bumped on every mutation of the profile."""
        return self._generation

    @property
    def merge_scheduler(self) -> MergeScheduler:
        return self._scheduler

    @property
    def split_threshold(self) -> float:
        """Current value of ``epsilon * n / log_b(R)`` (with floor)."""
        raw = self._eps_over_height * self._events
        return raw if raw > self._min_threshold else self._min_threshold

    def error_bound(self) -> float:
        """Worst-case undercount of any range estimate: ``epsilon * n``."""
        return self._config.epsilon * self._events

    def memory_bytes(self, bits_per_node: int = 128) -> int:
        """Actual bytes held by the column arrays.

        Counts every allocated slot — free-list slack and the unused
        capacity tail included — plus the cover index and the free
        stack: what the process really pays for this profile, not the
        paper's per-node model. ``bits_per_node`` is accepted for
        signature compatibility across backends but only the model
        (:meth:`modeled_memory_bytes`) uses it.
        """
        total = self._free_slots.nbytes
        if self._cov_starts is not None:
            total += self._cov_starts.nbytes + self._cov_owner.nbytes
        for name in _ARRAY_COLUMNS:
            total += getattr(self, name).nbytes
        return total

    def modeled_memory_bytes(self, bits_per_node: int = 128) -> int:
        """The paper's memory model: ``node_count`` at 128 bits/node
        (§4.2). This is what figure 7 and the accuracy/memory analyses
        plot — hardware cost, not host-process allocation."""
        return (self._node_count * bits_per_node + 7) // 8

    # ------------------------------------------------------------------
    # Thread confinement and cloning (runtime hooks)
    # ------------------------------------------------------------------

    def confine_to_current_thread(self) -> None:
        """Restrict mutations to the calling thread *and process*.

        The owner key is ``(pid, thread ident)``: a shard tree confined
        inside a worker process rejects mutation from any other process
        too (thread idents alone can collide across processes, and a
        fork inherits the parent's confinement marker verbatim).
        """
        self._confined_ident = (os.getpid(), threading.get_ident())

    def unconfine(self) -> None:
        """Lift confinement (any thread in any process may mutate)."""
        self._confined_ident = None

    def _assert_owner(self) -> None:
        owner = self._confined_ident
        if owner is None:
            return
        here = (os.getpid(), threading.get_ident())
        if owner != here:
            kind = "process" if owner[0] != here[0] else "thread"
            raise RuntimeError(
                "ColumnarRapTree is confined to (pid, thread) "
                f"{owner}; mutation attempted from the wrong {kind} "
                f"{here}. Shard trees are single-writer — route events "
                "through the owning worker's queue (see repro.runtime)."
            )

    def clone(self) -> "ColumnarRapTree":
        """Deep, independent copy of this profile (still columnar).

        Column copies are cheaper than the object backend's serializer
        round-trip and preserve exactly the same state: structure,
        counters, merge-schedule position and the mutation generation.
        Statistics timelines are not carried over (same contract as
        ``RapTree.clone``). Reading is allowed from any thread, so a
        confined shard tree can be cloned by the fold coordinator while
        the owning worker is quiesced.
        """
        self._sync_cover()
        other = ColumnarRapTree(self._config)
        for name in _ARRAY_COLUMNS + ("_free_slots",):
            setattr(other, name, getattr(self, name).copy())
        other._rebind_views()
        other._capacity = self._capacity
        other._free_top = self._free_top
        other._size = self._size
        other._node_count = self._node_count
        other._events = self._events
        other._scheduler.next_at = self._scheduler.next_at
        other._scheduler.batches_fired = self._scheduler.batches_fired
        other._generation = self._generation
        other._cov_starts = self._cov_starts.copy()
        other._cov_owner = self._cov_owner.copy()
        other._storm = self._storm
        other._calm = self._calm
        return other

    def column_state(self) -> Dict[str, object]:
        """Scalar state that travels with the columns across processes.

        Everything :meth:`attach_columns` needs beyond the column
        arrays themselves: slot accounting, event totals and the
        merge-schedule position. A shard worker sends this dict (plain
        ints/floats/bools — trivially picklable) alongside its
        shared-memory segment table; the parent reconstructs an
        equivalent tree without copying a single column.
        """
        return {
            "capacity": self._capacity,
            "size": self._size,
            "free_top": self._free_top,
            "node_count": self._node_count,
            "events": self._events,
            "next_at": self._scheduler.next_at,
            "batches_fired": self._scheduler.batches_fired,
            "generation": self._generation,
            "storm": self._storm,
            "calm": self._calm,
        }

    @classmethod
    def attach_columns(
        cls,
        config: RapConfig,
        columns: Mapping[str, np.ndarray],
        state: Mapping[str, object],
    ) -> "ColumnarRapTree":
        """Wrap already-populated column arrays as a read-only tree.

        The process executor's zero-copy fold path: the parent maps a
        quiesced worker's shared-memory segments as numpy arrays and
        wraps them here without copying. ``columns`` maps every name in
        ``_ARRAY_COLUMNS + ("_free_slots",)`` to an array of the
        :attr:`COLUMN_DTYPES` dtype; ``state`` is the owning tree's
        :meth:`column_state`. All reads work as usual — estimates,
        ``nodes()`` views, serialization, ``combine_many`` folds, and
        :meth:`clone` (which copies the columns into a writable
        heap-backed tree). The attached arrays are marked read-only so
        an accidental mutation of live worker state raises immediately
        instead of corrupting the shard. The cover index is left unbuilt
        until something reads it (see :meth:`_sync_cover`): a fold
        attaches every shard on every snapshot and never needs one.
        """
        tree = cls(config)
        capacity = int(state["capacity"])
        for name in _ARRAY_COLUMNS + ("_free_slots",):
            arr = np.asarray(columns[name])
            expected = cls.COLUMN_DTYPES[name]
            if arr.dtype != expected or arr.shape != (capacity,):
                raise ValueError(
                    f"column {name!r} must be a 1-D {expected} array of "
                    f"{capacity} slots, got {arr.dtype} {arr.shape}"
                )
            view = arr.view()
            view.flags.writeable = False
            setattr(tree, name, view)
        tree._capacity = capacity
        tree._free_top = int(state["free_top"])
        tree._size = int(state["size"])
        tree._node_count = int(state["node_count"])
        tree._events = int(state["events"])
        tree._scheduler.next_at = float(state["next_at"])
        tree._scheduler.batches_fired = int(state["batches_fired"])
        tree._generation = int(state["generation"])
        tree._storm = bool(state["storm"])
        tree._calm = int(state["calm"])
        tree._cached_slot = 0
        tree._view_root = None
        tree._view_generation = -1
        tree._rebind_views()
        tree._cov_starts = None
        tree._cov_owner = None
        return tree

    @classmethod
    def fold_columns(
        cls, config: RapConfig, trees: Sequence["ColumnarRapTree"]
    ) -> "ColumnarRapTree":
        """Deposit every shard counter at its own range, in one new tree.

        The columnar form of :func:`repro.core.combine.combine_many`'s
        fold, before its final merge pass. The RAP partition is a
        canonical ``b``-ary hierarchy, so a range is named by
        ``(depth, lo)`` and the fold is a set union plus a closure, not a
        pointer descent:

        1. the live slots of every shard with a nonzero count are the
           deposits;
        2. their strict ancestors are marked bottom-up, one ``parents``
           pass per level;
        3. every marked ancestor is split into all of its partition
           cells (vectorized ``partition_range``, uint64-safe);
        4. the root plus those cells, laid out in ``(depth, lo)`` order,
           are the new tree's slots; the deposits are summed onto them.

        This is exactly the node set the object fold's per-deposit
        descent materializes (it splits every node it passes through into
        all of its cells), so after the caller's ``merge_now`` both folds
        dump identically. Every internal node holds all of its cells, so
        the cover index is the leaves in ``lo`` order. Every slot starts
        dirty, so the merge pass visits the whole tree. ``config`` is the
        fold's (already reconciled) configuration; the shards must share
        its universe and branching factor.
        """
        root_hi = config.range_max - 1
        anc_parts: List[Tuple[np.ndarray, ...]] = []
        dep_parts: List[Tuple[np.ndarray, ...]] = []
        total = 0
        for shard in trees:
            total += shard.events
            size = shard._size
            live = shard._live[:size]
            deposits = live & (shard._counts[:size] != 0)
            if not deposits.any():
                continue
            parents = shard._parents
            live_idx = np.flatnonzero(live)
            order, bounds = _level_order(shard._depth[live_idx])
            by_depth = live_idx[order]
            # ``needed``: a deposit or an ancestor of one (closed upward).
            needed = deposits.copy()
            internal = np.zeros(size, dtype=np.bool_)
            for level in range(bounds.size - 2, 0, -1):
                slots = by_depth[bounds[level] : bounds[level + 1]]
                up = parents[slots[needed[slots]]]
                internal[up] = True
                needed[up] = True
            anc = np.flatnonzero(internal)
            anc_parts.append(
                (shard._depth[anc], shard._los[anc], shard._his[anc])
            )
            dep = np.flatnonzero(deposits)
            dep_parts.append(
                (
                    shard._depth[dep],
                    shard._los[dep],
                    shard._his[dep],
                    shard._counts[dep],
                )
            )
        if total > _INT64_MAX:
            raise OverflowError(
                f"fold of {total} events exceeds the int64 counter domain"
            )
        tree = cls(config)
        tree._events = total
        if not dep_parts:
            return tree
        anc_depth, anc_lo, anc_hi = (
            np.concatenate(column) for column in zip(*anc_parts)
        )
        # Shards share ancestors: sort by (depth, lo), drop repeats.
        order = np.lexsort((anc_lo, anc_depth))
        anc_depth, anc_lo, anc_hi = (
            anc_depth[order], anc_lo[order], anc_hi[order]
        )
        keep = np.ones(order.size, dtype=np.bool_)
        keep[1:] = (anc_lo[1:] != anc_lo[:-1]) | (
            anc_depth[1:] != anc_depth[:-1]
        )
        anc_depth, anc_lo, anc_hi = anc_depth[keep], anc_lo[keep], anc_hi[keep]
        # Every cell of every ancestor: a column of ranges against a row
        # of cell indices, masked to each range's cell count.
        cells_n, base, extra = _cell_geometry(
            anc_lo, anc_hi, config.branching
        )
        index = np.arange(config.branching, dtype=np.uint64)[None, :]
        valid = index < cells_n[:, None]
        cell_lo, cell_hi = _cell_bounds(
            anc_lo[:, None], base[:, None], extra[:, None], index
        )
        cell_lo = cell_lo[valid]
        cell_hi = cell_hi[valid]
        per_cell = cells_n.astype(np.int64)
        # Ancestors are sorted by (depth, lo) and each one's cells come
        # out in lo order, so root + cells is already (depth, lo) order.
        n = int(cell_lo.size) + 1
        los = np.empty(n, dtype=np.uint64)
        his = np.empty(n, dtype=np.uint64)
        depth = np.empty(n, dtype=np.int32)
        los[0] = 0
        his[0] = root_hi
        los[1:] = cell_lo
        his[1:] = cell_hi
        depth[0] = 0
        depth[1:] = (anc_depth + 1).repeat(per_cell)
        level_bounds = np.searchsorted(depth, np.arange(int(depth[-1]) + 2))

        def rows_of(key_depth: np.ndarray, key_lo: np.ndarray) -> np.ndarray:
            """Slot of each ``(depth, lo)`` key among the new rows."""
            rows = np.empty(key_depth.size, dtype=np.int64)
            for level in np.unique(key_depth).tolist():
                at = np.flatnonzero(key_depth == level)
                start = level_bounds[level]
                rows[at] = start + np.searchsorted(
                    los[start : level_bounds[level + 1]], key_lo[at]
                )
            return rows

        parents = np.empty(n, dtype=np.int32)
        parents[0] = _NO_SLOT
        parents[1:] = rows_of(anc_depth, anc_lo).repeat(per_cell)
        dep_depth, dep_lo, dep_hi, dep_counts = (
            np.concatenate(column) for column in zip(*dep_parts)
        )
        dep_rows = np.minimum(rows_of(dep_depth, dep_lo), n - 1)
        if not (
            np.array_equal(los[dep_rows], dep_lo)
            and np.array_equal(his[dep_rows], dep_hi)
        ):
            raise ValueError("shard holds a range outside this partition")
        counts = np.zeros(n, dtype=np.int64)
        np.add.at(counts, dep_rows, dep_counts)

        tree._capacity = n
        tree._size = n
        tree._node_count = n
        tree._counts = counts
        tree._los = los
        tree._his = his
        tree._parents = parents
        tree._depth = depth
        tree._is_item = los == his
        tree._first_child = np.full(n, _NO_SLOT, dtype=np.int32)
        tree._next_sibling = np.full(n, _NO_SLOT, dtype=np.int32)
        tree._n_children = np.zeros(n, dtype=np.int32)
        tree._dirty = np.ones(n, dtype=np.bool_)
        tree._cached_weight = np.zeros(n, dtype=np.int64)
        tree._cached_min = np.zeros(n, dtype=np.int64)
        tree._live = np.ones(n, dtype=np.bool_)
        tree._free_slots = np.zeros(n, dtype=np.int32)
        tree._rebind_views()
        tree._rebuild_chains(np.arange(n))
        leaves = np.flatnonzero(tree._n_children == 0)
        leaves = leaves[np.argsort(los[leaves], kind="stable")]
        tree._cov_starts = los[leaves]
        tree._cov_owner = leaves.astype(np.int64)
        return tree

    # ------------------------------------------------------------------
    # Updates — scalar path (exact port of RapTree.add/_absorb)
    # ------------------------------------------------------------------

    def add(self, value: int, count: int = 1) -> None:
        """Record ``count`` occurrences of ``value``.

        Arithmetic-identical to :meth:`repro.core.tree.RapTree.add`:
        same closed-form split crossing points, same mid-count merge
        triggers, same descent semantics. A non-integral ``value`` or
        ``count`` (``5.5``, NaN, a float array's item) raises
        ``TypeError``, as on the object backend. Unlike it, an item that
        would take ``events`` past 2**63-1 raises ``OverflowError``.
        """
        if self._confined_ident is not None:
            self._assert_owner()
        value = operator.index(value)
        count = operator.index(count)
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if value < 0 or value > self._root_hi:
            raise ValueError(
                f"value {value} outside universe [0, {self._root_hi}]"
            )
        if self._events + count > _INT64_MAX:
            raise OverflowError(
                f"{count} more events on {self._events} would take the "
                "tree past its int64 counter domain"
            )
        self._absorb_slot(self._deepest_slot(value), value, count)
        self._generation += 1
        self._stats.observe_update()

        if self._scheduler.due(self._events):
            self.merge_now()

        if self._audit_every and self._events >= self._next_audit:
            while self._next_audit <= self._events:
                self._next_audit += self._audit_every
            self.audit()

    def _absorb_slot(self, slot: int, value: int, count: int) -> None:
        """Deposit ``count`` units of ``value`` starting at ``slot``.

        Line-for-line port of ``RapTree._absorb`` onto slots. Every
        counter read is converted to a Python int before the float
        threshold comparison (CPython compares int vs float exactly at
        any magnitude; numpy would round the int64 side past 2**53), so
        the cascade arithmetic matches the object backend bit for bit.
        """
        remaining = count
        events = self._events
        eps_h = self._eps_over_height
        min_th = self._min_threshold
        scheduler = self._scheduler
        stats = self._stats
        vcounts = self._v_counts
        vitem = self._v_is_item
        vdirty = self._v_dirty
        vparents = self._v_parents
        no_slot = _NO_SLOT
        cap = self._capacity
        while True:
            next_at = scheduler.next_at
            m_merge = math.ceil(next_at) - events
            if m_merge < 1:
                m_merge = 1
            m = remaining if remaining < m_merge else m_merge

            m_split = 0
            c0 = vcounts[slot]
            if not vitem[slot]:
                cap_th = eps_h * (events + m)
                if cap_th < min_th:
                    cap_th = min_th
                if c0 + m > cap_th:
                    th1 = eps_h * (events + 1)
                    if th1 < min_th:
                        th1 = min_th
                    if c0 > int(th1):
                        # Already over threshold before absorbing (merge
                        # churn re-deposited weight): split dry and push
                        # the whole run down to the covering child. The
                        # split may grow (reallocate) the columns and
                        # rebind the views — re-hoist before the scan.
                        self._split_slot(slot)
                        if cap != self._capacity:
                            cap = self._capacity
                            vcounts = self._v_counts
                            vitem = self._v_is_item
                            vdirty = self._v_dirty
                            vparents = self._v_parents
                        vlos = self._v_los
                        vhis = self._v_his
                        vnext = self._v_next_sibling
                        child = self._v_first_child[slot]
                        while child != no_slot and not (
                            vlos[child] <= value <= vhis[child]
                        ):
                            child = vnext[child]
                        assert child != no_slot, (
                            "split left the value uncovered"
                        )
                        slot = child
                        continue
                    m_split = split_crossing_point(c0, events, eps_h, min_th)
                    if 0 < m_split < m:
                        m = m_split

            vcounts[slot] = c0 + m
            events += m
            remaining -= m
            self._events = events
            walk = slot
            while walk != no_slot and not vdirty[walk]:
                vdirty[walk] = True
                walk = vparents[walk]
            split_now = m_split != 0 and m == m_split
            if split_now:
                self._split_slot(slot)
                if cap != self._capacity:
                    cap = self._capacity
                    vcounts = self._v_counts
                    vitem = self._v_is_item
                    vdirty = self._v_dirty
                    vparents = self._v_parents
            stats.observe_weight(m, self._node_count)

            if events >= next_at:
                self.merge_now()
                if not remaining:
                    return
                # The merge may have recycled our slot; re-descend from
                # the root-side finger. (Merges never reallocate the
                # columns, so the hoisted views stay valid.)
                slot = self._deepest_slot(value)
            elif not remaining:
                self._cached_slot = slot
                return
            else:
                # A split boundary was hit with units left: descend one
                # level into the covering child of the just-split slot
                # (a sibling-chain scan — no full finger search needed).
                vlos = self._v_los
                vhis = self._v_his
                vnext = self._v_next_sibling
                child = self._v_first_child[slot]
                while child != no_slot and not (
                    vlos[child] <= value <= vhis[child]
                ):
                    child = vnext[child]
                assert child != no_slot, "split left the value uncovered"
                slot = child

    # ------------------------------------------------------------------
    # Updates — vectorized batch ingest
    # ------------------------------------------------------------------

    def extend(self, values: Iterable[int]) -> None:
        """Feed a stream of single events.

        Observably identical to calling :meth:`add` per value. One
        vectorized pass run-length encodes the stream — a run of ``k``
        equal values is the counted pair ``(value, k)``, unit-for-unit
        identical to ``k`` single adds (Section 3.3) — and the pairs go
        through the counted kernel. ``TreeStats.updates`` still counts
        one update per event, as the object backend does.
        """
        items = values
        if not isinstance(items, (list, np.ndarray)):
            items = list(items)
        cut = self._cut(items, None)
        if cut is None:
            for value in items:
                self.add(value)
            return
        varr, _, end = cut
        if end:
            head = np.empty(end, dtype=np.bool_)
            head[0] = True
            np.not_equal(varr[1:], varr[:-1], out=head[1:])
            starts = np.flatnonzero(head)
            self._ingest(varr[starts], np.diff(starts, append=end))
            self._stats.updates += end - int(starts.size)
        if end < len(items):
            # Malformed: raises the object backend's error.
            self.add(items[end])

    def add_counted(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Feed pre-combined ``(value, count)`` pairs in arrival order."""
        self._ingest_pairs(pairs if isinstance(pairs, list) else list(pairs))

    def add_batch(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Feed ``(value, count)`` pairs, sorted once and routed in bulk.

        Observably identical to ``add_counted(sorted(pairs))`` — the
        same contract as the object backend's batch kernel.
        """
        self._ingest_pairs(sorted(pairs))

    def add_counted_arrays(
        self, values: np.ndarray, counts: np.ndarray
    ) -> None:
        """Feed pre-combined ``(value, count)`` columns, array-native.

        Observably identical to
        ``add_counted(list(zip(values.tolist(), counts.tolist())))``
        without ever building the pair list. This is the online path of
        the runtime's ingest stage (:class:`repro.core.combine.IngestStage`):
        every window the bootstrap does not build lands here.
        """
        values = np.asarray(values)
        counts = np.asarray(counts)
        if values.shape != counts.shape or values.ndim != 1:
            raise ValueError(
                "values and counts must be matching 1-D arrays, got "
                f"shapes {values.shape} and {counts.shape}"
            )
        cut = self._cut(values, counts)
        if cut is None:
            for value, count in zip(values.tolist(), counts.tolist()):
                self.add(value, count)
            return
        varr, carr, end = cut
        if end:
            self._ingest(varr, carr)
        if end < values.size:
            # Malformed: raises the object backend's error.
            self.add(int(values[end]), int(counts[end]))

    def _ingest_pairs(self, items: List[Tuple[int, int]]) -> None:
        """Counted-pair entry shared by ``add_counted``/``add_batch``."""
        try:
            values = [value for value, _ in items]
            counts = [count for _, count in items]
        except (TypeError, ValueError):
            values = None  # a pair that does not unpack: per-item path
        cut = None if values is None else self._cut(values, counts)
        if cut is None:
            for value, count in items:
                self.add(value, count)
            return
        varr, carr, end = cut
        if end:
            self._ingest(varr, carr)
        if end < len(items):
            # Malformed: raises the object backend's error.
            self.add(*items[end])

    def _cut(
        self, values, counts
    ) -> Optional[Tuple[np.ndarray, Optional[np.ndarray], int]]:
        """The well-formed prefix of one batch, as kernel columns.

        Returns ``(values, counts, end)``: uint64 values and int64
        counts (``None`` for a raw stream) of items ``[0, end)``, where
        ``end`` is the first malformed item — a value outside the
        universe or a count below one — or the batch size. Returns
        ``None`` when the batch must take the per-item :meth:`add` path
        instead, which raises the object backend's errors at the same
        item: per-event hooks (timeline sampling, self-audits) must see
        every event, or numpy cannot represent the batch exactly
        (non-integer items, counts past int64, event totals nearing
        int64 — the kernel keeps running totals in int64).
        """
        if self._confined_ident is not None:
            self._assert_owner()
        if self._stats.sample_every > 0 or self._audit_every:
            return None
        values = _int_column(values, "Q")
        if values.ndim != 1 or values.dtype.kind not in "iu":
            return None
        bad = values > self._root_hi
        if values.dtype.kind == "i":
            bad |= values < 0
        if counts is not None:
            counts = _int_column(counts, "q")
            if counts.dtype.kind not in "iu" or (
                counts.dtype.kind == "u"
                and counts.size
                and int(counts.max()) > _INT64_MAX
            ):
                return None
            bad |= counts < 1
        end = int(bad.argmax()) if bad.any() else int(values.size)
        values = values[:end].astype(np.uint64, copy=False)
        if counts is None:
            weight = float(end)
        else:
            counts = counts[:end].astype(np.int64, copy=False)
            weight = float(counts.sum(dtype=np.float64))
        # Half of int64 leaves room for the float estimate's rounding.
        if self._events + weight >= _TWO_POW_62:
            return None
        return values, counts, end

    def bootstrap_counted_arrays(
        self, values: np.ndarray, counts: np.ndarray
    ) -> bool:
        """Cold-start bulk build from one sorted counted frame.

        Top-down offline construction of the adaptive partition for a
        *fresh* tree: recursively burst every range whose frame mass
        exceeds the split threshold at the final event count, working
        level by level with array kernels (one ``searchsorted`` over
        the frame per level) instead of replaying the per-event
        cascade. The result is not the same shape the online kernel
        would build — it is a *different reachable* RAP state with the
        same contracts, because both guarantees are structural, not
        historical: every counter is real mass from inside its range
        (estimates stay exact lower bounds), and every non-item node
        holds at most ``split_threshold(n)``, so a query's undercount —
        mass on nodes straddling its boundary, at most one per level
        per side — stays within ``epsilon * n`` exactly as Section 3.2
        argues for the online tree. The build ends with the standard
        catch-up merge, leaving the merge schedule where any online
        ingest of ``n`` events would have left it.

        This is the runtime's first-flush path: a shard's ingest stage
        (:class:`repro.core.combine.IngestStage`) hands its whole
        opening window to the empty shard tree in one frame, and
        building that tree directly is several times cheaper than
        cascading the window's deposits through a cold tree that splits
        under nearly every one. Callers that need the online shape
        (``add_counted_arrays`` is documented observably identical to
        ``add_counted``) must not use this.

        Returns ``True`` when the bulk build ran. Returns ``False`` —
        tree untouched — when a precondition fails: the tree is not
        fresh, per-event hooks (timeline sampling, auditing) must see
        every event, or the frame is not strictly-increasing in-range
        values with positive int64 counts. Fall back to
        :meth:`add_counted_arrays` in that case.
        """
        if (
            self._events != 0
            or self._node_count != 1
            or self._size != 1
            or self._free_top != 0
        ):
            return False
        values = np.asarray(values)
        counts = np.asarray(counts)
        if values.shape != counts.shape:
            return False
        # _cut also rules out per-event hooks and int64 overflow in the
        # exact sum below.
        cut = self._cut(values, counts)
        if cut is None or cut[2] != values.size or values.size == 0:
            return False
        varr, carr, _ = cut
        if not bool(np.all(varr[:-1] < varr[1:])):
            return False
        total = int(carr.sum())
        floor_t = min(
            math.floor(self._config.split_threshold(total)), _INT64_MAX
        )
        branching = self._config.branching
        # Prefix masses: frame slice [i, j) weighs cum[j] - cum[i].
        cum = np.zeros(varr.size + 1, dtype=np.int64)
        np.cumsum(carr, out=cum[1:])

        created = 0
        bursts = 0
        if total <= floor_t or self._root_hi == 0:
            self._v_counts[0] = total
        else:
            # Root level in exact Python ints — the root's width (the
            # whole universe) can overflow the uint64 cell arithmetic
            # the deeper levels use; its cells never can.
            bursts += 1
            cells = partition_range(0, self._root_hi, branching)
            cell_lo = np.array([lo for lo, _ in cells], dtype=np.uint64)
            cell_hi = np.array([hi for _, hi in cells], dtype=np.uint64)
            bounds = np.empty(len(cells) + 1, dtype=np.int64)
            bounds[0] = 0
            bounds[-1] = varr.size
            bounds[1:-1] = np.searchsorted(varr, cell_lo[1:])
            mass = cum[bounds[1:]] - cum[bounds[:-1]]
            keep = np.flatnonzero(mass)
            sel_lo = cell_lo[keep]
            sel_hi = cell_hi[keep]
            sel_mass = mass[keep]
            sel_plo = bounds[:-1][keep]
            sel_phi = bounds[1:][keep]
            parent_rows = np.zeros(keep.size, dtype=np.int64)
            parent_slots = np.zeros(1, dtype=np.int64)
            group_sizes = np.array([keep.size], dtype=np.int64)
            depth = 1
            while True:
                spawned = int(sel_lo.size)
                while self._size + spawned > self._capacity:
                    self._grow()
                base_slot = self._size
                slots = base_slot + np.arange(spawned, dtype=np.int64)
                self._los[slots] = sel_lo
                self._his[slots] = sel_hi
                self._depth[slots] = depth
                self._parents[slots] = parent_slots[parent_rows]
                item = sel_lo == sel_hi
                self._is_item[slots] = item
                # Sibling chains: slots are handed out in row-major
                # (parent, ascending-lo) order, so each parent's group
                # is a contiguous ascending run — link the whole level
                # with one shifted store, then cut at group ends.
                group_ends = base_slot + np.cumsum(group_sizes) - 1
                self._next_sibling[slots[:-1]] = slots[1:]
                self._next_sibling[group_ends] = _NO_SLOT
                self._first_child[parent_slots] = np.concatenate(
                    (slots[:1], group_ends[:-1] + 1)
                )
                self._n_children[parent_slots] = group_sizes
                self._size += spawned
                created += spawned
                leaf = item | (sel_mass <= floor_t)
                self._counts[slots[leaf]] = sel_mass[leaf]
                recurse = np.flatnonzero(~leaf)
                if recurse.size == 0:
                    break
                bursts += int(recurse.size)
                parent_slots = slots[recurse]
                p_lo = sel_lo[recurse]
                p_hi = sel_hi[recurse]
                p_plo = sel_plo[recurse]
                p_phi = sel_phi[recurse]
                # One vectorized burst per surviving parent: the exact
                # partition_range geometry, computed for all parents at
                # once. Columns past a narrow parent's cell count come
                # out as garbage cells; the masks below drop them.
                cells_u, base, extra = _cell_geometry(p_lo, p_hi, branching)
                cells_n = cells_u.astype(np.int64)
                j = np.arange(branching, dtype=np.uint64)[None, :]
                starts, ends = _cell_bounds(
                    p_lo[:, None], base[:, None], extra[:, None], j
                )
                idx = np.empty(
                    (starts.shape[0], branching + 1), dtype=np.int64
                )
                idx[:, 0] = p_plo
                idx[:, -1] = p_phi
                if branching > 1:
                    idx[:, 1:-1] = np.searchsorted(varr, starts[:, 1:])
                    # Columns past a narrow parent's cell count carry
                    # garbage starts; pin them to the parent's end so
                    # those cells read as empty.
                    short = (
                        np.arange(1, branching)[None, :] >= cells_n[:, None]
                    )
                    if short.any():
                        idx[:, 1:-1][short] = np.broadcast_to(
                            p_phi[:, None], short.shape
                        )[short]
                mass = cum[idx[:, 1:]] - cum[idx[:, :-1]]
                nonzero = mass > 0
                flat = np.flatnonzero(nonzero.ravel())
                rows = flat // branching
                cols = flat - rows * branching
                sel_lo = starts[rows, cols]
                sel_hi = ends[rows, cols]
                sel_mass = mass[rows, cols]
                sel_plo = idx[rows, cols]
                sel_phi = idx[rows, cols + 1]
                parent_rows = rows
                group_sizes = nonzero.sum(axis=1)
                depth += 1
        self._node_count += created
        self._events = total
        self._stats.observe_batch(total, int(varr.size), self._node_count)
        self._stats.splits += bursts
        self._generation += 1
        self._cached_slot = 0
        # No cover index yet: ``_sync_cover`` derives it from the chains
        # (``_rebuild_cover``) the first time something reads it.
        self._cov_starts = None
        self._cov_owner = None
        if self._scheduler.due(self._events):
            self.merge_now()
        return True

    def add_stream(self, values: Iterable[int], combine_chunk: int = 0) -> None:
        """Feed a stream, optionally combining duplicates per chunk."""
        if combine_chunk <= 0:
            self.extend(values)
            return
        chunk: Dict[int, int] = {}
        pending = 0
        for value in values:
            chunk[value] = chunk.get(value, 0) + 1
            pending += 1
            if pending >= combine_chunk:
                self.add_batch(chunk.items())
                chunk.clear()
                pending = 0
        if chunk:
            self.add_batch(chunk.items())

    def _ingest(self, varr: np.ndarray, carr: np.ndarray) -> None:
        """The batch kernel: counted columns, deposited in arrival order.

        ``varr`` (uint64) and ``carr`` (int64) are a well-formed batch
        (see :meth:`_cut`). The kernel alternates scalar windows
        (:meth:`_scalar_deposit`) and vectorized rounds
        (:meth:`_vector_round`); both are the exact scalar semantics,
        so the choice is purely a routing heuristic. Every item
        deposits exactly once, in order, so its arrival event total is
        known up front: ``landed`` holds the running total after each
        item, ``arrivals`` the total before it.
        """
        total = int(varr.size)
        landed = np.cumsum(carr)
        landed += self._events
        arrivals = landed - carr
        index = 0
        window = _WINDOW_START
        # Storm mode: while thresholds are tiny (cold tree, small n)
        # nearly every item is a true crossing, so a vectorized round
        # would compute masks just to route the whole window into the
        # replay loop. Run those windows through the scalar loop
        # directly and come back to vectorized rounds once crossings
        # thin out. The flag persists across calls (chunked feeders
        # re-enter here mid-storm).
        storm = self._storm
        calm = self._calm
        try:
            while index < total:
                if storm or total - index < _MIN_VECTOR_TAIL:
                    # Scalar window: a storm probe, or a tail too short
                    # to pay a round's fixed numpy overhead.
                    end = min(index + _MIN_VECTOR_TAIL, total)
                    fallbacks = self._scalar_deposit(
                        varr[index:end].tolist(),
                        carr[index:end].tolist(),
                        arrivals[index:end].tolist(),
                    )
                    consumed = end - index
                    index = end
                    # Leave the storm only when true crossings have
                    # been rare for two windows running: the vectorized
                    # rounds win solely through the safe scatter, a
                    # single crossing owner can drag its whole camp
                    # into the replay, and one quiet window mid-storm
                    # is usually just the gap between split bursts.
                    if 64 * fallbacks > consumed:
                        storm = True
                        calm = 0
                    else:
                        calm += 1
                        if calm >= 2:
                            storm = False
                    continue
                next_index, holdouts = self._vector_round(
                    varr, carr, landed, arrivals, index, window
                )
                if next_index == index:
                    # The merge trigger falls inside the head item:
                    # add() fires it mid-count.
                    self.add(int(varr[index]), int(carr[index]))
                    index += 1
                    continue
                consumed = next_index - index
                index = next_index
                storm = 4 * holdouts >= consumed
                if storm:
                    calm = 0
                # Window adaptation: long windows amortize the numpy
                # overhead but stale-threshold more items into holdouts;
                # track the observed holdout fraction.
                if 8 * holdouts <= consumed:
                    if consumed == window and window < _WINDOW_MAX:
                        window *= 2
                elif 4 * holdouts >= consumed and window > _WINDOW_MIN:
                    window //= 2
        finally:
            self._storm = storm
            self._calm = calm
            self._generation += 1
            self._view_root = None

    def _scalar_deposit(
        self,
        values: List[int],
        counts: List[int],
        arrivals: List[int],
    ) -> int:
        """The one scalar deposit loop: exact cascade semantics per item.

        Deposits ``counts[i]`` units of ``values[i]`` arriving at event
        total ``arrivals[i]`` — consecutive totals for a scalar window,
        each held item's own (rewound) total for a vectorized round's
        holdout replay. A deposit that fits its deepest cover at its
        landing moment is one counter store (inline finger search, fit
        check against the item's own threshold); only true threshold or
        merge crossings take the full cascade (:meth:`_absorb_slot`),
        which is arithmetic-identical to the object backend. Returns
        how many deposits cascaded — the storm signal (few crossings
        means thresholds have outgrown typical deposits and the
        vectorized rounds pay again). Leaves ``events`` at the last
        item's landing.
        """
        absorb = self._absorb_slot
        scheduler = self._scheduler
        stats = self._stats
        eps_h = self._eps_over_height
        min_th = self._min_threshold
        next_at = scheduler.next_at
        vcounts = self._v_counts
        vitem = self._v_is_item
        vdirty = self._v_dirty
        vparents = self._v_parents
        vlos = self._v_los
        vhis = self._v_his
        vfirst = self._v_first_child
        vnext = self._v_next_sibling
        cached = self._cached_slot
        no_slot = _NO_SLOT
        cap = self._capacity
        pending_weight = 0
        pending_updates = 0
        fallbacks = 0
        landed = self._events
        # Leaf cache: between cascades no split, merge or grow can
        # happen, so the childless slot that took the last deposit — its
        # bounds, is_item flag and running counter — stays valid as
        # plain Python ints. A stream camped on one leaf then deposits
        # with a single column store and zero reads. ``flo > fhi``
        # marks the cache empty; every cascade invalidates it.
        floc = 0
        flo = 1
        fhi = 0
        fitem = False
        fcount = 0
        for value, count, arrival in zip(values, counts, arrivals):
            landed = arrival + count
            if flo <= value <= fhi:
                # Cached-leaf fast path: one store, no reads.
                if landed < next_at:
                    if fitem:
                        fits = True
                    else:
                        th = eps_h * landed
                        if th < min_th:
                            th = min_th
                        # Python int vs float: exact at any magnitude.
                        fits = fcount + count <= th
                    if fits:
                        fcount += count
                        vcounts[floc] = fcount
                        pending_weight += count
                        pending_updates += 1
                        continue
                slot = floc
            else:
                # Inline finger search (the body of _deepest_slot, with
                # the finger kept in a local across iterations).
                slot = cached
                if value < vlos[slot] or value > vhis[slot]:
                    slot = vparents[slot]
                    while slot != no_slot and (
                        value < vlos[slot] or value > vhis[slot]
                    ):
                        slot = vparents[slot]
                    if slot == no_slot:
                        slot = 0
                # Descent: siblings sit in lo order, so the first child
                # whose hi reaches the value is the only candidate; one
                # lo read then decides covered-vs-gap (merge passes can
                # leave gaps between surviving siblings).
                while True:
                    child = vfirst[slot]
                    while child != no_slot and value > vhis[child]:
                        child = vnext[child]
                    if child == no_slot or vlos[child] > value:
                        break
                    slot = child
                cached = slot
                if landed < next_at:
                    c0 = vcounts[slot]
                    isit = vitem[slot]
                    if isit:
                        fits = True
                    else:
                        th = eps_h * landed
                        if th < min_th:
                            th = min_th
                        # Python int vs float: exact at any magnitude.
                        fits = c0 + count <= th
                    if fits:
                        c0 += count
                        vcounts[slot] = c0
                        pending_weight += count
                        pending_updates += 1
                        if not vdirty[slot]:
                            walk = slot
                            while walk != no_slot and not vdirty[walk]:
                                vdirty[walk] = True
                                walk = vparents[walk]
                        if vfirst[slot] == no_slot:
                            # Childless: any in-range value is deepest
                            # here. (``child == no_slot`` is weaker —
                            # children left of the value also end the
                            # scan that way, and they must keep catching
                            # their own deposits.)
                            floc = slot
                            flo = vlos[slot]
                            fhi = vhis[slot]
                            fitem = isit
                            fcount = c0
                        continue
            # True crossing (or merge boundary): the full cascade, which
            # can split (growing and rebinding the column views) or
            # merge (moving next_at and recycling slots — stale finger).
            # Re-hoist the loop locals and drop the leaf cache. A merge
            # records the event total it fires at, so flush the inline
            # deposits before one.
            flo = 1
            fhi = 0
            if pending_updates and landed >= next_at:
                stats.observe_batch(
                    pending_weight, pending_updates, self._node_count
                )
                pending_weight = 0
                pending_updates = 0
            self._events = arrival
            absorb(slot, value, count)
            stats.observe_update()
            fallbacks += 1
            next_at = scheduler.next_at
            if cap != self._capacity:
                # Merges recycle slots in place and never reallocate;
                # only a split's grow rebinds the views.
                cap = self._capacity
                vcounts = self._v_counts
                vitem = self._v_is_item
                vdirty = self._v_dirty
                vparents = self._v_parents
                vlos = self._v_los
                vhis = self._v_his
                vfirst = self._v_first_child
                vnext = self._v_next_sibling
            cached = self._cached_slot
        self._events = landed
        self._cached_slot = cached
        if pending_updates:
            stats.observe_batch(
                pending_weight, pending_updates, self._node_count
            )
        return fallbacks

    def _vector_round(
        self,
        varr: np.ndarray,
        carr: np.ndarray,
        landed: np.ndarray,
        arrivals: np.ndarray,
        start: int,
        window: int,
    ) -> Tuple[int, int]:
        """Consume one window: safe scatter plus exact holdout replay.

        Returns ``(next_index, holdouts)`` — the index of the first
        unconsumed item and how many items replayed through the scalar
        loop (the adaptive window signal). A return of ``start`` means
        the merge trigger falls inside the head item; the caller routes
        that item through add().

        The fit predicate is exact per *position*: a position is safe
        when its owner's running deposit through it stays at or below
        the item's own arrival threshold — the same comparison the
        scalar cascade would make at that moment (the window is cut
        before the next merge trigger). Positions at or past their
        owner's first crossing replay through :meth:`_scalar_deposit`
        with ``events`` rewound to each item's arrival, which
        reproduces the object backend's split decisions exactly — the
        mask routes, it never decides semantics.
        """
        self._sync_cover()
        total = varr.size
        if start + window > total:
            window = total - start
        size = self._size
        n_after = landed[start : start + window]
        # First item pushing events to >= next_at ends the window
        # before it. Integral n >= next_at iff n >= ceil(next_at), so
        # the cut compares int64 against an int64 scalar — exact at any
        # magnitude (searchsorted against the raw float would round
        # n_after past 2**53).
        cap = math.ceil(self._scheduler.next_at)
        if cap > _INT64_MAX:
            limit = window
        else:
            limit = int(np.searchsorted(n_after, np.int64(cap)))
        if limit <= 0:
            return start, 0
        owners = self._cov_owner[
            np.searchsorted(
                self._cov_starts, varr[start : start + limit], side="right"
            )
            - 1
        ]
        th0 = self._eps_over_height * int(n_after[0])
        if th0 < self._min_threshold:
            th0 = self._min_threshold
        # Integer-side threshold: for integral totals, x <= th0 iff
        # x <= floor(th0), so the mask never compares int64 against
        # float64 (inexact above 2**53). Clamped to int64 range —
        # past the clamp every representable total fits anyway.
        th_int = min(math.floor(th0), _INT64_MAX)
        counts = self._counts
        weights = carr[start : start + limit]
        totals = _exact_bincount(owners, weights, size)
        owner_ok = self._is_item[:size] | (counts[:size] + totals <= th_int)
        bad_at = np.flatnonzero(~owner_ok[owners])
        hold_pos = None
        if bad_at.size:
            # The window total overshoots for hot owners that are not
            # actually about to split — their early items fit even
            # though the whole window's worth would not. Refine exactly
            # for just the flagged owners, against each item's *own*
            # arrival threshold (the th0 pre-filter uses the round's
            # first — smallest — threshold; late-window items see a
            # larger n and a larger budget). An item fits iff the
            # owner's running deposit through it stays at or below
            # max(eps_h * landed, min_th) with ``landed`` the global
            # event total after the item — exactly the scalar fast
            # path's predicate. From the owner's first true crossing
            # onward every later item is held regardless of threshold:
            # the crossing splits the owner, so the scalar cascade
            # routes those items to a fresh child (groupwise
            # cumulative-OR via a cumsum over the crossing flags).
            # One groupwise running sum over the flagged positions —
            # grouped with a stable owner sort so each group keeps
            # arrival order — replaces a per-owner scan of the window.
            bowners = owners[bad_at]
            group_order = np.argsort(bowners, kind="stable")
            bpos = bad_at[group_order]
            bowners = bowners[group_order]
            flagged = bpos.size
            group_start = np.empty(flagged, dtype=np.bool_)
            group_start[0] = True
            np.not_equal(bowners[1:], bowners[:-1], out=group_start[1:])
            at = np.arange(flagged, dtype=np.int64)
            heads = np.maximum.accumulate(np.where(group_start, at, 0))
            wts = weights[bpos]
            deposited = np.cumsum(wts)
            running = (
                counts[bowners] + deposited - (deposited[heads] - wts[heads])
            )
            # Integer-side thresholds, vectorized: float64(landed)
            # rounds exactly like the scalar port's int-to-float
            # conversion, and integral running > th iff running >
            # floor(th). Thresholds at or past 2**63 are clamped to
            # _INT64_MAX (no int64 counter can exceed them) before the
            # cast, which would otherwise overflow.
            th_arr = self._eps_over_height * n_after[bpos].astype(np.float64)
            np.maximum(th_arr, self._min_threshold, out=th_arr)
            big = th_arr >= _TWO_POW_63
            big_any = bool(big.any())
            if big_any:
                th_arr[big] = 0.0
            th_per = np.floor(th_arr).astype(np.int64)
            if big_any:
                th_per[big] = _INT64_MAX
            crossed = running > th_per
            crossed_csum = np.cumsum(crossed)
            held = (
                crossed_csum - (crossed_csum[heads] - crossed[heads])
            ) > 0
            hold_mask = np.zeros(limit, dtype=np.bool_)
            hold_mask[bpos[held]] = True
            hold_pos = np.flatnonzero(hold_mask)
            safe_pos = np.flatnonzero(~hold_mask)
            sums = _exact_bincount(owners[safe_pos], weights[safe_pos], size)
            safe_count = int(safe_pos.size)
        else:
            sums = totals
            safe_count = limit
        touched = np.flatnonzero(sums)
        if touched.size:
            counts[touched] += sums[touched]
            self._mark_dirty_many(touched)
            # Charged at the round's starting tree size: the holdout
            # replay below runs after the scatter.
            self._stats.observe_batch(
                int(sums[touched].sum()), safe_count, self._node_count
            )
        holdouts = 0
        if hold_pos is not None and hold_pos.size:
            holdouts = int(hold_pos.size)
            held_at = start + hold_pos
            self._scalar_deposit(
                varr[held_at].tolist(),
                carr[held_at].tolist(),
                arrivals[held_at].tolist(),
            )
        # The whole cut is absorbed; land events on the cut's end (the
        # last holdout may have left it mid-window).
        self._events = int(n_after[limit - 1])
        return start + limit, holdouts

    # ------------------------------------------------------------------
    # Split
    # ------------------------------------------------------------------

    def _split_slot(self, slot: int) -> None:
        """Burst ``slot`` into up to ``b`` children (Section 2.2).

        Same policy as ``RapTree._split``: existing children (partition
        cells that survived a partial merge) are left alone, missing
        cells gain zero-count children, and the chain up to the root is
        marked dirty. The cover splice is queued for the next vectorized
        round rather than applied here.
        """
        lo = self._v_los[slot]
        hi = self._v_his[slot]
        kid_depth = self._v_depth[slot] + 1
        if self._v_n_children[slot]:
            cells = partition_range(lo, hi, self._config.branching)
            kids = self._children_slots(slot)
            los = self._v_los
            his = self._v_his
            existing = {(los[k], his[k]) for k in kids}
            created = [
                self._alloc(cell_lo, cell_hi, kid_depth)
                for cell_lo, cell_hi in cells
                if (cell_lo, cell_hi) not in existing
            ]
            if created:
                # _alloc may have grown (reallocated) the columns:
                # re-read the bounds view before sorting the chain.
                los = self._v_los
                merged = [
                    kid
                    for _, kid in sorted(
                        [(los[k], k) for k in kids]
                        + [(los[k], k) for k in created]
                    )
                ]
                self._set_children(slot, merged)
                self._node_count += len(created)
                self._cov_pending.append((slot, created))
        else:
            # Fast path (no surviving children): every cell is fresh
            # and emitted in ``lo`` order, so the sibling chain is just
            # the allocation order — allocate the partition cells
            # directly (the same boundaries ``partition_range``
            # computes: up to ``b`` near-equal cells, the remainder
            # spread over the leading ones) and chain them inline.
            width = hi - lo + 1
            branching = self._config.branching
            cells_n = branching if width >= branching else width
            base_w = width // cells_n
            extra = width % cells_n
            # Batched allocation: same pop-then-extend order as
            # per-cell _alloc calls, but with capacity ensured up
            # front so no view can rebind mid-loop.
            while self._size + cells_n - self._free_top > self._capacity:
                self._grow()
            free_top = self._free_top
            size = self._size
            vfree = self._v_free_slots
            vlive = self._v_live
            vlos = self._v_los
            vhis = self._v_his
            vdepth = self._v_depth
            vis_item = self._v_is_item
            parents = self._v_parents
            next_sibling = self._v_next_sibling
            created = []
            cell_lo = lo
            for cell_index in range(cells_n):
                cell_w = base_w + 1 if cell_index < extra else base_w
                if free_top:
                    free_top -= 1
                    kid = vfree[free_top]
                    vlive[kid] = True
                else:
                    kid = size
                    size += 1
                cell_hi = cell_lo + cell_w - 1
                vlos[kid] = cell_lo
                vhis[kid] = cell_hi
                vdepth[kid] = kid_depth
                if cell_w == 1:
                    vis_item[kid] = True
                created.append(kid)
                cell_lo = cell_hi + 1
            self._free_top = free_top
            self._size = size
            prev = created[0]
            self._v_first_child[slot] = prev
            parents[prev] = slot
            for kid in created[1:]:
                parents[kid] = slot
                next_sibling[prev] = kid
                prev = kid
            next_sibling[prev] = _NO_SLOT
            self._v_n_children[slot] = len(created)
            self._node_count += len(created)
            self._cov_pending.append((slot, created))
        self._mark_dirty(slot)
        self._stats.observe_split()

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------

    def merge_now(self) -> int:
        """Run one batched merge pass; returns the number of nodes removed.

        Observably identical to ``RapTree.merge_now`` — the reference's
        dirty-frontier walk is documented to produce exactly the tree a
        full post-order pass would, and after either pass every node is
        clean with exact cached values, so the vectorized full pass in
        :meth:`_merge_frontier` lands on the same state. The cover index
        is spliced in place (no rebuild).
        """
        if self._confined_ident is not None:
            self._assert_owner()
        self._sync_cover()
        threshold = self._config.merge_threshold(self._events)
        before = self._node_count
        visited = self._merge_frontier(threshold)
        removed = before - self._node_count
        self._stats.observe_merge_batch(removed, nodes_scanned=visited)
        self._scheduler.fired(self._events)
        self._generation += 1
        if removed:
            # Recycled slots may be anywhere; park the finger at the root.
            self._cached_slot = 0
        return removed

    def _merge_frontier(self, threshold: float) -> int:
        """One vectorized merge pass over the level structure.

        Level-ordered array kernels replace the object backend's
        post-order frame walk: subtree weights bottom-up (exact int64
        bincount), collapsibility top-down, chain rebuild and cache
        finalization wholesale. Equivalent to the reference walk
        because collapsing is closed under the maximal-subtree rule:
        a subtree collapses iff its total weight is at or below the
        threshold, wherever the walk encounters it. Returns the number
        of slots examined (the whole live set, or 1 on the clean-root
        early exit — this *is* a full scan, unlike the object walk,
        which is the price of doing it in constant Python overhead).
        """
        if not self._dirty[0] and int(self._cached_min[0]) > threshold:
            return 1
        size = self._size
        counts = self._counts
        parents = self._parents
        live = self._live
        live_idx = np.flatnonzero(live[:size])
        visited = int(live_idx.size)
        order, bounds = _level_order(self._depth[live_idx])
        by_depth = live_idx[order]
        max_depth = bounds.size - 2
        # Subtree weights, bottom-up by level. ``np.add.at`` is an
        # unbuffered indexed add straight in int64 — exact at any
        # magnitude (the float64-splitting ``_exact_bincount`` is only
        # needed where a ``weights=`` accumulation is unavoidable) and,
        # on the shallow per-level slot groups of a deep tree, several
        # times cheaper than two bincounts over the whole slot space.
        subtree = counts[:size].copy()
        for level in range(max_depth, 0, -1):
            slots = by_depth[bounds[level] : bounds[level + 1]]
            np.add.at(subtree, parents[slots], subtree[slots])
        # Integral weights: w <= threshold iff w <= floor(threshold).
        if threshold < 0:
            floor_t = -1
        else:
            floor_t = min(math.floor(threshold), _INT64_MAX)
        collapsible = (subtree <= floor_t) & live[:size]
        collapsible[0] = False
        collapsible_idx = np.flatnonzero(collapsible)
        if collapsible_idx.size == 0:
            self._finalize_clean(by_depth, bounds, max_depth, subtree, None)
            return visited
        # A slot is removed when any ancestor-or-self collapses
        # (top-down propagation down the levels). Nothing above the
        # shallowest collapsible slot can inherit a removal, so the
        # walk starts one level below it — on a deep tree collapses
        # are usually confined to the fresh camps near the bottom.
        removed = collapsible.copy()
        start_level = int(self._depth[collapsible_idx].min()) + 1
        for level in range(start_level, max_depth + 1):
            slots = by_depth[bounds[level] : bounds[level + 1]]
            removed[slots] |= removed[parents[slots]]
        removed_idx = np.flatnonzero(removed)
        survives = live[:size] & ~removed
        # Maximal collapsed subtrees (removed slots whose parent
        # survives — necessarily collapsible themselves) fold their
        # whole weight into the surviving parent.
        tops = removed_idx[survives[parents[removed_idx]]]
        np.add.at(counts, parents[tops], subtree[tops])
        # Free the removed slots: reset counters/item flags so dead
        # slots keep reading as zero, restore the allocation defaults
        # _alloc relies on (leaf chain head, dirty), push onto the
        # free stack.
        counts[removed_idx] = 0
        self._is_item[removed_idx] = False
        self._first_child[removed_idx] = _NO_SLOT
        self._n_children[removed_idx] = 0
        self._dirty[removed_idx] = True
        live[removed_idx] = False
        freed = removed_idx.size
        self._free_slots[self._free_top : self._free_top + freed] = removed_idx
        self._free_top += int(freed)
        self._node_count -= int(freed)
        surv_idx = np.flatnonzero(survives)
        self._rebuild_chains(surv_idx)
        self._finalize_clean(by_depth, bounds, max_depth, subtree, survives)
        # Cover splice: a value's new deepest cover is the nearest
        # surviving ancestor of its old one (collapses remove whole
        # subtrees). Remap owners top-down, then coalesce equal-owner
        # runs — the result is exactly what _rebuild_cover would emit.
        ancestor = np.arange(size, dtype=np.int64)
        for level in range(start_level - 1, max_depth + 1):
            slots = by_depth[bounds[level] : bounds[level + 1]]
            gone = slots[removed[slots]]
            ancestor[gone] = ancestor[parents[gone]]
        owner_new = ancestor[self._cov_owner]
        keep = np.empty(owner_new.size, dtype=np.bool_)
        keep[0] = True
        np.not_equal(owner_new[1:], owner_new[:-1], out=keep[1:])
        self._cov_starts = self._cov_starts[keep]
        self._cov_owner = owner_new[keep]
        return visited

    def _finalize_clean(
        self,
        by_depth: np.ndarray,
        bounds: np.ndarray,
        max_depth: int,
        subtree: np.ndarray,
        survives: Optional[np.ndarray],
    ) -> None:
        """Re-finalize surviving slots as clean with exact cached values.

        ``cached_weight`` is the (collapse-invariant) subtree weight;
        ``cached_min`` is the bottom-up minimum of subtree weights over
        the surviving slots — exactly what the reference walk's
        per-frame ``min`` accumulates.
        """
        parents = self._parents
        minima = subtree.copy()
        for level in range(max_depth, 0, -1):
            slots = by_depth[bounds[level] : bounds[level + 1]]
            if survives is not None:
                slots = slots[survives[slots]]
            np.minimum.at(minima, parents[slots], minima[slots])
        if survives is None:
            idx = by_depth
        else:
            idx = np.flatnonzero(survives)
        self._cached_weight[idx] = subtree[idx]
        self._cached_min[idx] = minima[idx]
        self._dirty[idx] = False

    def _rebuild_chains(self, surv_idx: np.ndarray) -> None:
        """Rewire every surviving sibling chain in one lexsort.

        Children are grouped by parent and ordered by ``lo`` — the same
        order every chain already had, so surviving structure is
        preserved and collapsed children simply vanish.
        """
        parents = self._parents
        first_child = self._first_child
        next_sibling = self._next_sibling
        n_children = self._n_children
        first_child[surv_idx] = _NO_SLOT
        next_sibling[surv_idx] = _NO_SLOT
        n_children[surv_idx] = 0
        kids = surv_idx[surv_idx != 0]
        if not kids.size:
            return
        kid_parents = parents[kids]
        order = np.lexsort((self._los[kids], kid_parents))
        kids = kids[order]
        kid_parents = kid_parents[order]
        heads = np.empty(kids.size, dtype=np.bool_)
        heads[0] = True
        np.not_equal(kid_parents[1:], kid_parents[:-1], out=heads[1:])
        head_at = np.flatnonzero(heads)
        first_child[kid_parents[head_at]] = kids[head_at]
        tail = ~heads[1:]
        next_sibling[kids[:-1][tail]] = kids[1:][tail]
        n_children[kid_parents[head_at]] = np.diff(
            np.append(head_at, kids.size)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def smallest_covering(self, value: int) -> RapNode:
        """The deepest node whose range covers ``value`` (view node)."""
        if value < 0 or value > self._root_hi:
            raise ValueError(
                f"value {value} outside universe [0, {self._root_hi}]"
            )
        node = self._materialize()
        while True:
            child = node.child_covering(value)
            if child is None:
                return node
            node = child

    def find_node(self, lo: int, hi: int) -> Optional[RapNode]:
        """The view node with exactly the range ``[lo, hi]``, if present."""
        node = self._materialize()
        while True:
            if node.lo == lo and node.hi == hi:
                return node
            child = node.child_covering(lo)
            if child is None or child.hi < hi:
                return None
            node = child

    def estimate(self, lo: int, hi: int) -> int:
        """Lower-bound estimate of events that fell in ``[lo, hi]``.

        A node's subtree contributes iff its own range is contained in
        the query (ranges nest), so the stack walk of the object backend
        reduces to one vectorized containment mask over the slots. Dead
        slots hold count 0 (reset at merge time), so no liveness mask
        is needed.
        """
        if lo > hi:
            raise ValueError(f"empty query range [{lo}, {hi}]")
        root_hi = self._root_hi
        if hi < 0 or lo > root_hi:
            return 0
        size = self._size
        query_lo = np.uint64(max(lo, 0))
        query_hi = np.uint64(min(hi, root_hi))
        mask = (self._los[:size] >= query_lo) & (self._his[:size] <= query_hi)
        return int(self._counts[:size][mask].sum())

    def estimate_upper(self, lo: int, hi: int) -> int:
        """Upper-bound estimate: every overlapping counter contributes."""
        if lo > hi:
            raise ValueError(f"empty query range [{lo}, {hi}]")
        root_hi = self._root_hi
        if hi < 0 or lo > root_hi:
            return 0
        size = self._size
        query_lo = np.uint64(max(lo, 0))
        query_hi = np.uint64(min(hi, root_hi))
        mask = (self._los[:size] <= query_hi) & (self._his[:size] >= query_lo)
        return int(self._counts[:size][mask].sum())

    def nodes(self) -> Iterator[RapNode]:
        """Pre-order iteration over the materialized view."""
        return self._materialize().iter_subtree()

    def leaves(self) -> Iterator[RapNode]:
        """Iteration over childless view nodes."""
        for node in self.nodes():
            if node.is_leaf:
                yield node

    def heavy_leaves(self, min_weight: float) -> List[Tuple[int, int, int]]:
        """``(lo, hi, count)`` of every leaf holding at least ``min_weight``.

        Same rows and order as ``RapTree.heavy_leaves`` (heaviest first,
        ties by ``lo``), read straight off the columns: live slots with
        no children whose counter clears the bar. The float bar is
        compared on the integer side (``c >= w`` iff ``c >= ceil(w)``
        for integral ``c``), so no counter is rounded through float64.
        """
        if not min_weight <= _INT64_MAX:  # NaN, or above every counter
            return []
        bar = math.ceil(min_weight) if min_weight > 0 else 0
        size = self._size
        counts = self._counts[:size]
        slots = np.flatnonzero(
            self._live[:size]
            & (self._n_children[:size] == 0)
            & (counts >= bar)
        )
        los = self._los[slots]
        weights = counts[slots]
        order = np.lexsort((los, -weights))
        return list(
            zip(
                los[order].tolist(),
                self._his[slots][order].tolist(),
                weights[order].tolist(),
            )
        )

    def total_weight(self) -> int:
        """Sum of all counters; always equals :attr:`events`.

        Dead slots hold count 0 (reset at merge time), so the raw
        column sum is the tree total.
        """
        return int(self._counts[: self._size].sum())

    def depth(self) -> int:
        """Height of the tree (root alone has depth 0).

        The depth column is maintained at allocation time (merges never
        re-depth a surviving node), so this is a masked max, not a walk.
        """
        size = self._size
        return int(self._depth[:size][self._live[:size]].max())

    def _hot_range_rows(
        self, cutoff: float
    ) -> List[Tuple[int, int, int, int, int]]:
        """Hot nodes as ``(lo, hi, exclusive, inclusive, depth)`` rows.

        The vectorized port of :func:`repro.core.hot_ranges.find_hot_ranges`'
        post-order walk: inclusive weights are plain subtree sums;
        exclusive weights fold in only the children that are themselves
        below the cutoff, accumulated level by level. The float cutoff
        is compared on the integer side (``e < cutoff`` iff
        ``e <= ceil(cutoff) - 1`` for integral ``e``), matching the
        reference's exact int-float comparisons.

        Rows are ordered exactly as the reference walk appends them —
        post-order position, which over a laminar range family is
        ``(hi ascending, depth descending)`` — so the caller's stable
        sort by weight produces the identical final order, ties and all.

        Everything runs on the *compacted* live set (``node_count``
        rows, see :meth:`_preorder`), not the slot space: inclusive
        weights are the preorder prefix sums, and the exclusive fold
        walks levels through the compact parent-row map with
        ``np.add.at``. Cost is O(n log n) in the live node count,
        independent of tree depth and slot capacity.
        """
        pre = self._preorder(np.flatnonzero(self._live[: self._size]))
        cut_m1 = min(math.ceil(cutoff) - 1, _INT64_MAX)
        # Exclusive fold, bottom-up by level: a child below the cutoff
        # donates its (already folded) weight to its parent. np.add.at
        # accumulates duplicates exactly in int64.
        exclusive = pre.counts.astype(np.int64, copy=True)
        bounds = pre.level_bounds
        for level in range(bounds.size - 2, 0, -1):
            rows = pre.by_level[bounds[level] : bounds[level + 1]]
            cold = rows[exclusive[rows] <= cut_m1]
            np.add.at(exclusive, pre.parent_row[cold], exclusive[cold])
        hot_rows = np.flatnonzero(exclusive > cut_m1)
        if not hot_rows.size:
            return []
        post = np.lexsort((-pre.depth[hot_rows], pre.his[hot_rows]))
        hot_rows = hot_rows[post]
        return list(
            zip(
                pre.los[hot_rows].tolist(),
                pre.his[hot_rows].tolist(),
                exclusive[hot_rows].tolist(),
                pre.inclusive[hot_rows].tolist(),
                pre.depth[hot_rows].tolist(),
            )
        )

    def _preorder(self, live_idx: np.ndarray, dtype=np.int64) -> _Preorder:
        """The live slots ``live_idx`` as rows in preorder.

        Preorder is ``lo`` ascending, ancestors (shallower) before
        equal-``lo`` descendants. Over a laminar range family (children
        are disjoint cells of their parent) a subtree is a contiguous
        preorder run, ending at the first later row with ``lo > hi``,
        so subtree weights are differences of one prefix sum of the
        counts, accumulated in ``dtype``. The caller picks a ``dtype``
        that holds every subtree weight: int64 once the weights are
        known to fit it, ``object`` (exact Python ints) otherwise.
        """
        depth = self._depth[live_idx]
        order = np.lexsort((depth, self._los[live_idx]))
        slots = live_idx[order]
        los = self._los[slots]
        his = self._his[slots]
        counts = self._counts[slots]
        n = int(slots.size)
        csum = np.zeros(n + 1, dtype=dtype)
        np.cumsum(counts.astype(dtype, copy=False), out=csum[1:])
        ends = np.searchsorted(los, his, side="right")
        row_of = np.empty(self._size, dtype=np.int64)
        row_of[slots] = np.arange(n, dtype=np.int64)
        depth = depth[order]
        by_level, level_bounds = _level_order(depth)
        return _Preorder(
            slots=slots,
            los=los,
            his=his,
            depth=depth,
            counts=counts,
            inclusive=csum[ends] - csum[:n],
            parent_row=row_of[self._parents[slots]],
            by_level=by_level,
            level_bounds=level_bounds,
        )

    # ------------------------------------------------------------------
    # Materialized view
    # ------------------------------------------------------------------

    def _materialize(self) -> RapNode:
        """Build (or reuse) the linked ``RapNode`` view of the columns.

        Cached per mutation generation: serializers, auditors and folds
        may walk it repeatedly between mutations for free. The view is a
        snapshot — mutating it does not write back. Columns convert via
        ``tolist`` (one C pass each) so the per-node construction reads
        Python ints, not numpy scalars.
        """
        if (
            self._view_root is not None
            and self._view_generation == self._generation
        ):
            return self._view_root
        size = self._size
        los = self._los[:size].tolist()
        his = self._his[:size].tolist()
        counts = self._counts[:size].tolist()
        first_child = self._first_child[:size].tolist()
        next_sibling = self._next_sibling[:size].tolist()
        dirty = self._dirty[:size].tolist()
        cached_weight = self._cached_weight[:size].tolist()
        cached_min = self._cached_min[:size].tolist()

        def build(slot: int, parent: Optional[RapNode]) -> RapNode:
            node = RapNode(
                los[slot], his[slot], count=counts[slot], parent=parent
            )
            node.dirty = dirty[slot]
            node.cached_weight = cached_weight[slot]
            node.cached_min = cached_min[slot]
            return node

        root = build(0, None)
        stack = [(0, root)]
        while stack:
            slot, node = stack.pop()
            child = first_child[slot]
            while child != _NO_SLOT:
                view_child = build(child, node)
                node.attach_child(view_child)
                stack.append((child, view_child))
                child = next_sibling[child]
        self._view_root = root
        self._view_generation = self._generation
        return root

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def audit(self) -> None:
        """Run the full structural auditor; raise ``AuditError`` if dirty."""
        # Imported lazily: repro.checks imports repro.core.
        from ..checks.audit import TreeAuditor

        TreeAuditor().audit(self).raise_if_failed()

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any broken structural invariant.

        Checks the object backend's contract plus the columnar
        bookkeeping, on the columns themselves — no node view, no
        per-slot Python loop (only loops over tree levels):

        * slot accounting: the root (slot 0, ``[0, range_max - 1]``,
          depth 0, no parent) is live, ``node_count`` slots are live,
          and the free stack holds every other allocated slot exactly
          once, each with a zero count and no item flag;
        * links: every live non-root slot has a live parent exactly one
          level up and is linked exactly once — by its parent's
          ``first_child`` or by a same-parent sibling's
          ``next_sibling`` — with ``lo`` strictly increasing along each
          chain (sorted, disjoint siblings); ``n_children`` is the
          number of children;
        * geometry: ``lo <= hi``, the item flag is ``lo == hi``, items
          have no children, and every child is a cell of its parent's
          ``partition_range`` (the uint64-safe ``_cell_geometry``);
        * conservation: counts are non-negative and sum exactly to
          ``events`` (32-bit halves, so the int64 sums cannot wrap);
        * merge caches: a clean node has no dirty child, and caches its
          subtree weight and the minimum subtree weight below it
          exactly;
        * the cover index equals the ``_rebuild_cover`` derivation.

        The link checks make the live set the reachable set, so no walk
        is needed. Follow a live slot's one incoming link backwards: it
        stays under the same parent with ``lo`` strictly decreasing, so
        it ends at the parent's ``first_child``. The parent is live and
        one level shallower, so repeating that reaches the root. Each
        chain therefore holds exactly its parent's children, and the
        chains together hold every live slot once. Subtree weights use
        the preorder prefix sums of :meth:`_preorder`: in int64 once
        non-negative counts and conservation bound every subtree by
        ``events <= 2**63 - 1``, in exact Python ints beyond that.
        """
        size = self._size
        live = self._live[:size]
        live_idx = np.flatnonzero(live)
        assert live[0], "root slot 0 is not live"
        assert live_idx.size == self._node_count, (
            f"live column counts {live_idx.size} slots, "
            f"node_count says {self._node_count}"
        )
        los = self._los
        his = self._his
        parents = self._parents
        depth = self._depth
        assert (
            parents[0] == _NO_SLOT
            and depth[0] == 0
            and los[0] == 0
            and his[0] == self._root_hi
        ), "root must be [0, range_max - 1] at depth 0 with no parent"

        free = self._free_slots[: self._free_top]
        assert ((free >= 0) & (free < size)).all(), (
            "free stack holds a slot outside the allocated prefix"
        )
        assert np.bincount(free, minlength=1).max() <= 1, (
            "free stack has duplicates"
        )
        assert free.size + live_idx.size == size, (
            "free stack and live column disagree on slot accounting"
        )
        bad = live[free]
        assert not bad.any(), f"free slot {free[bad][0]} is still live"
        bad = self._counts[free] != 0
        assert not bad.any(), f"free slot {free[bad][0]} holds a nonzero count"
        bad = self._is_item[free]
        assert not bad.any(), (
            f"free slot {free[bad][0]} still flagged as an item"
        )

        # Links. ``kids`` is every live non-root slot (slot 0 sorts first).
        kids = live_idx[1:]
        up = parents[kids]
        bad = (up < 0) | (up >= size)
        assert not bad.any(), f"slot {kids[bad][0]} has no parent"
        bad = ~live[up] | (depth[kids] != depth[up] + 1)
        assert not bad.any(), (
            f"child {kids[bad][0]} depth disagrees with its live parent"
        )
        heads = self._first_child[live_idx]
        after = self._next_sibling[kids]
        has_head = heads != _NO_SLOT
        has_after = after != _NO_SLOT
        targets = np.concatenate((heads[has_head], after[has_after]))
        assert ((targets >= 0) & (targets < size)).all(), (
            "sibling chain points outside the allocated prefix"
        )
        linked = np.bincount(targets, minlength=size)
        expected = live.astype(np.int64)
        expected[0] = 0
        assert np.array_equal(linked, expected), (
            "sibling chains must link every live non-root slot exactly "
            "once and nothing else"
        )
        bad = parents[heads[has_head]] != live_idx[has_head]
        assert not bad.any(), (
            f"child {heads[has_head][bad][0]} has wrong parent pointer"
        )
        prev = kids[has_after]
        succ = after[has_after]
        bad = parents[succ] != parents[prev]
        assert not bad.any(), (
            f"child {succ[bad][0]} has wrong parent pointer"
        )
        bad = los[succ] <= his[prev]
        assert not bad.any(), (
            f"children overlap/unsorted at slot {succ[bad][0]}"
        )
        bad = self._n_children[live_idx] != np.bincount(
            up, minlength=size
        )[live_idx]
        assert not bad.any(), (
            f"slot {live_idx[bad][0]} chain length != n_children"
        )

        # Geometry.
        node_lo = los[live_idx]
        node_hi = his[live_idx]
        bad = node_lo > node_hi
        assert not bad.any(), f"empty range at slot {live_idx[bad][0]}"
        bad = self._is_item[live_idx] != (node_lo == node_hi)
        assert not bad.any(), (
            f"slot {live_idx[bad][0]} item flag disagrees with its bounds"
        )
        up_lo = los[up]
        up_hi = his[up]
        kid_lo = los[kids]
        kid_hi = his[kids]
        bad = up_lo == up_hi
        assert not bad.any(), f"item slot {up[bad][0]} has children"
        # The cell holding each child's ``lo``: the first ``extra``
        # cells are ``base + 1`` wide, the rest ``base``. Lanes whose
        # child leaves the parent's range compute garbage and are
        # rejected by the range test.
        _, base, extra = _cell_geometry(up_lo, up_hi, self._config.branching)
        one = np.uint64(1)
        offset = kid_lo - up_lo
        wide = extra * (base + one)
        index = np.where(
            offset < wide,
            offset // (base + one),
            extra + (offset - wide) // base,
        )
        cell_lo, cell_hi = _cell_bounds(up_lo, base, extra, index)
        bad = (
            (kid_lo < up_lo)
            | (kid_hi > up_hi)
            | (cell_lo != kid_lo)
            | (cell_hi != kid_hi)
        )
        assert not bad.any(), (
            f"child [{kid_lo[bad][0]}, {kid_hi[bad][0]}] is not a "
            f"partition cell of [{up_lo[bad][0]}, {up_hi[bad][0]}]"
        )

        # Conservation, exact: each 32-bit half sums without wrapping.
        counts = self._counts[live_idx]
        bad = counts < 0
        assert not bad.any(), f"negative counter at slot {live_idx[bad][0]}"
        weight = int((counts & _LOW32).sum())
        weight += int((counts >> 32).sum()) << 32
        assert weight == self._events, (
            f"tree weight {weight} != events {self._events}"
        )

        # Merge caches, over the preorder rows.
        pre = self._preorder(
            live_idx, np.int64 if self._events <= _INT64_MAX else object
        )
        minima = pre.inclusive.copy()
        bounds = pre.level_bounds
        for level in range(bounds.size - 2, 0, -1):
            rows = pre.by_level[bounds[level] : bounds[level + 1]]
            np.minimum.at(minima, pre.parent_row[rows], minima[rows])
        clean = ~self._dirty[pre.slots]
        bad = clean[pre.parent_row[1:]] & ~clean[1:]
        assert not bad.any(), (
            f"clean node has dirty child at slot {pre.slots[1:][bad][0]}"
        )
        bad = clean & (self._cached_weight[pre.slots] != pre.inclusive)
        assert not bad.any(), (
            f"clean slot {pre.slots[bad][0]} caches weight "
            f"{self._cached_weight[pre.slots][bad][0]} "
            f"!= actual {pre.inclusive[bad][0]}"
        )
        bad = clean & (self._cached_min[pre.slots] != minima)
        assert not bad.any(), (
            f"clean slot {pre.slots[bad][0]} caches min "
            f"{self._cached_min[pre.slots][bad][0]} != actual {minima[bad][0]}"
        )

        self._sync_cover()
        expected_starts = self._cov_starts
        expected_owner = self._cov_owner
        self._rebuild_cover()
        assert np.array_equal(expected_starts, self._cov_starts) and (
            np.array_equal(expected_owner, self._cov_owner)
        ), "cover index diverged from tree structure"

    def __len__(self) -> int:
        return self._node_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarRapTree(R={self._config.range_max}, "
            f"eps={self._config.epsilon}, nodes={self._node_count}, "
            f"events={self._events})"
        )
