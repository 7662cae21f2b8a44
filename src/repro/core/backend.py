"""The shared contract between interchangeable tree kernels.

``RapConfig(backend=...)`` selects which kernel
:meth:`repro.core.tree.RapTree.from_config` constructs. Every backend —
the linked ``RapNode`` object graph in :mod:`repro.core.tree` and the
struct-of-arrays kernel in :mod:`repro.core.columnar` — implements the
:class:`TreeBackend` protocol below, and the rest of the system
(serialization v2, :func:`repro.core.combine.combine_many`, the
:class:`repro.checks.audit.TreeAuditor`, the :mod:`repro.runtime`
Profiler shards) talks only to this surface.

The contract is *observational equivalence*, not shared code: for the
same operation sequence every backend must produce the identical
serialized tree (``dump_tree``), the identical estimates, and the same
merge-schedule state. ``tests/core/test_columnar_equivalence.py`` sweeps
this property; ``tests/core/test_tree_fastpath.py`` pins the reference
semantics that both backends must reproduce.
"""

from __future__ import annotations

from typing import (
    Iterable,
    Iterator,
    List,
    Protocol,
    Tuple,
    runtime_checkable,
)

from .config import MergeScheduler, RapConfig
from .node import RapNode
from .stats import TreeStats


@runtime_checkable
class TreeBackend(Protocol):
    """Structural protocol every RAP tree kernel implements.

    Mirrors the public mutating/query surface of
    :class:`repro.core.tree.RapTree`. ``root``/``nodes()``/``leaves()``
    expose the profile as linked :class:`~repro.core.node.RapNode`
    objects — a backend that does not store the tree that way (the
    columnar kernel) materializes an equivalent read-only view, so
    serializers, auditors and folds walk every backend identically.
    """

    # -- identity ------------------------------------------------------
    @property
    def config(self) -> RapConfig: ...

    @property
    def root(self) -> RapNode: ...

    @property
    def events(self) -> int: ...

    @property
    def node_count(self) -> int: ...

    @property
    def stats(self) -> TreeStats: ...

    @property
    def mutation_generation(self) -> int: ...

    @property
    def merge_scheduler(self) -> MergeScheduler: ...

    # -- updates -------------------------------------------------------
    def add(self, value: int, count: int = 1) -> None: ...

    def extend(self, values: Iterable[int]) -> None: ...

    def add_counted(self, pairs: Iterable[Tuple[int, int]]) -> None: ...

    def add_batch(self, pairs: Iterable[Tuple[int, int]]) -> None: ...

    def merge_now(self) -> int: ...

    # -- queries -------------------------------------------------------
    def estimate(self, lo: int, hi: int) -> int: ...

    def estimate_upper(self, lo: int, hi: int) -> int: ...

    def nodes(self) -> Iterator[RapNode]: ...

    def leaves(self) -> Iterator[RapNode]: ...

    def heavy_leaves(self, min_weight: float) -> List[Tuple[int, int, int]]:
        """``(lo, hi, count)`` of leaves with ``count >= min_weight``,
        heaviest first, equal counts in ``lo`` order."""
        ...

    def total_weight(self) -> int: ...

    def memory_bytes(self, bits_per_node: int = 128) -> int:
        """Bytes this backend actually holds for the profile.

        Backend-specific by design: the object backend reports the
        paper's per-node model (its Python objects have no meaningful
        hardware analogue), the columnar backend reports real column
        allocation including free-list slack. Cross-backend analyses
        that mean the *paper's* figure must use
        :meth:`modeled_memory_bytes`, which is identical everywhere.
        """
        ...

    def modeled_memory_bytes(self, bits_per_node: int = 128) -> int:
        """The paper's memory model: ``node_count`` × 128 bits (§4.2).

        Identical on every backend — this is what figure 7 and the
        accuracy/memory trade-off analyses plot.
        """
        ...

    # -- runtime hooks -------------------------------------------------
    def clone(self) -> "TreeBackend": ...

    # -- validation ----------------------------------------------------
    def audit(self) -> None: ...

    def check_invariants(self) -> None: ...
