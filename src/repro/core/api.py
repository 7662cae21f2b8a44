"""The paper's C-style software API — now a deprecation shim (API v2).

The authors shipped a C++ library with three entry points —
``rap_init()``, ``rap_add_points()`` and ``rap_finalize()`` — usable
both online and for post-processing trace files. This module keeps that
surface working, but since API v2 it is a thin shim over
:class:`repro.runtime.Profiler` (single-shard, serial executor: exactly
the old single-tree behavior) and every call emits a
``DeprecationWarning`` with a migration hint:

=========================  ============================================
v1 call                    v2 replacement
=========================  ============================================
``rap_init(R, eps)``       ``Profiler.from_config(RapConfig(R,``
                           ``epsilon=eps), executor="serial").open()``
``rap_add_points(p, xs)``  ``profiler.ingest(xs)`` /
                           ``profiler.ingest_counted(pairs)``
``rap_finalize(p)``        ``profiler.close()`` + ``profiler.metrics``
                           + ``profiler.hot_ranges()``
=========================  ============================================

The shim preserves the v1 observable contract: ``profile.trees`` /
``profile.tree(name)`` expose the live trees, finalizing runs one last
merge batch per non-empty tree, and adding after finalize raises
``RuntimeError``. Two behavioral notes. The live trees are now
columnar (``ColumnarRapTree``, the runtime's only shard kernel), which
serializes and answers exactly like v1's ``RapTree``. And every
``rap_add_points`` batch goes through ``Profiler.ingest_counted``, so
its points pass through the profiler's ingest stage
(:class:`repro.core.combine.IngestStage`): duplicate-combined (counts
of equal values summed) and value-sorted in windows, the first of
which builds the fresh tree offline. That changes split/merge
*timing* relative to v1's strictly sequential ``add()`` loop — every
count, estimate and the ``epsilon * n`` bound is unaffected.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from .config import RapConfig
from .hot_ranges import DEFAULT_HOT_FRACTION, HotRange, find_hot_ranges
from .serialize import dump_tree
from .tree import RapTree

if TYPE_CHECKING:  # runtime builds on core; import only for annotations
    from ..runtime import Profiler


def _deprecated(old: str, hint: str) -> None:
    warnings.warn(
        f"{old} is deprecated; {hint} (see the API v2 migration table "
        "in README.md)",
        DeprecationWarning,
        stacklevel=3,
    )


@dataclass
class RapProfile:
    """Handle returned by :func:`rap_init`: named single-shard Profilers.

    ``rap_init`` "initializes data structures to enable profiling
    multiple events simultaneously" — e.g. one tree over PCs and one
    over load values fed from the same instruction stream. Since API v2
    each named profile is a serial single-shard
    :class:`repro.runtime.Profiler`; :attr:`trees` exposes the live
    trees for compatibility.
    """

    profilers: Dict[str, "Profiler"] = field(default_factory=dict)
    finalized: bool = False

    @property
    def trees(self) -> Dict[str, RapTree]:
        """Live tree per profile name (v1 compatibility view)."""
        return {
            name: profiler.shard_trees()[0]
            for name, profiler in self.profilers.items()
        }

    def tree(self, name: str = "default") -> RapTree:
        try:
            profiler = self.profilers[name]
        except KeyError:
            raise KeyError(
                f"no profile named {name!r}; "
                f"available: {sorted(self.profilers)}"
            ) from None
        return profiler.shard_trees()[0]


def rap_init(
    range_max: Union[int, Dict[str, int]],
    epsilon: float = 0.01,
    branching: int = 4,
    **config_overrides: object,
) -> RapProfile:
    """Create a RAP profile (Section 3.2's ``rap_init``). Deprecated.

    Parameters
    ----------
    range_max:
        Either a single universe size (creates one profile named
        ``"default"``) or a mapping ``{profile_name: universe_size}`` to
        profile multiple event kinds simultaneously.
    epsilon, branching, config_overrides:
        Forwarded to :class:`~repro.core.config.RapConfig`.
    """
    _deprecated(
        "rap_init()",
        "use Profiler.from_config(RapConfig(range_max, epsilon=...), "
        "executor='serial').open()",
    )
    from ..runtime import Profiler  # lazy: runtime builds on core

    if isinstance(range_max, int):
        universes = {"default": range_max}
    else:
        universes = dict(range_max)
        if not universes:
            raise ValueError("rap_init needs at least one profile universe")
    profile = RapProfile()
    for name, universe in universes.items():
        config = RapConfig(
            range_max=universe,
            epsilon=epsilon,
            branching=branching,
            **config_overrides,  # type: ignore[arg-type]
        )
        profile.profilers[name] = Profiler.from_config(
            config, shards=1, executor="serial"
        ).open()
    return profile


def rap_add_points(
    profile: RapProfile,
    points: Iterable[Union[int, Tuple[int, int]]],
    name: str = "default",
) -> None:
    """Feed events into one of the profile's trees. Deprecated.

    Accepts plain values or ``(value, count)`` pairs (the latter
    matching the combining event buffer); both are routed through the
    owning Profiler's counted-ingest path, which combines duplicates.
    """
    _deprecated(
        "rap_add_points()",
        "use Profiler.ingest(values) or Profiler.ingest_counted(pairs)",
    )
    if profile.finalized:
        raise RuntimeError("profile already finalized")
    if name not in profile.profilers:
        profile.tree(name)  # raises the v1 KeyError with available names
    pairs: List[Tuple[int, int]] = []
    for point in points:
        if isinstance(point, tuple):
            value, count = point
            pairs.append((value, count))
        else:
            pairs.append((point, 1))
    profile.profilers[name].ingest_counted(pairs)


@dataclass(frozen=True)
class RapSummary:
    """Result of :func:`rap_finalize` for one tree."""

    name: str
    events: int
    node_count: int
    max_nodes: int
    average_nodes: float
    splits: int
    merge_batches: int
    hot_ranges: List[HotRange]
    dump: str


def rap_finalize(
    profile: RapProfile,
    hot_fraction: float = DEFAULT_HOT_FRACTION,
    dump_path: Optional[str] = None,
) -> Dict[str, RapSummary]:
    """Finalize the profile and derive stream statistics. Deprecated.

    Runs a final merge batch on every non-empty tree (so memory reflects
    the pruned state), closes each underlying Profiler, extracts hot
    ranges, and produces the ASCII dump. If ``dump_path`` is given, each
    tree's dump is written to ``<dump_path>.<name>.rap``.
    """
    _deprecated(
        "rap_finalize()",
        "use Profiler.close(), then Profiler.metrics / "
        "Profiler.hot_ranges() / repro.core.serialize.dump_tree()",
    )
    summaries: Dict[str, RapSummary] = {}
    for name, profiler in profile.profilers.items():
        tree = profiler.shard_trees()[0]
        if tree.events:
            tree.merge_now()
        profiler.close()
        dump = dump_tree(tree)
        if dump_path is not None:
            with open(f"{dump_path}.{name}.rap", "w", encoding="ascii") as fh:
                fh.write(dump)
        summaries[name] = RapSummary(
            name=name,
            events=tree.events,
            node_count=tree.node_count,
            max_nodes=tree.stats.max_nodes,
            average_nodes=tree.stats.average_nodes,
            splits=tree.stats.splits,
            merge_batches=tree.stats.merge_batches,
            hot_ranges=find_hot_ranges(tree, hot_fraction),
            dump=dump,
        )
    profile.finalized = True
    return summaries
