"""Exact oracle and process hygiene checks.

The paper's contract for a snapshot over ``n`` events: no range is
overcounted, and no node's range is undercounted by more than
``epsilon * n`` (``shard_epsilon * n`` once shards are folded). The
oracle checks every snapshot node, every hot range and every range
query against exact counts taken with ``searchsorted`` from the sorted
stream — sorted per ingest chunk, so any prefix a live answer saw is a
list of sorted parts.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import List, Sequence, Tuple

import numpy as np

SHM_DIR = "/dev/shm"


def exact_counts(
    parts: Sequence[np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Exact number of events in each ``[lo[i], hi[i]]`` over ``parts``."""
    total = np.zeros(len(lo), dtype=np.int64)
    for part in parts:
        total += np.searchsorted(part, hi, side="right")
        total -= np.searchsorted(part, lo, side="left")
    return total


def node_table(tree) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lo, hi, estimate)`` of every snapshot node.

    A node's estimate for its own range is its subtree weight — the
    lower bound the paper guarantees (and what ``hot_ranges`` reports).
    """
    los: List[int] = []
    his: List[int] = []
    estimates: List[int] = []

    def visit(node) -> int:
        weight = node.count + sum(visit(child) for child in node.children)
        los.append(node.lo)
        his.append(node.hi)
        estimates.append(weight)
        return weight

    visit(next(iter(tree.nodes())))
    return (
        np.asarray(los, dtype=np.uint64),
        np.asarray(his, dtype=np.uint64),
        np.asarray(estimates, dtype=np.int64),
    )


def check_answer(
    snapshot,
    hot: Sequence[Tuple[int, int, int]],
    queries: np.ndarray,
    estimates: Sequence[int],
    parts: Sequence[np.ndarray],
    events: int,
    epsilon: float,
) -> Tuple[List[str], float]:
    """Check one answer over the first ``events`` events.

    Returns the violations found (empty when the answer is correct) and
    the worst node undercount as a share of ``events``.
    """
    problems: List[str] = []
    if snapshot.events != events:
        problems.append(f"snapshot.events={snapshot.events}, expected {events}")
    lo, hi, estimate = node_table(snapshot)
    exact = exact_counts(parts, lo, hi)
    over = np.flatnonzero(estimate > exact)
    if len(over):
        first = over[0]
        problems.append(
            f"{len(over)} node(s) overcounted, e.g. [{lo[first]}, {hi[first]}] "
            f"estimate {estimate[first]} > exact {exact[first]}"
        )
    undercount = int((exact - estimate).max(initial=0))
    if undercount > epsilon * events:
        problems.append(
            f"node undercount {undercount} exceeds {epsilon} * {events}"
        )
    if len(hot):
        hot_lo = np.asarray([item[0] for item in hot], dtype=np.uint64)
        hot_hi = np.asarray([item[1] for item in hot], dtype=np.uint64)
        hot_est = np.asarray([item[2] for item in hot], dtype=np.int64)
        if (hot_est > exact_counts(parts, hot_lo, hot_hi)).any():
            problems.append("a hot range is overcounted")
    query_exact = exact_counts(parts, queries[:, 0], queries[:, 1])
    if (np.asarray(estimates, dtype=np.int64) > query_exact).any():
        problems.append("a range query is overcounted")
    return problems, undercount / events


def hygiene_problems() -> List[str]:
    """Leaks a closed process-executor profiler must not leave behind.

    Every segment a ``Profiler`` and its workers create is named
    ``rap-<creating pid in hex>-...``; none may outlive ``close()``.
    """
    problems = []
    prefix = f"rap-{os.getpid():x}-"
    try:
        segments = sorted(
            entry for entry in os.listdir(SHM_DIR) if entry.startswith(prefix)
        )
    except OSError:
        segments = []
    if segments:
        problems.append(f"leaked shared memory: {', '.join(segments)}")
    children = multiprocessing.active_children()
    if children:
        problems.append(
            "live child processes: "
            + ", ".join(f"{child.name}[{child.pid}]" for child in children)
        )
    return problems
