"""Shard worker process: a columnar tree in shared memory.

``worker_main`` is the entry point the process executor spawns once per
shard. The worker owns a :class:`~repro.core.columnar.ColumnarRapTree`
whose columns live in a :class:`~repro.runtime.shm.ShmArena` (so the
parent can attach them zero-copy at fold time), confines it to itself,
and consumes the partitioned event stream through a shared-memory SPSC
ring (:class:`~repro.runtime.ring.RingConsumer`). Data frames arrive as
binary counted frames (:mod:`repro.core.serialize`), decoded as
read-only ndarray *views* over ring memory — zero copies until the
combining flush.

Frames are *buffered*, not ingested one by one: the worker runs the
shard's ingest stage (:class:`repro.core.combine.IngestStage`, the same
stage the serial executor runs on the calling thread), which
duplicate-combines whole windows of frames before the tree sees them —
the paper's event-combining buffer (Section 3.3, stage 0). The stage
flushes when its window fills and the worker flushes it at every sync,
so flush points are a pure function of the frame sequence (ring order =
producer dispatch order): repeat runs build bit-identical trees, and a
serial profiler given the same calls, each followed by a sync, builds
the same shards. An ingest failure is remembered, every later data
frame is dropped, and the failure is surfaced on the next sync.

Sync markers travel *in-band* through the ring, so they order behind
every data frame by construction. A sync flushes the buffer and replies
``("synced", payload)`` on the control pipe; the payload carries the
shared-memory segment table, the tree's scalar state
(:meth:`~repro.core.columnar.ColumnarRapTree.column_state`), ingest
statistics, the recorded failure (if any), the worker sanitizer's
report and the sync frame's sequence number.

The duplex control pipe carries only low-rate messages:

``("ready", problem)`` (worker → parent)
    Sent once the tree is built and the ingest path warmed. ``problem``
    is ``None``, or a message saying the shared-memory column arena
    could not be created — the parent then reaps every worker and runs
    its serial executor instead.
``("wake",)`` (parent → worker)
    Nudge: the producer wrote into an empty ring.
``("exit",)`` (parent → worker)
    Tear down: drop the tree, unlink every shared-memory segment,
    reply ``("bye",)`` and return. The reply comes *after* the unlink,
    so a parent that has seen it knows ``/dev/shm`` is clean.

The worker never touches the parent's locks; backpressure lives
entirely on the producer side of the ring. If the pipe dies (parent
crash), the worker cleans up its segments and exits — the arena is
unlinked on every path out of :func:`worker_main`.
"""

from __future__ import annotations

import gc
import traceback
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..core.combine import IngestStage
from ..core.config import RapConfig
from ..core.columnar import ColumnarRapTree  # noqa: RAP-LINT012 - the worker owns its shard kernel: the shm allocator hook and column_state/attach protocol are columnar-only by design
from ..core.serialize import FRAME_SYNC
from .ring import RingConsumer
from .shm import ShmArena, ShmAttachment

# How long the ring consumer parks on the control pipe when the ring is
# empty. The producer nudges the pipe ("wake") whenever it writes into
# an empty ring, so this timeout is only a lost-wakeup backstop — it
# bounds the worst-case latency of noticing an in-band frame after a
# nudge raced the park, not the steady-state latency (which is the
# nudge itself).
_RING_IDLE_POLL = 0.05


def _warm_ingest_path(config: RapConfig) -> None:
    """Drive the ingest stage once on a scratch tree (then drop it).

    Runs the code the first real flushes run — cross-frame combining,
    the offline bootstrap build, the online counted kernel — over a
    tiny synthetic stream on heap-backed columns. Purely a warm-up:
    nothing escapes, and the profiler's trees are untouched.
    """
    try:
        span = min(4096, config.range_max)
        stage = IngestStage(ColumnarRapTree(config))
        stage.push((np.arange(2048, dtype=np.uint64) * 7) % span)
        stage.push(np.arange(8, dtype=np.uint64), np.ones(8, np.int64))
        stage.flush()
        stage.push(np.arange(16, dtype=np.uint64), np.full(16, 2, np.int64))
        stage.flush()
    except BaseException:
        # Best-effort by definition: a failed warm-up must never take
        # the worker down — the real stream decides what actually fails.
        pass


def worker_main(
    conn: Any,
    config: RapConfig,
    shard_index: int,
    shm_prefix: str,
    ring_table: Dict[str, Tuple[str, str, int, int]],
) -> None:
    """Run one shard worker until ``exit`` or pipe loss.

    ``conn`` is the worker end of a duplex pipe; ``config`` is the
    (epsilon-adjusted) shard tree configuration; ``shm_prefix`` names
    this worker's shared-memory namespace; ``ring_table`` is the
    parent-allocated ring region's segment table.
    """
    label = f"shard[{shard_index}]"
    arena: Optional[ShmArena] = None
    try:
        arena = ShmArena(f"{shm_prefix}s{shard_index}-")
        tree = ColumnarRapTree(config, allocator=arena.allocate)
    except OSError as error:
        # No usable POSIX shared memory for the columns: say so on the
        # ready handshake and leave; the parent runs serial instead.
        if arena is not None:
            arena.close()
        _send_quietly(
            conn, ("ready", f"shard {shard_index} column arena: {error}")
        )
        _send_quietly(conn, ("bye",))
        conn.close()
        return

    sanitizer = None
    if config.debug_sanitize:
        # Lazy import, same reasoning as the profiler: the runtime must
        # stay importable without the checks package.
        from ..checks.sanitizer import RapSanitizer

        sanitizer = RapSanitizer()
        sanitizer.attach_tree(tree, label)
    tree.confine_to_current_thread()

    # Warm the ingest path on a throwaway heap tree before reporting
    # ready: the first pass through the combining/bootstrap code in a
    # fresh process pays interpreter specialization and allocator
    # cold-start costs that belong to open(), not to the first
    # ingest's latency. The parent waits for the ``ready`` below, so
    # all of this happens before it dispatches a single frame.
    _warm_ingest_path(config)
    _send_quietly(conn, ("ready", None))

    failed: Optional[str] = None
    stage = IngestStage(tree)

    def guarded(step: Callable[..., None], *args: Any) -> None:
        # A failure is remembered, reported on the next sync, and every
        # later data frame is dropped unprocessed. The stage empties its
        # window before it combines, so a failed flush holds nothing.
        nonlocal failed
        if failed is None:
            try:
                step(*args)
            except BaseException:
                failed = traceback.format_exc()

    def ring_loop(consumer: RingConsumer) -> None:
        # Data and sync frames arrive in-band through the ring; the
        # pipe is polled only when the ring runs empty, and then with a
        # timeout, so a "wake" nudge (or the backstop timeout) gets the
        # worker back onto the ring. Frames are *views* into ring
        # memory: the ring bytes are released as soon as the stage
        # holds none of them (after a flush), or copied aside
        # (``materialize``) if the buffered window starts crowding the
        # producer.
        nonlocal failed
        congested = consumer.capacity // 2
        while True:
            frame = consumer.try_next()
            if frame is not None:
                if frame.kind == FRAME_SYNC:
                    guarded(stage.flush)
                    consumer.release()
                    conn.send((
                        "synced",
                        _sync_payload(
                            label, tree, arena, failed, sanitizer,
                            frame.sequence,
                        ),
                    ))
                    continue
                guarded(stage.push, frame.values, frame.counts)
                if not stage.frames_held:
                    consumer.release()
                elif consumer.bytes_held > congested:
                    stage.materialize()
                    consumer.release()
                continue
            try:
                if not conn.poll(_RING_IDLE_POLL):
                    # Idle a full poll period with ring bytes still
                    # pinned by buffered views: copy them aside and
                    # free the space. Without this a producer whose
                    # next frame needs more than the unpinned
                    # remainder (large frame, small ring) would wait
                    # on a consumer that is parked waiting for it —
                    # a standoff neither side can break.
                    if consumer.bytes_held:
                        stage.materialize()
                        consumer.release()
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                return
            kind = message[0]
            if kind == "exit":
                return
            if kind != "wake":  # pragma: no cover - protocol bug, not a data path
                failed = f"unknown worker control {kind!r}"

    ring_attachment: Optional[ShmAttachment] = None
    try:
        ring_attachment = ShmAttachment(ring_table)
        ring_loop(RingConsumer(ring_attachment.arrays["ring"]))
    finally:
        tree.unconfine()
        # Drop every ndarray/memoryview export over the arena's buffers
        # before unlinking, so the segments can actually close. The
        # sanitizer's method wrappers form a reference cycle with the
        # tree, so a collect is needed to actually release the views.
        del tree, stage
        gc.collect()
        arena.close()
        if ring_attachment is not None:
            ring_attachment.close()
        _send_quietly(conn, ("bye",))
        conn.close()


def _send_quietly(conn: Any, message: Tuple[object, ...]) -> None:
    """Send on the control pipe; a parent that is gone is not an error."""
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):
        pass


def _sync_payload(
    label: str,
    tree: ColumnarRapTree,
    arena: ShmArena,
    failed: Optional[str],
    sanitizer: Any,
    sync_seq: int,
) -> Dict[str, object]:
    # A quiescent point: slabs retired by column growth can close now.
    arena.reap_retired()
    stats = tree.stats
    return {
        "label": label,
        "table": arena.segment_table(),
        "state": tree.column_state(),
        "events": tree.events,
        "node_count": tree.node_count,
        "splits": stats.splits,
        "merge_batches": stats.merge_batches,
        "error": failed,
        "sanitizer": sanitizer.report() if sanitizer is not None else None,
        "sync_seq": sync_seq,
    }
