"""The ``Profiler`` service object: sharded ingestion over RAP trees.

``Profiler`` is the API v2 top-level entry point for profiling a
stream. It owns ``N`` columnar shard trees and a deterministic
partitioner mapping each event value to its shard; the executor decides
where the shard trees live:

.. code-block:: text

    ingest(values)                       calling thread, ingest lock held
        └─ partition (numpy, one pass)
             ├─ serial:  combine_frames ── columnar shard 0..N-1, inline
             └─ process: ring[i] ── worker process i ── columnar shard i
                         (shared memory)  (combine_frames) (shared memory)
    snapshot()  =  quiesce every shard, then fold the shard trees
                   with ``combine_many`` into one consistent tree

The executor is selected uniformly through the config —
``RapConfig(executor="serial"|"process", shards=N)`` — with the
constructor keywords as call-site overrides:

* ``"serial"`` (default) partitions each chunk, duplicate-combines it
  per shard and applies it inline on the calling thread. Shard trees
  live in this process and are mutated only under the ingest lock.
* ``"process"`` runs one worker process per shard: each worker owns a
  columnar tree whose columns live in shared memory
  (:mod:`repro.runtime.shm`), fed binary
  counted frames through a shared-memory SPSC ring
  (:mod:`repro.runtime.ring`) that carries the block/drop/spill
  backpressure policy. Snapshots attach the quiesced workers' columns
  zero-copy and fold them in the parent. When shared memory turns out
  to be unavailable at ``open()``, the profiler reaps its workers and
  runs as ``"serial"`` instead (with a ``RuntimeWarning``).

Both executors ingest arrays only: a chunk is split with the
partitioner's vectorized assignment and each shard's part is
duplicate-combined by :func:`repro.core.combine.combine_frames` before
``add_counted_arrays`` (the serial executor per chunk, the worker per
combining window); a single serial shard feeds its raw chunk to
``extend``. Shard trees are always columnar, whatever
``config.backend`` says: the object tree builds the identical profile
(``dump_tree`` equality is pinned) and stays the reference oracle in
tests, experiments and the hardware model. Non-integral input (float
or complex data) raises ``TypeError`` before any event of the call is
applied.

Lifecycle: ``open() → ingest()* → snapshot()* → close()``; the object
is also a context manager. ``query(lo, hi)`` is sugar for
``snapshot().estimate(lo, hi)`` (snapshots are cached per epoch, so
repeated queries between ingests fold only once). ``close()`` reaps
every worker — processes exited and their shared-memory segments
unlinked — on all paths, including after a worker failure.

Consistency model: a snapshot is taken on an *epoch boundary* — new
ingests are locked out and, under the process executor, every worker
acknowledges a sync frame that trails its data frames in ring order —
and only then are the shard trees folded. The snapshot therefore
reflects exactly the events accepted before the call, no torn batches.
Under the ``block`` and ``spill`` backpressure policies the shard trees
(and hence every snapshot) are a deterministic function of the
ingested stream; ``drop`` trades that determinism for bounded memory
and latency. Serial ingest is synchronous, so nothing is ever dropped
or spilled there.

Accuracy: each shard undercounts by at most ``eps_shard * n_shard``, so
the folded snapshot undercounts any range by at most
``eps_shard * n_total`` (see :func:`repro.core.combine.combine_many`).
By default shards inherit ``config.epsilon`` and the single-tree bound
``epsilon * n`` carries over verbatim — at the cost of shards splitting
~``N`` times more aggressively in aggregate (each sees ``n/N`` events
against the same epsilon). Passing ``shard_epsilon = N * epsilon``
instead holds the *total* node budget at the single-tree level (each
shard's budget guards ``n/N`` events), with the documented snapshot
bound relaxing to ``shard_epsilon * n_total``.
"""

from __future__ import annotations

import multiprocessing
import operator
import os
import threading
import warnings
from array import array
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.backend import TreeBackend
from ..core.config import RapConfig
from ..core.combine import combine_frames, combine_many
from ..core.serialize import FRAME_BATCH, FRAME_CBATCH
from ..core.tree import RapTree
from .metrics import RuntimeMetrics, ShardMetrics
from .partition import Partitioner, make_partitioner
from .ring import (
    _POLICIES,
    DEFAULT_RING_BYTES,
    MIN_RING_BYTES,
    RingProducer,
    RingStalled,
)
from .shm import ShmArena, ShmAttachment, sweep_prefix

Clock = Callable[[], float]
Values = Union[np.ndarray, Iterable[int]]

#: Constructor keywords that no longer exist, each with its fix. Passing
#: one raises ``TypeError`` carrying this text instead of being ignored.
_REMOVED_KEYWORDS: Dict[str, str] = {
    "threads": (
        "Profiler(threads=N) was removed with the thread executor; use "
        "Profiler(config, shards=N) — executor='serial' builds the same "
        "trees"
    ),
    "transport": (
        "Profiler(transport=...) was removed: the process executor "
        "always moves frames through shared-memory rings and falls back "
        "to executor='serial' when shared memory is unavailable; drop "
        "the keyword"
    ),
    "queue_capacity": (
        "Profiler(queue_capacity=...) was removed with the shard "
        "queues: serial ingest is synchronous and the process "
        "executor's bound is ring_bytes=; drop the keyword"
    ),
}

#: How long (seconds) to poll a live worker for a protocol reply before
#: re-checking liveness, and how long to wait for voluntary exit before
#: escalating to terminate/kill. Generous — a live worker replies as
#: soon as it drains the frames ahead of the request.
_POLL_INTERVAL = 0.1
_EXIT_GRACE = 5.0

#: Value dtypes the binary frame format carries natively.
_FRAME_DTYPES = (np.dtype("<u8"), np.dtype("<i8"))


def _integer_column(items: Values, what: str) -> np.ndarray:
    """``items`` as an integer ndarray, refusing non-integral data.

    The profiler's one array boundary: a fractional value or count
    would otherwise be truncated silently by a cast further down (the
    partitioner's, a frame's), so float or complex data raises
    ``TypeError`` here, before any event of the call is applied. Lists
    convert exactly: ``int64`` when every item fits, otherwise whatever
    ``np.asarray`` infers, or Python ints (``object``) where numpy's
    inference would fall back to float. Range checks stay with the
    trees.
    """
    if isinstance(items, np.ndarray):
        column = items
    else:
        items = list(items)
        try:
            return np.frombuffer(array("q", items), dtype=np.int64)
        except (OverflowError, TypeError):
            column = np.asarray(items)
        if column.dtype.kind in "fc":
            try:
                column = np.asarray(
                    [operator.index(item) for item in items], dtype=object
                )
            except TypeError:
                pass
    if column.dtype.kind in "fc":
        raise TypeError(
            f"Profiler {what} must be integers, got {column.dtype} data"
        )
    return column


def _frame_values(part: np.ndarray) -> np.ndarray:
    """Coerce a partitioned slice to a frame-encodable dtype.

    Workload arrays are already ``uint64`` and pass through untouched;
    plain Python lists arrive as ``int64`` (also native). Anything else
    — ``int32``, object arrays of Python ints — is widened once here.
    Values the tree would reject (negatives, past the universe) still
    flow through and fail inside the worker, except
    out-of-``int64``-range object arrays, which are re-tried as
    ``uint64``.
    """
    if part.dtype in _FRAME_DTYPES:
        return part
    if part.dtype.kind == "u":
        return part.astype(np.uint64)
    try:
        return part.astype(np.int64)
    except OverflowError:
        return part.astype(np.uint64)


class WorkerCrashed(RuntimeError):
    """A shard worker process died without completing the protocol.

    Raised by ``drain()``/``snapshot()``/``close()`` instead of hanging
    when a worker was killed (OOM, SIGKILL, crash): carries the shard
    index and exit code so the failure is diagnosable from the message.
    When the shard's ring is live it also carries the ring's frame
    counters — ``committed`` frames published by the producer and
    ``consumed`` frames the worker had taken — pinpointing exactly how
    far the shard's stream got before the crash.
    """

    def __init__(
        self,
        shard: int,
        exitcode: Optional[int],
        doing: str,
        *,
        committed: Optional[int] = None,
        consumed: Optional[int] = None,
    ):
        self.shard = shard
        self.exitcode = exitcode
        self.committed = committed
        self.consumed = consumed
        detail = ""
        if committed is not None:
            detail = (
                f" Ring state at death: {committed} frames committed by "
                f"the producer, {consumed} consumed by the worker."
            )
        super().__init__(
            f"shard {shard} worker process died while {doing} "
            f"(exit code {exitcode}); its accepted events are lost — "
            "the profiler cannot produce a consistent snapshot. "
            "Check worker memory limits and logs; shared-memory "
            "segments are reclaimed on close()." + detail
        )


class Profiler:
    """Sharded RAP profiling service.

    Parameters
    ----------
    config:
        Tree configuration; ``config.epsilon`` is the accuracy target of
        the folded snapshot (see ``shard_epsilon`` for the trade-off).
        ``config.executor`` and ``config.shards`` are the declarative
        defaults for the two runtime knobs below.
    shards:
        Number of shard trees (``>= 1``). ``None`` (default) inherits
        ``config.shards``.
    executor:
        ``None`` (default) inherits ``config.executor``. ``"serial"``
        processes every batch inline on the calling thread —
        deterministic scheduling, no worker to start; ``"process"``
        runs one worker process per shard over shared-memory trees and
        falls back to ``"serial"`` at ``open()`` when shared memory is
        unavailable. Either way the shard trees are columnar; the
        runtime ignores ``config.backend``.
    partition:
        ``"hash"`` (default) or ``"range"`` — see
        :mod:`repro.runtime.partition`.
    shard_epsilon:
        Epsilon each shard profiles at. ``None`` (default) inherits
        ``config.epsilon`` — strict bound, ~N× aggregate node budget.
        ``N * config.epsilon`` keeps the single-tree node budget with an
        ``shard_epsilon * n`` snapshot bound (the equal-memory config
        the multi-shard benchmark uses).
    backpressure:
        Overflow policy of each process-executor shard ring —
        ``"block"`` / ``"drop"`` / ``"spill"`` (see
        :mod:`repro.runtime.ring`). Validated for every executor; the
        serial executor applies batches synchronously, so none ever
        overflows there.
    batch_size:
        Ingest calls chop their input into chunks of this many events
        before partitioning, bounding per-frame memory.
    ring_bytes:
        Size of each shard's shared ring region (counter header
        included). The default (4 MiB) comfortably holds several worker
        combining windows; tests use small rings to exercise
        wrap-around and backpressure.
    clock:
        Optional zero-arg callable returning seconds (e.g.
        ``time.perf_counter`` passed *as a function*). When provided,
        time-shaped metrics are recorded; when ``None`` they stay
        ``0.0`` and every metric is deterministic.

    The removed keywords ``threads=``, ``transport=`` and
    ``queue_capacity=`` raise ``TypeError`` naming their replacement.
    """

    def __init__(
        self,
        config: RapConfig,
        *,
        shards: Optional[int] = None,
        executor: Optional[str] = None,
        partition: str = "hash",
        shard_epsilon: Optional[float] = None,
        backpressure: str = "block",
        batch_size: int = 4096,
        ring_bytes: int = DEFAULT_RING_BYTES,
        clock: Optional[Clock] = None,
        **removed: object,
    ) -> None:
        for name in removed:
            raise TypeError(
                _REMOVED_KEYWORDS.get(
                    name,
                    f"Profiler() got an unexpected keyword argument {name!r}",
                )
            )
        if shards is None:
            shards = config.shards
        if executor is None:
            executor = config.executor
        # Route the resolved knobs through the config's own validation
        # so a bad executor or shard count fails with one message.
        config.with_updates(executor=executor, shards=shards)
        if backpressure not in _POLICIES:
            raise ValueError(
                f"unknown backpressure policy {backpressure!r}; "
                f"expected one of {_POLICIES}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if ring_bytes < MIN_RING_BYTES:
            raise ValueError(
                f"ring_bytes must be >= {MIN_RING_BYTES}, got {ring_bytes}"
            )
        self._config = config
        self._shards = shards
        self._executor = executor
        self._backpressure = backpressure
        self._ring_bytes = ring_bytes
        self._partitioner: Partitioner = make_partitioner(
            partition, shards, config.range_max
        )
        # Shard trees are columnar on every executor: the object tree
        # builds the identical profile, only slower.
        shard_config = config.with_updates(backend="columnar")
        if shard_epsilon is not None:
            shard_config = shard_config.with_updates(epsilon=shard_epsilon)
        self._shard_config = shard_config
        self._batch_size = batch_size
        self._clock = clock
        # created → open → closed
        self._state = "created"
        # Serializes producers against snapshot epochs; under the serial
        # executor it is also the only thing shard trees are mutated
        # under.
        self._ingest_lock = threading.Lock()
        # Optional race sanitizer: wraps the ingest lock and the
        # in-process shard trees with lock-discipline assertions. The
        # process executor runs one more sanitizer *inside* each worker
        # (trees in another address space cannot be wrapped from here)
        # and merges their reports on every sync.
        self._sanitizer = None
        if config.debug_sanitize:
            # Lazy import: checks.sanitizer is a debug facility and the
            # runtime must stay importable without the checks package.
            from ..checks.sanitizer import RapSanitizer

            self._sanitizer = RapSanitizer()
            self._ingest_lock = self._sanitizer.track_lock(
                self._ingest_lock, "Profiler._ingest_lock"
            )
        # In-process shard trees (serial executor). Under the process
        # executor the trees live in the workers; the parent holds
        # per-shard sync state instead.
        self._trees: List[RapTree] = []
        if executor == "serial":
            self._build_trees()
        # Process-executor plumbing: one worker process, control pipe,
        # ring arena and ring producer per shard, plus the latest synced
        # payload. The final producer stats survive teardown for
        # post-close metrics.
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._conns: List = []
        self._ring_arenas: List[ShmArena] = []
        self._rings: List[RingProducer] = []
        self._ring_tables: List[Dict[str, object]] = []
        self._ring_stats: List[Optional[Dict[str, object]]] = [
            None for _ in range(shards)
        ]
        self._shard_states: List[Optional[Dict[str, object]]] = [
            None for _ in range(shards)
        ]
        # Namespace for this profiler's shared-memory segments; close()
        # sweeps it as a crash backstop, so it must exist before open().
        self._shm_prefix = f"rap-{os.getpid():x}-{os.urandom(3).hex()}-"
        self._errors: List[BaseException] = []
        # Per-shard accepted-event / batch counters (producer side).
        self._shard_events = [0] * shards
        self._shard_batches = [0] * shards
        self._snapshots = 0
        self._snapshot_seconds = 0.0
        self._ingest_seconds = 0.0
        self._snapshot_cache: Optional[TreeBackend] = None
        self._snapshot_epoch: Optional[Tuple[int, ...]] = None

    def _build_trees(self) -> None:
        """Create the in-process shard trees (serial executor)."""
        self._trees = [
            RapTree.from_config(self._shard_config)
            for _ in range(self._shards)
        ]
        if self._sanitizer is not None:
            for index, tree in enumerate(self._trees):
                self._sanitizer.attach_tree(
                    tree, f"shard[{index}]", guard="Profiler._ingest_lock"
                )

    @classmethod
    def from_config(cls, config: RapConfig, **options: object) -> "Profiler":
        """API v2 constructor; ``options`` are the keyword knobs above."""
        return cls(config, **options)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def config(self) -> RapConfig:
        return self._config

    @property
    def shards(self) -> int:
        return self._shards

    @property
    def executor(self) -> str:
        """The executor this profiler runs on.

        After ``open()`` this reflects a fallback from ``"process"`` to
        ``"serial"`` when shared memory was unavailable.
        """
        return self._executor

    @property
    def closed(self) -> bool:
        return self._state == "closed"

    @property
    def sanitizer(self):
        """The attached RapSanitizer, or None when ``debug_sanitize`` is off."""
        return self._sanitizer

    def open(self) -> "Profiler":
        """Start the runtime (spawns the workers under ``"process"``).

        Shared memory unavailable — an ``OSError`` allocating the
        parent's rings, or a worker reporting that its column arena
        failed — is handled here, once: the workers are reaped, this
        profiler's ``/dev/shm`` namespace is swept, and the profiler
        runs as ``"serial"`` with in-process shard trees, emitting a
        ``RuntimeWarning``.
        """
        if self._state != "created":
            raise RuntimeError(f"cannot open a {self._state} Profiler")
        if self._executor == "process":
            try:
                self._setup_rings()
            except OSError as error:
                problem: Optional[str] = f"ring allocation failed: {error}"
            else:
                problem = self._spawn_processes()
            if problem is not None:
                self._reap_processes()
                self._fall_back_to_serial(problem)
        self._state = "open"
        return self

    def _fall_back_to_serial(self, problem: str) -> None:
        warnings.warn(
            f"shared memory is unavailable ({problem}); this Profiler "
            "runs executor='serial' instead of 'process'",
            RuntimeWarning,
            stacklevel=3,
        )
        self._executor = "serial"
        self._ring_stats = [None for _ in range(self._shards)]
        self._build_trees()

    def _setup_rings(self) -> None:
        """Allocate one shared ring region + producer per shard.

        Runs before the workers fork so both sides see the segments.
        An ``OSError`` here means this host has no usable POSIX shared
        memory; ``open()`` turns it into the serial fallback.
        """
        for shard in range(self._shards):
            arena = ShmArena(f"{self._shm_prefix}r{shard}-")
            self._ring_arenas.append(arena)
            region = arena.allocate("ring", np.uint8, self._ring_bytes)
            self._rings.append(
                RingProducer(
                    region,
                    policy=self._backpressure,
                    liveness=self._worker_alive(shard),
                    on_wake=self._nudger(shard),
                    clock=self._clock,
                )
            )
            self._ring_tables.append(arena.segment_table())

    def _worker_alive(self, shard: int) -> Callable[[], bool]:
        def alive() -> bool:
            if shard >= len(self._processes):
                return True  # not spawned yet — nothing to be dead
            return self._processes[shard].is_alive()

        return alive

    def _nudger(self, shard: int) -> Callable[[], None]:
        # Edge-triggered wakeup: the producer calls this when it writes
        # into an *empty* ring, so a worker parked on its control pipe
        # re-checks the ring immediately instead of after the poll
        # timeout. Low rate by construction (one nudge per
        # empty-to-non-empty transition, not per frame).
        def nudge() -> None:
            if shard >= len(self._conns):
                return
            try:
                self._conns[shard].send(("wake",))
            except (BrokenPipeError, OSError):
                pass  # a dead worker surfaces via liveness, not here

        return nudge

    def _teardown_rings(self) -> None:
        """Drop producers and unlink ring arenas (idempotent).

        Producer views must die before the arena mappings close; the
        final counters are snapshotted first so :attr:`metrics` keeps
        reporting transport stalls after close().
        """
        for shard, producer in enumerate(self._rings):
            self._ring_stats[shard] = {
                "transport_stalls": producer.stalls,
                "transport_stall_s": producer.stall_seconds,
                "ring_peak_bytes": producer.peak_bytes,
                "dropped_batches": producer.dropped_batches,
                "dropped_events": producer.dropped_events,
                "spilled_batches": producer.spilled_batches,
            }
        self._rings = []
        self._ring_tables = []
        for arena in self._ring_arenas:
            arena.close()
        self._ring_arenas = []

    def _spawn_processes(self) -> Optional[str]:
        """Fork one worker per shard and wait for every ``ready``.

        Fork context when the platform offers it (cheap, inherits the
        loaded interpreter; safe here because no profiler threads are
        running), spawn otherwise. Workers are daemonic so a crashed
        parent cannot leave orphans ingesting forever. Returns the
        first worker's report that its shared-memory column arena
        failed, or ``None`` when every worker is ready to ingest.
        """
        # Lazy import: the worker module necessarily names the columnar
        # kernel.
        from .worker import worker_main

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        try:
            for shard in range(self._shards):
                parent_conn, worker_conn = ctx.Pipe(duplex=True)
                process = ctx.Process(
                    target=worker_main,
                    args=(
                        worker_conn,
                        self._shard_config,
                        shard,
                        self._shm_prefix,
                        self._ring_tables[shard],
                    ),
                    name=f"rap-shard-{shard}",
                    daemon=True,
                )
                process.start()
                worker_conn.close()  # parent keeps only its own end
                self._processes.append(process)
                self._conns.append(parent_conn)
            # Wait for every worker's ready handshake (sent after it
            # has built its tree and warmed its ingest path), so
            # open() returns a runtime that is actually ready to
            # ingest — start-up cost lands here, not inside the first
            # ingest/drain. Waiting after starting them all lets the
            # warm-ups overlap across workers.
            problems = [
                self._recv_reply(shard, "ready")
                for shard in range(self._shards)
            ]
        except BaseException:
            self._reap_processes()
            raise
        return next((problem for problem in problems if problem), None)

    def __enter__(self) -> "Profiler":
        return self.open()

    def __exit__(self, *exc_info: object) -> None:
        if self._state == "open":
            self.close()

    def close(self) -> TreeBackend:
        """Drain every shard, stop workers, return the final snapshot.

        After ``close()`` the profiler accepts no more events;
        ``snapshot()`` and ``query()`` keep answering from the final
        fold. Worker teardown is unconditional: even when a shard
        failed mid-ingest and this raises, every worker process is
        exited (terminated if it will not go) and every shared-memory
        segment is unlinked.
        """
        if self._state == "closed":
            if self._snapshot_cache is None:
                raise RuntimeError(
                    "Profiler was closed after a worker failure; "
                    "no final snapshot exists"
                )
            return self._snapshot_cache
        if self._state != "open":
            raise RuntimeError("cannot close a Profiler that was never opened")
        with self._ingest_lock:
            try:
                if self._executor == "process":
                    self._sync_workers()
                self._raise_worker_errors()
                return self._fold_locked()
            finally:
                self._state = "closed"
                self._reap_processes()

    def _reap_processes(self) -> None:
        """Exit, join and if necessary kill every worker process.

        Ends with a sweep of this profiler's shared-memory namespace:
        workers unlink their own segments on a clean exit, so the sweep
        normally removes nothing — it exists for killed workers. Safe
        to call repeatedly and on partially-constructed state.
        """
        if self._executor != "process":
            return
        for conn in self._conns:
            try:
                conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        for shard, conn in enumerate(self._conns):
            # Wait for the goodbye (sent *after* the worker unlinks its
            # segments) so a clean shutdown leaves /dev/shm empty the
            # moment close() returns; a dead worker just times out.
            process = self._processes[shard]
            waited = 0.0
            try:
                while waited < _EXIT_GRACE:
                    if conn.poll(_POLL_INTERVAL):
                        if conn.recv()[0] == "bye":
                            break
                    elif not process.is_alive():
                        break
                    else:
                        waited += _POLL_INTERVAL
            except (EOFError, OSError):
                pass
        for process in self._processes:
            process.join(_EXIT_GRACE)  # noqa: RAP-LINT016 - worker processes live in another address space and cannot take this lock
            if process.is_alive():
                process.terminate()
                process.join(_EXIT_GRACE)  # noqa: RAP-LINT016 - bounded wait on a terminated process; no lock interaction possible
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(_EXIT_GRACE)  # noqa: RAP-LINT016 - bounded wait on a killed process; no lock interaction possible
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._processes = []
        self._conns = []
        self._teardown_rings()
        sweep_prefix(self._shm_prefix)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest(self, values: Values) -> None:
        """Feed raw event values (any iterable of ints or numpy array).

        Values are chopped into chunks of ``batch_size`` and partitioned
        to shards. The serial executor duplicate-combines each shard's
        part and applies it inline; the process executor writes the raw
        parts into the shard rings. Returns once every chunk is
        accepted — which, under ``block`` backpressure, may wait for
        ring space. Float or complex data raises ``TypeError``.
        """
        self._check_ingestible()
        column = _integer_column(values, "event values")
        clock = self._clock
        start = clock() if clock is not None else 0.0
        with self._ingest_lock:
            self._check_ingestible()
            step = self._batch_size
            for at in range(0, len(column), step):
                self._dispatch_chunk(column[at:at + step])
        if clock is not None:
            self._ingest_seconds += clock() - start

    def ingest_counted(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Feed pre-combined ``(value, count)`` pairs.

        Duplicate values are combined (their counts summed) before they
        reach a shard tree, exactly like a chunk of raw events. Float or
        complex values or counts raise ``TypeError``.
        """
        self._check_ingestible()
        items = list(pairs)
        values = _integer_column([value for value, _ in items], "values")
        counts = _integer_column([count for _, count in items], "counts")
        if counts.dtype != np.int64:
            raise OverflowError(
                "Profiler counts must fit the shard trees' int64 counters"
            )
        clock = self._clock
        start = clock() if clock is not None else 0.0
        with self._ingest_lock:
            self._check_ingestible()
            assignment = self._partitioner.assign(values)
            for shard in range(self._shards):
                mine = assignment == shard
                if mine.any():
                    self._deliver(shard, values[mine], counts[mine])
        if clock is not None:
            self._ingest_seconds += clock() - start

    def _dispatch_chunk(self, chunk: np.ndarray) -> None:
        if self._executor == "serial" and self._shards == 1:
            # Single-shard passthrough: no partition, no combine — the
            # same per-event path a bare tree takes (and the honest
            # baseline the multi-shard benchmark compares against).
            self._trees[0].extend(chunk)
            self._shard_events[0] += len(chunk)
            self._shard_batches[0] += 1
            return
        for shard, part in enumerate(self._partitioner.split(chunk)):
            if len(part):
                self._deliver(shard, part, None)

    def _deliver(
        self, shard: int, values: np.ndarray, counts: Optional[np.ndarray]
    ) -> None:
        """Hand one shard's part (raw when ``counts`` is None) to it.

        Serial: duplicate-combine it and apply it to the in-process
        tree. Process: write it into the shard's ring as-is — the
        worker combines whole windows of frames (see ``worker_main``),
        which also moves the combining sort off the dispatching thread.
        """
        if self._executor == "process":
            if counts is None:
                kind, weight = FRAME_BATCH, len(values)
            else:
                kind, weight = FRAME_CBATCH, int(counts.sum())
            self._submit_ring(
                shard, kind, _frame_values(values), counts, weight
            )
            return
        if counts is None:
            combined = combine_frames([values], [])
        else:
            combined = combine_frames([], [(values, counts)])
        tree = self._trees[shard]
        before = tree.events
        tree.add_counted_arrays(*combined)
        self._shard_events[shard] += tree.events - before
        self._shard_batches[shard] += 1

    def _submit_ring(
        self,
        shard: int,
        kind: int,
        values: np.ndarray,
        counts: Optional[np.ndarray],
        weight: int,
    ) -> None:
        """Write one binary frame into the shard's ring.

        Runs on the dispatching thread under the ingest lock (which is
        what makes the producer side single-writer). A consumer that
        died while we were blocked on ring space surfaces as
        :class:`WorkerCrashed` with the ring's commit counters.
        """
        producer = self._rings[shard]
        try:
            disposition = producer.write_frame(kind, values, counts)
        except RingStalled as stall:
            raise WorkerCrashed(
                shard,
                self._processes[shard].exitcode,
                "draining its ring",
                committed=stall.committed,
                consumed=stall.consumed,
            ) from None
        if disposition != "dropped":
            self._shard_events[shard] += weight
            self._shard_batches[shard] += 1
        self._raise_worker_errors()

    def _check_ingestible(self) -> None:
        if self._state != "open":
            hint = " (call open() first)" if self._state == "created" else ""
            raise RuntimeError(
                f"cannot ingest into a {self._state} Profiler{hint}"
            )
        self._raise_worker_errors()

    def _raise_worker_errors(self) -> None:
        if self._errors:
            raise RuntimeError(
                "shard worker failed while ingesting"
            ) from self._errors[0]

    # ------------------------------------------------------------------
    # Process-executor protocol (parent side)
    # ------------------------------------------------------------------

    def _worker_crashed(self, shard: int, doing: str) -> WorkerCrashed:
        """Build the dead-worker diagnostic, with ring counters while the
        ring is live: the last-committed/last-consumed frame sequences
        pinpoint how far the shard's stream got."""
        committed = consumed = None
        if shard < len(self._rings):
            producer = self._rings[shard]
            committed = producer.committed_frames
            consumed = producer.consumed_frames
        return WorkerCrashed(
            shard,
            self._processes[shard].exitcode,
            doing,
            committed=committed,
            consumed=consumed,
        )

    def _recv_reply(self, shard: int, expected: str):
        """Receive one protocol reply, failing fast on a dead worker."""
        conn = self._conns[shard]
        process = self._processes[shard]
        while True:
            try:
                if conn.poll(_POLL_INTERVAL):
                    reply = conn.recv()
                    break
            except (EOFError, OSError):
                raise self._worker_crashed(
                    shard, f"answering {expected!r}"
                ) from None
            if not process.is_alive():
                raise self._worker_crashed(shard, f"answering {expected!r}")
        if reply[0] != expected:
            raise RuntimeError(
                f"shard {shard} worker protocol error: expected "
                f"{expected!r}, got {reply[0]!r}"
            )
        return reply[1]

    def _sync_workers(self) -> None:
        """Quiesce every worker and cache its synced state.

        Callers hold the ingest lock, so no frame is mid-flight. The
        sync travels *in-band* — a sync frame written behind the
        shard's data frames — so a ``synced`` reply proves the worker
        applied every accepted frame. It is broadcast to every ring
        before any reply is collected, so the workers' wakeup and flush
        latencies overlap instead of serializing one round-trip per
        shard. Each reply echoes the sync frame's sequence number,
        proving it answers *this* epoch boundary. Worker ingest
        failures and sanitizer reports ride back on the reply.
        """
        expected: List[int] = []
        for shard, producer in enumerate(self._rings):
            try:
                expected.append(producer.write_sync())
            except RingStalled as stall:
                raise WorkerCrashed(
                    shard,
                    self._processes[shard].exitcode,
                    "accepting a sync frame",
                    committed=stall.committed,
                    consumed=stall.consumed,
                ) from None
        for shard in range(self._shards):
            payload = self._recv_reply(shard, "synced")
            if payload.get("sync_seq") != expected[shard]:
                raise RuntimeError(
                    f"shard {shard} worker protocol error: sync reply "
                    f"for frame {payload.get('sync_seq')!r}, expected "
                    f"{expected[shard]}"
                )
            self._accept_sync_payload(shard, payload)

    def _accept_sync_payload(
        self, shard: int, payload: Dict[str, object]
    ) -> None:
        """Record one shard's synced state; surface its errors/reports."""
        self._shard_states[shard] = payload
        if payload.get("sanitizer") and self._sanitizer is not None:
            self._sanitizer.merge_worker_report(
                str(payload["label"]), payload["sanitizer"]
            )
        if payload.get("error"):
            self._errors.append(
                RuntimeError(
                    f"shard {shard} worker ingest failed:\n"
                    f"{payload['error']}"
                )
            )

    # ------------------------------------------------------------------
    # Snapshots and queries
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Wait until every accepted batch is applied to its shard tree.

        A quiesce without the fold: after ``drain()`` returns, the shard
        trees reflect every event accepted so far, but no snapshot is
        built. Useful to bound ingest latency measurements and to make
        backpressure deterministic before reading :attr:`metrics` (under
        the process executor this also refreshes the per-shard synced
        state those metrics are served from). Serial ingest is already
        applied when ``ingest()`` returns.
        """
        if self._state != "open":
            raise RuntimeError("cannot drain a Profiler that is not open")
        with self._ingest_lock:
            if self._executor == "process":
                self._sync_workers()
            self._raise_worker_errors()

    def snapshot(self) -> TreeBackend:
        """Fold every shard into one consistent tree (epoch boundary).

        Locks out new ingests, quiesces every shard, then folds the
        shard trees with :func:`~repro.core.combine.combine_many`. The
        result is independent of the live shards (single-shard profiles
        are cloned; process-executor shards are folded from attached
        copies of their shared-memory columns) and cached: repeated
        snapshots with no intervening ingest return the same tree
        without re-folding. It is a ``ColumnarRapTree`` on every
        executor, folded straight from the shard columns.
        """
        if self._state == "closed":
            if self._snapshot_cache is None:
                raise RuntimeError(
                    "Profiler was closed after a worker failure; "
                    "no final snapshot exists"
                )
            return self._snapshot_cache
        if self._state != "open":
            raise RuntimeError("cannot snapshot a Profiler that is not open")
        with self._ingest_lock:
            if self._executor == "process":
                self._sync_workers()
            self._raise_worker_errors()
            return self._fold_locked()

    def _fold_locked(self) -> TreeBackend:
        if self._sanitizer is not None:
            self._sanitizer.begin_fold("Profiler._ingest_lock")
        try:
            if self._executor == "process":
                epoch = tuple(
                    int(state["state"]["generation"])  # type: ignore[index]
                    for state in self._shard_states
                )
            else:
                epoch = tuple(
                    tree.mutation_generation for tree in self._trees
                )
            if (
                self._snapshot_cache is not None
                and epoch == self._snapshot_epoch
            ):
                return self._snapshot_cache
            clock = self._clock
            start = clock() if clock is not None else 0.0
            if self._executor == "process":
                folded = self._fold_process_locked()
            elif len(self._trees) == 1:
                folded = self._trees[0].clone()
            else:
                folded = combine_many(self._trees)
            if clock is not None:
                self._snapshot_seconds += clock() - start
            self._snapshots += 1
            self._snapshot_cache = folded
            self._snapshot_epoch = epoch
            return folded
        finally:
            if self._sanitizer is not None:
                self._sanitizer.end_fold()

    def _fold_process_locked(self) -> TreeBackend:
        """Fold synced worker shards through zero-copy attachments.

        Every worker is quiesced (``_sync_workers`` ran under this
        lock). Each shard's columns are attached read-only from shared
        memory and wrapped via ``ColumnarRapTree.attach_columns`` — the
        fold walks them without copying a column. The result is always
        independent of worker state: a single shard is cloned, multiple
        shards fold through ``combine_many``, which builds a fresh
        columnar tree straight from the attached columns.
        """
        from ..core.columnar import ColumnarRapTree  # noqa: RAP-LINT012 - the fold attaches worker column segments; the attach protocol is columnar-only by design

        trees: List[TreeBackend] = []
        attachments: List[ShmAttachment] = []
        try:
            for payload in self._shard_states:
                assert payload is not None, "fold before first sync"
                attachment = ShmAttachment(payload["table"])  # type: ignore[arg-type]
                attachments.append(attachment)
                trees.append(
                    ColumnarRapTree.attach_columns(
                        self._shard_config,
                        attachment.arrays,
                        payload["state"],  # type: ignore[arg-type]
                    )
                )
            if len(trees) == 1:
                return trees[0].clone()
            return combine_many(trees)
        finally:
            # Attached trees (and their memoryview rebinds) must die
            # before the mappings close; the fold result never aliases
            # worker memory.
            del trees
            for attachment in attachments:
                attachment.close()

    def query(self, lo: int, hi: int) -> int:
        """Lower-bound estimate of events in ``[lo, hi]`` (snapshot sugar)."""
        return self.snapshot().estimate(lo, hi)

    def hot_ranges(self, hot_fraction: float = 0.1) -> List[Tuple[int, int, int]]:
        """Hot-range report over the current snapshot.

        Returns ``(lo, hi, estimate)`` for every snapshot leaf whose
        estimated weight is at least ``hot_fraction`` of the total,
        heaviest first (equal estimates in ``lo`` order) — the report
        ``rap_finalize`` historically printed, now answered from the
        folded snapshot. A columnar snapshot answers from its columns
        without building a node view.
        """
        tree = self.snapshot()
        return tree.heavy_leaves(hot_fraction * tree.events)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> RuntimeMetrics:
        """Current per-shard and aggregate runtime metrics.

        Producer-side counters (events, batches, backpressure) are
        always live. Tree-side fields (splits, merges, node counts)
        read the live trees under the serial executor; under the
        process executor they come from each shard's latest synced
        state — call :meth:`drain` (or take a snapshot) first for
        exact, deterministic values.
        """
        shards: List[ShardMetrics] = []
        for index in range(self._shards):
            entry = ShardMetrics(
                shard=index,
                events=self._shard_events[index],
                batches=self._shard_batches[index],
            )
            if self._executor == "process":
                payload = self._shard_states[index]
                if payload is not None:
                    entry.splits = int(payload["splits"])  # type: ignore[arg-type]
                    entry.merge_batches = int(payload["merge_batches"])  # type: ignore[arg-type]
                    entry.node_count = int(payload["node_count"])  # type: ignore[arg-type]
            else:
                tree = self._trees[index]
                stats = tree.stats
                entry.splits = stats.splits
                entry.merge_batches = stats.merge_batches
                entry.node_count = tree.node_count
            # Backpressure lives on the ring producers. Live producers
            # win; after teardown the snapshot taken by
            # ``_teardown_rings`` keeps answering.
            if index < len(self._rings):
                producer = self._rings[index]
                entry.dropped_batches = producer.dropped_batches
                entry.dropped_events = producer.dropped_events
                entry.spilled_batches = producer.spilled_batches
                entry.transport_stalls = producer.stalls
                entry.transport_stall_s = producer.stall_seconds
                entry.ring_peak_bytes = producer.peak_bytes
            elif self._ring_stats[index] is not None:
                stats = self._ring_stats[index]
                assert stats is not None
                entry.dropped_batches = int(stats["dropped_batches"])  # type: ignore[arg-type]
                entry.dropped_events = int(stats["dropped_events"])  # type: ignore[arg-type]
                entry.spilled_batches = int(stats["spilled_batches"])  # type: ignore[arg-type]
                entry.transport_stalls = int(stats["transport_stalls"])  # type: ignore[arg-type]
                entry.transport_stall_s = float(stats["transport_stall_s"])  # type: ignore[arg-type]
                entry.ring_peak_bytes = int(stats["ring_peak_bytes"])  # type: ignore[arg-type]
            shards.append(entry)
        return RuntimeMetrics(
            shards=shards,
            snapshots=self._snapshots,
            snapshot_seconds=self._snapshot_seconds,
            ingest_seconds=self._ingest_seconds,
        )

    def shard_trees(self) -> Sequence[RapTree]:
        """The live shard trees (read-only view; do not mutate).

        Serial executor only: process-executor shard trees live in
        worker address spaces — take a :meth:`snapshot` (or use
        :attr:`metrics`) instead of reaching for the live objects.
        """
        if self._executor == "process":
            raise RuntimeError(
                "shard_trees() is not available under executor='process': "
                "the trees live in worker processes; use snapshot() for a "
                "folded copy or metrics for per-shard counters"
            )
        return tuple(self._trees)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Profiler(shards={self._shards}, executor={self._executor!r}, "
            f"state={self._state!r}, events={sum(self._shard_events)})"
        )
