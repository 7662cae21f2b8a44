"""Run one benchmark workload through the public ``repro.Profiler`` API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload values-bulk --seed 1 --seconds 30 --trace 0

After one unmeasured warm-up pass the run repeats closed-loop passes
until ``--seconds`` have passed (and at least the workload's minimum),
each on a fresh profiler, cycling through the workload's streams. Each
pass's stream is generated from ``--seed`` before the pass's timers
start. Every answer is checked against an exact oracle and every pass
against process hygiene. Timings are scaled to nominal machine speed
(see ``speed.py``); raw medians are printed too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs an
untraced and then a traced pass on each stream, reports the per-layer
metrics (self times, counts and the tracing overhead) and writes the
spans as Chrome trace-event JSON under ``perfbench/out/``. Human-readable
lines come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # leave the checkout as it was

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
try:
    import repro
except ImportError as error:
    raise SystemExit(f"perfbench: cannot import repro from {SRC}: {error}")
if not Path(repro.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"perfbench: repro imported from outside {SRC}")

import metrics  # noqa: E402
import spans  # noqa: E402
from speed import REFERENCE_S, reference_seconds  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    head,
    make_stream,
    open_profiler,
    run_pass,
)

#: Extra construct/open/close cycles top the setup samples up to this.
SETUP_SAMPLES = 11
#: Events in the unmeasured warm-up pass (imports, lazy set-up, caches).
WARMUP_EVENTS = 1 << 18


def _speed(before: float) -> float:
    """Host slowness over an interval: mean reference time / nominal."""
    return (before + reference_seconds()) / (2 * REFERENCE_S)


def _pass(workload, stream, tracer=None):
    # A full collection first gives every pass the same collector state;
    # otherwise a generation-2 collection lands in some passes' answers
    # and not others, doubling the answer-time spread.
    gc.collect()
    before = reference_seconds()
    result = run_pass(workload, stream, tracer)
    result.speed = _speed(before)
    return result


def _setup_once(workload, universe: int) -> float:
    """One construct+open, scaled to nominal speed; then close."""
    before = reference_seconds()
    profiler, seconds = open_profiler(workload, universe)
    profiler.close()
    return seconds / _speed(before)


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 trace_out: str = "") -> dict:
    """Run ``workload`` and return the printed lines and the result."""
    first = make_stream(workload, seed, 0)
    results = [run_pass(workload, head(first, min(WARMUP_EVENTS, workload.events)))]
    measured, traced = [], []
    tracer = spans.Tracer() if trace else None
    # The pass minimum makes every stream count in the end-to-end
    # averages; the per-layer means need no such coverage.
    min_passes = 1 if trace else workload.min_passes
    deadline = time.perf_counter() + seconds
    index = 0
    while index < min_passes or time.perf_counter() < deadline:
        stream = first if index == 0 else make_stream(
            workload, seed, index % workload.pool
        )
        measured.append(_pass(workload, stream))
        if tracer is not None:
            tracer.run = index
            traced.append(_pass(workload, stream, tracer))
        index += 1
    results += measured + traced
    setups = [r.setup_s / r.speed for r in measured + traced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_once(workload, first.universe))
    attempted = sum(max(r.calls, r.failed) for r in results)
    failed = sum(r.failed for r in results)
    problems = [problem for r in results for problem in r.problems]
    lines = [
        f"workload {workload.name}: {workload.why}",
        f"seed {seed}, {len(measured)} measured passes of {workload.events} "
        f"events over {workload.pool} streams, "
        f"{'traced' if trace else 'untraced'}",
        f"failed_frac {failed / attempted} ({failed} of {attempted} calls)",
        "host slowness (reference / nominal): median "
        f"{statistics.median(r.speed for r in measured):.3f}",
        "raw events_per_s: median "
        f"{statistics.median(r.events_per_s / r.speed for r in measured):.6g}",
    ] + [f"problem: {problem}" for problem in problems[:20]]
    if trace:
        values = _per_layer(measured, traced, tracer)
        if trace_out:
            tracer.write(trace_out)
            lines.append(f"trace written to {trace_out}")
        notes = {metric.name: metric.moves for metric in metrics.PER_LAYER}
        units = {metric.name: metric.unit for metric in metrics.PER_LAYER}
    else:
        values, notes = _end_to_end(workload, measured, setups)
        units = {metric.name: metric.unit for metric in metrics.END_TO_END}
    for name, value in values.items():
        note = f"  [{notes[name]}]" if notes.get(name) else ""
        lines.append(f"{name} {value:.6g} {units[name]}{note}")
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in values.items()
            },
        },
    }


def _end_to_end(workload, measured, setups):
    answers = [s / r.speed for r in measured for s in r.answer_s]
    tail = metrics.tail_percentile(len(answers))
    # Node counts and the undercount are a function of the stream alone,
    # so each stream counts once, from its first pass (passes cycle
    # through the streams and there are at least as many as streams).
    per_stream = measured[: workload.pool]
    values = {
        "events_per_s": statistics.median(r.events_per_s for r in measured),
        "answer_p50_ms": float(np.percentile(answers, 50.0)) * 1e3,
        "answer_tail_ms": float(np.percentile(answers, tail)) * 1e3,
        "setup_s": statistics.median(setups),
        "snapshot_nodes": statistics.fmean(r.snapshot_nodes for r in per_stream),
        "shard_nodes": statistics.fmean(r.shard_nodes for r in per_stream),
        "max_undercount_frac": statistics.fmean(r.worst_frac for r in per_stream),
    }
    notes = {
        "events_per_s": f"median of {len(measured)} passes",
        "answer_p50_ms": f"p50 of {len(answers)} answers",
        "answer_tail_ms": f"p{tail} of {len(answers)} answers",
        "setup_s": f"median of {len(setups)} set-ups",
        "snapshot_nodes": f"mean over {len(per_stream)} streams",
        "shard_nodes": f"mean over {len(per_stream)} streams",
        "max_undercount_frac": f"mean over {len(per_stream)} streams",
    }
    return values, notes


def _per_layer(measured, traced, tracer):
    """Per-pass means over the traced passes (means keep the sum exact).

    Self times are raw seconds, so with the unattributed remainder they
    add up to the raw traced wall time; the two rates are scaled like
    ``events_per_s``.
    """
    rows = []
    for run, result in enumerate(traced):
        times, calls = tracer.self_times(run)
        shard = result.metrics
        stats = result.parent_stats
        row = {
            name: times.get(span, 0.0)
            for name, span in metrics.SELF_TIMES.items()
        }
        row.update({
            "runtime.partition.calls": calls.get("runtime.partition.split", 0),
            "runtime.ring.frames": calls.get("runtime.ring.write", 0),
            "runtime.ring.bytes": tracer.counters.get((run, "runtime.ring.bytes"), 0),
            "runtime.ring.stalls": shard.transport_stalls if shard else 0,
            "runtime.ring.stall_s": shard.transport_stall_s if shard else 0.0,
            "runtime.worker.splits": (
                sum(s.splits for s in shard.shards) if shard else 0
            ),
            "runtime.worker.merge_batches": (
                sum(s.merge_batches for s in shard.shards) if shard else 0
            ),
            "core.columnar.events": stats.events if stats else 0,
            "core.columnar.splits": stats.splits if stats else 0,
            "core.columnar.merge_batches": stats.merge_batches if stats else 0,
            "core.combine.calls": calls.get("core.combine.fold", 0),
            "core.combine.input_nodes": tracer.counters.get(
                (run, "core.combine.input_nodes"), 0
            ),
            "trace.wall_s": result.wall_s,
            "trace.unattributed_s": result.wall_s - sum(times.values()),
        })
        rows.append(row)
    traced_rate = statistics.median(r.events_per_s for r in traced)
    untraced_rate = statistics.median(r.events_per_s for r in measured)
    values = {
        name: float(statistics.fmean(row[name] for row in rows))
        for name in rows[0]
    }
    values["trace.events_per_s"] = traced_rate
    values["trace.untraced_events_per_s"] = untraced_rate
    values["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return {metric.name: values[metric.name] for metric in metrics.PER_LAYER}


def _stop_resource_tracker() -> None:
    # Shared memory starts the multiprocessing resource tracker; stop it
    # and wait for it so the run leaves no process behind.
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-out",
        default="",
        help="Chrome trace JSON path "
        "(default perfbench/out/trace-<workload>-<seed>.json)",
    )
    args = parser.parse_args(argv)
    trace_out = args.trace_out or str(
        HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
    )
    try:
        outcome = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), trace_out,
        )
    finally:
        _stop_resource_tracker()
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
