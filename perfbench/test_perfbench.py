"""Tiny-scale tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on sys.path first)
import metrics  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def tiny(name: str) -> workloads.Workload:
    workload = workloads.WORKLOADS[name]
    events = 3 << 13
    return dataclasses.replace(
        workload,
        events=events,
        chunk=events // 4 if workload.live else events,
        pool=1,
        min_passes=1,
    )


def originals():
    return {
        (owner, attribute): vars(owner)[attribute]
        for owner, attribute, _, _ in spans.targets()
    }


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, trace, tmp_path):
    outcome = run.run_workload(
        tiny(name), seed=3, seconds=0, trace=trace,
        trace_out=str(tmp_path / "trace.json"),
    )
    result = outcome["result"]
    assert result["correct"] and result["failed"] == 0, outcome["lines"]
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [metric.name for metric in expected]
    for metric in expected:
        reported = result["metrics"][metric.name]
        assert reported["unit"] == metric.unit
        assert math.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0, metric.name
        assert any(line.startswith(f"{metric.name} ") for line in outcome["lines"])
    json.dumps(result)
    if trace:
        events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
        assert events and {"name", "ph", "ts", "dur", "args"} <= set(events[0])


def test_self_times_and_remainder_add_up_to_wall(tmp_path):
    values = run.run_workload(
        tiny("values-live"), seed=5, seconds=0, trace=True,
        trace_out=str(tmp_path / "trace.json"),
    )["result"]["metrics"]
    parts = sum(values[name]["value"] for name in metrics.SELF_TIMES)
    parts += values["trace.unattributed_s"]["value"]
    assert parts == pytest.approx(values["trace.wall_s"]["value"], abs=1e-9)
    assert values["core.combine.calls"]["value"] > 0
    assert values["runtime.ring.frames"]["value"] > 0


def test_every_traced_span_has_a_self_time_metric():
    assert {name for _, _, name, _ in spans.targets()} == set(
        metrics.SELF_TIMES.values()
    )


def test_untraced_run_installs_no_wrappers(monkeypatch):
    before = originals()

    def refuse(self):
        raise AssertionError("tracing off must not install wrappers")

    monkeypatch.setattr(spans.Tracer, "install", refuse)
    result = run.run_workload(tiny("values-bulk"), seed=2, seconds=0, trace=False)
    assert result["result"]["correct"]
    assert originals() == before


def test_traced_run_restores_the_callables(tmp_path):
    before = originals()
    run.run_workload(
        tiny("code-serial"), seed=2, seconds=0, trace=True,
        trace_out=str(tmp_path / "trace.json"),
    )
    assert originals() == before


def _answer(stream, snapshot, profiler):
    hot = profiler.hot_ranges(workloads.HOT_FRACTION)
    estimates = [snapshot.estimate(lo, hi) for lo, hi in stream.ranges]
    return hot, estimates


def test_tampered_snapshot_trips_the_oracle():
    workload = tiny("values-bulk")
    stream = workloads.make_stream(workload, seed=4, index=0)
    profiler, _ = workloads.open_profiler(workload, stream.universe)
    try:
        profiler.ingest(stream.values)
        snapshot = profiler.snapshot()
        hot, estimates = _answer(stream, snapshot, profiler)
    finally:
        profiler.close()
    check = dict(
        queries=stream.queries, parts=stream.parts,
        events=len(stream.values), epsilon=workload.shard_epsilon,
    )
    problems, _ = oracle.check_answer(snapshot, hot, estimates=estimates, **check)
    assert problems == []
    leaf = next(node for node in snapshot.nodes() if node.is_leaf)
    leaf.count += 1
    problems, _ = oracle.check_answer(snapshot, hot, estimates=estimates, **check)
    assert any("overcounted" in problem for problem in problems)


def test_oracle_flags_an_overcounted_query_and_a_short_stream():
    workload = tiny("code-serial")
    stream = workloads.make_stream(workload, seed=4, index=0)
    profiler, _ = workloads.open_profiler(workload, stream.universe)
    try:
        profiler.ingest(stream.values)
        snapshot = profiler.snapshot()
        hot, estimates = _answer(stream, snapshot, profiler)
    finally:
        profiler.close()
    exact = oracle.exact_counts(stream.parts, stream.queries[:1, 0], stream.queries[:1, 1])
    estimates[0] = int(exact[0]) + 1
    problems, _ = oracle.check_answer(
        snapshot, hot, stream.queries, estimates, stream.parts,
        len(stream.values) + 1, workload.shard_epsilon,
    )
    assert any("range query" in problem for problem in problems)
    assert any("snapshot.events" in problem for problem in problems)


def test_hygiene_check_flags_a_leaked_segment():
    assert oracle.hygiene_problems() == []
    segment = shared_memory.SharedMemory(
        name=f"rap-{os.getpid():x}-perfbench-test", create=True, size=64
    )
    try:
        assert any("leaked shared memory" in p for p in oracle.hygiene_problems())
    finally:
        segment.close()
        segment.unlink()


def test_same_seed_same_inputs():
    workload = tiny("values-live")
    first = workloads.make_stream(workload, seed=7, index=1)
    again = workloads.make_stream(workload, seed=7, index=1)
    other = workloads.make_stream(workload, seed=8, index=1)
    assert (first.values == again.values).all()
    assert (first.queries == again.queries).all()
    assert not (first.values == other.values).all()


def test_benchmark_json_matches_the_definitions():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert doc["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()
    ]
    assert all(len(w.why) <= 200 for w in workloads.WORKLOADS.values())
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "values-bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_tail_is_the_highest_percentile_with_ten_answers_beyond():
    assert metrics.tail_percentile(1) == 50
    assert metrics.tail_percentile(99) == 50
    assert metrics.tail_percentile(100) == 90
    assert metrics.tail_percentile(999) == 90
    assert metrics.tail_percentile(1000) == 99
