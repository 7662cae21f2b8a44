"""Fixture-driven tests for every RAP-LINT rule plus the runner.

Each rule gets at least one *positive* fixture (a snippet that must
trigger it) and one *negative* fixture (a near-miss that must stay
clean), the live ``src/`` tree is asserted lint-clean, and the JSON
report schema is pinned so CI consumers can rely on it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.checks.lint import all_rule_codes, lint_paths
from repro.checks.lint.runner import JSON_SCHEMA_VERSION, select_rules

SRC_PACKAGE = str(Path(repro.__file__).parent)


def lint_snippet(tmp_path, relfile: str, source: str, **kwargs):
    """Write ``source`` at ``<tmp>/<relfile>`` and lint the tmp tree."""
    target = tmp_path / relfile
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return lint_paths([str(tmp_path)], **kwargs)


def codes(report):
    return [violation.rule for violation in report.violations]


class TestUnseededRng:
    def test_flags_unseeded_default_rng(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/demo.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
        )
        assert codes(report) == ["RAP-LINT001"]
        assert "unseeded RNG" in report.violations[0].message

    def test_flags_global_random_module(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/demo.py",
            "import random\nx = random.random()\ny = random.randint(0, 9)\n",
        )
        assert codes(report) == ["RAP-LINT001", "RAP-LINT001"]

    def test_flags_legacy_numpy_global_draws(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "analysis/demo.py",
            "import numpy\nx = numpy.random.rand(10)\n",
        )
        assert codes(report) == ["RAP-LINT001"]

    def test_seeded_constructions_are_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/demo.py",
            "import random\n"
            "import numpy as np\n"
            "rng = np.random.default_rng(42)\n"
            "legacy = np.random.RandomState(7)\n"
            "stdlib = random.Random(3)\n",
        )
        assert report.ok, report.render_text()

    def test_distributions_module_is_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "workloads/distributions.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
        )
        assert report.ok

    def test_import_alias_is_resolved(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/demo.py",
            "from numpy.random import default_rng as mk\nrng = mk()\n",
        )
        assert codes(report) == ["RAP-LINT001"]


class TestFloatCounter:
    def test_flags_division_into_count_in_core(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/bad.py",
            "def half(node):\n    node.count = node.count / 2\n",
            select=["RAP-LINT002"],
        )
        assert codes(report) == ["RAP-LINT002"]
        assert "division" in report.violations[0].message

    def test_flags_float_literal_and_float_call(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/bad.py",
            "def poke(node, x):\n"
            "    node.count = 0.5\n"
            "    node._events = float(x)\n",
            select=["RAP-LINT002"],
        )
        assert codes(report) == ["RAP-LINT002", "RAP-LINT002"]

    def test_flags_augmented_division(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/bad.py",
            "def shrink(node):\n    node.count /= 2\n",
            select=["RAP-LINT002"],
        )
        assert codes(report) == ["RAP-LINT002"]

    def test_integer_arithmetic_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/good.py",
            "def fold(node, extra):\n"
            "    node.count = node.count + extra\n"
            "    node.count //= 2\n",
            select=["RAP-LINT002"],
        )
        assert report.ok

    def test_rule_is_scoped_to_core(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "analysis/elsewhere.py",
            "def half(node):\n    node.count = node.count / 2\n",
            select=["RAP-LINT002"],
        )
        assert report.ok


class TestNodeEncapsulation:
    def test_flags_count_mutation_outside_tree_classes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "analysis/bad.py",
            "def boost(node):\n    node.count += 10\n",
            select=["RAP-LINT003"],
        )
        assert codes(report) == ["RAP-LINT003"]

    def test_flags_children_list_mutation(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "analysis/bad.py",
            "def graft(parent, child):\n"
            "    parent.children.append(child)\n"
            "    parent.children = []\n",
            select=["RAP-LINT003"],
        )
        assert codes(report) == ["RAP-LINT003", "RAP-LINT003"]

    def test_tree_class_methods_are_allowed(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/good.py",
            "class RapTree:\n"
            "    def _split(self, node, child):\n"
            "        node.children.append(child)\n"
            "        node.count = 0\n",
            select=["RAP-LINT003"],
        )
        assert report.ok

    def test_init_may_set_own_attributes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "hardware/good.py",
            "class Row:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "        self.children = []\n",
            select=["RAP-LINT003"],
        )
        assert report.ok

    def test_noqa_with_justification_suppresses(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "analysis/justified.py",
            "def boost(node):\n"
            "    node.count += 10  # noqa: RAP-LINT003 - display copy\n",
            select=["RAP-LINT003"],
        )
        assert report.ok


class TestMissingAnnotations:
    def test_flags_unannotated_public_function_in_core(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/bad.py",
            "def estimate(lo, hi):\n    return hi - lo\n",
            select=["RAP-LINT004"],
        )
        assert codes(report) == ["RAP-LINT004"]
        message = report.violations[0].message
        assert "lo" in message and "hi" in message and "return" in message

    def test_flags_unannotated_public_method_in_hardware(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "hardware/bad.py",
            "class Pipeline:\n"
            "    def flush(self, slots):\n"
            "        return slots\n",
            select=["RAP-LINT004"],
        )
        assert codes(report) == ["RAP-LINT004"]

    def test_annotated_private_and_nested_are_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/good.py",
            "def estimate(lo: int, hi: int) -> int:\n"
            "    def helper(x):\n"
            "        return x\n"
            "    return helper(hi - lo)\n"
            "\n"
            "def _internal(x):\n"
            "    return x\n",
            select=["RAP-LINT004"],
        )
        assert report.ok

    def test_rule_is_scoped(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "workloads/unscoped.py",
            "def loose(a, b):\n    return a + b\n",
            select=["RAP-LINT004"],
        )
        assert report.ok


class TestWallClock:
    def test_flags_time_and_datetime_reads(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/bad.py",
            "import time\n"
            "import datetime\n"
            "start = time.perf_counter()\n"
            "stamp = datetime.datetime.now()\n",
            select=["RAP-LINT005"],
        )
        assert codes(report) == ["RAP-LINT005", "RAP-LINT005"]

    def test_non_clock_time_functions_are_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/good.py",
            "import time\ntime.sleep(0)\n",
            select=["RAP-LINT005"],
        )
        assert report.ok


class TestDirectTreeConstruction:
    """RAP-LINT011: RapTree(...) outside core/ must use from_config."""

    def test_flags_direct_construction_outside_core(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/demo.py",
            "from repro.core import RapConfig, RapTree\n"
            "tree = RapTree(RapConfig(256))\n",
            select=["RAP-LINT011"],
        )
        assert codes(report) == ["RAP-LINT011"]
        assert "from_config" in report.violations[0].message

    def test_flags_attribute_spelling(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "analysis/demo.py",
            "import repro.core as core\n"
            "tree = core.RapTree(core.RapConfig(256))\n",
            select=["RAP-LINT011"],
        )
        assert codes(report) == ["RAP-LINT011"]

    def test_core_is_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/combine_helper.py",
            "from .tree import RapTree\n"
            "def fresh(config):\n    return RapTree(config)\n",
            select=["RAP-LINT011"],
        )
        assert report.ok, report.render_text()

    def test_v2_constructors_are_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/demo.py",
            "from repro.core import RapConfig, RapTree\n"
            "from repro.runtime import Profiler\n"
            "tree = RapTree.from_config(RapConfig(256))\n"
            "service = Profiler.from_config(RapConfig(256), shards=2)\n",
            select=["RAP-LINT011"],
        )
        assert report.ok, report.render_text()

    def test_subclass_construction_not_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "baselines/demo.py",
            "from repro.core import RapConfig, SampledRapTree\n"
            "tree = SampledRapTree(RapConfig(256), rate=0.1, seed=1)\n",
            select=["RAP-LINT011"],
        )
        assert report.ok, report.render_text()


class TestColumnarInternalsImport:
    """RAP-LINT012: repro.core.columnar is core-private."""

    def test_flags_from_import_outside_core(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "runtime/demo.py",
            "from repro.core.columnar import ColumnarRapTree\n",
            select=["RAP-LINT012"],
        )
        assert codes(report) == ["RAP-LINT012"]
        assert 'backend="columnar"' in report.violations[0].message

    def test_flags_module_import_outside_core(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "analysis/demo.py",
            "import repro.core.columnar as columnar\n",
            select=["RAP-LINT012"],
        )
        assert codes(report) == ["RAP-LINT012"]

    def test_flags_parent_package_alias(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/demo.py",
            "from repro.core import columnar\n",
            select=["RAP-LINT012"],
        )
        assert codes(report) == ["RAP-LINT012"]

    def test_flags_relative_spelling(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "runtime/demo.py",
            "from ..core.columnar import ColumnarRapTree\n",
            select=["RAP-LINT012"],
        )
        assert codes(report) == ["RAP-LINT012"]

    def test_core_is_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/backend_helper.py",
            "from .columnar import ColumnarRapTree\n"
            "import repro.core.columnar\n",
            select=["RAP-LINT012"],
        )
        assert report.ok, report.render_text()

    def test_backend_knob_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/demo.py",
            "from repro.core import RapConfig, RapTree\n"
            "tree = RapTree.from_config("
            'RapConfig(256, backend="columnar"))\n',
            select=["RAP-LINT012"],
        )
        assert report.ok, report.render_text()

    def test_other_core_imports_not_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "analysis/demo.py",
            "from repro.core import RapConfig\n"
            "from repro.core.serialize import dump_tree\n",
            select=["RAP-LINT012"],
        )
        assert report.ok, report.render_text()


class TestSharedMemoryImport:
    """RAP-LINT024: multiprocessing.shared_memory is arena-private."""

    def test_flags_from_parent_import(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "runtime/demo.py",
            "from multiprocessing import shared_memory\n",
            select=["RAP-LINT024"],
        )
        assert codes(report) == ["RAP-LINT024"]
        assert "ShmArena" in report.violations[0].message

    def test_flags_module_import(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/demo.py",
            "import multiprocessing.shared_memory\n",
            select=["RAP-LINT024"],
        )
        assert codes(report) == ["RAP-LINT024"]

    def test_flags_class_import(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "analysis/demo.py",
            "from multiprocessing.shared_memory import SharedMemory\n",
            select=["RAP-LINT024"],
        )
        assert codes(report) == ["RAP-LINT024"]

    def test_arena_module_is_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "runtime/shm.py",
            "from multiprocessing import shared_memory\n",
            select=["RAP-LINT024"],
        )
        assert report.ok, report.render_text()

    def test_plain_multiprocessing_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "runtime/demo.py",
            "import multiprocessing\n"
            "from multiprocessing import get_context\n",
            select=["RAP-LINT024"],
        )
        assert report.ok, report.render_text()

    def test_arena_api_is_the_blessed_pattern(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/demo.py",
            "from repro.runtime import ShmArena, ShmAttachment\n",
            select=["RAP-LINT024"],
        )
        assert report.ok, report.render_text()


class TestHotPathPickle:
    """RAP-LINT025: no serialization on the zero-copy shard data path."""

    def test_flags_pickle_import_in_worker(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "runtime/worker.py",
            "import pickle\n",
            select=["RAP-LINT025"],
        )
        assert codes(report) == ["RAP-LINT025"]
        assert "repro.core.serialize" in report.violations[0].message

    def test_flags_resolved_pickle_calls(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "runtime/profiler.py",
            "import pickle as p\n"
            "def f(frame):\n"
            "    return p.loads(p.dumps(frame))\n",
            select=["RAP-LINT025"],
        )
        # The aliased import plus both calls.
        assert codes(report) == ["RAP-LINT025"] * 3

    def test_flags_bare_dumps_loads_from_any_module(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "runtime/ring.py",
            "import json\n"
            "def f(frame):\n"
            "    return json.dumps(frame)\n",
            select=["RAP-LINT025"],
        )
        assert codes(report) == ["RAP-LINT025"]
        assert "dumps()" in report.violations[0].message

    def test_other_runtime_modules_are_out_of_scope(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "runtime/partition.py",
            "import pickle\nx = pickle.dumps([1])\n",
            select=["RAP-LINT025"],
        )
        assert report.ok, report.render_text()

    def test_codec_and_views_are_the_blessed_pattern(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "runtime/worker.py",
            "import numpy as np\n"
            "from repro.core.serialize import decode_frame\n"
            "def f(view):\n"
            "    return decode_frame(view), np.load\n",
            select=["RAP-LINT025"],
        )
        assert report.ok, report.render_text()

    def test_np_load_style_calls_stay_legal(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "runtime/worker.py",
            "import numpy as np\n"
            "def f(path):\n"
            "    return np.load(path)\n",
            select=["RAP-LINT025"],
        )
        assert report.ok, report.render_text()

    def test_reasoned_noqa_suppresses(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "runtime/ring.py",
            "import pickle  # noqa: RAP-LINT025 - debug-only snapshot\n",
            select=["RAP-LINT025"],
        )
        assert report.ok, report.render_text()


class TestRunner:
    def test_live_src_tree_is_lint_clean(self):
        report = lint_paths([SRC_PACKAGE])
        assert report.ok, report.render_text()
        assert report.files_checked > 40

    def test_memoized_rule_pass_tracks_strictness_spelling_and_edits(
        self, tmp_path, monkeypatch
    ):
        source = (
            "import random\n"
            "x = random.random()  # noqa\n"
            "y = random.random()\n"
        )
        first = lint_snippet(tmp_path, "experiments/demo.py", source)
        assert [(v.rule, v.line) for v in first.violations] == [
            ("RAP-LINT001", 3)
        ]
        # Strict reuses the memoized rule pass but re-filters: the bare
        # noqa is inert and flagged.
        strict = lint_paths([str(tmp_path)], strict=True)
        assert sorted(codes(strict)) == [
            "RAP-LINT001", "RAP-LINT001", "RAP-NOQA"
        ]
        # Another spelling of the same file reports that spelling.
        monkeypatch.chdir(tmp_path)
        relative = lint_paths(["experiments"])
        assert [v.path for v in relative.violations] == [
            str(Path("experiments") / "demo.py")
        ]
        # An edit is a new key.
        target = tmp_path / "experiments" / "demo.py"
        target.write_text(source.replace("y = random", "y = 1 + random"))
        edited = lint_paths([str(tmp_path)])
        assert [v.column for v in edited.violations] == [8]

    def test_bare_noqa_silences_any_rule(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/demo.py",
            "import random\nx = random.random()  # noqa\n",
        )
        assert report.ok

    def test_noqa_for_other_code_does_not_suppress(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/demo.py",
            "import random\nx = random.random()  # noqa: RAP-LINT005\n",
        )
        assert codes(report) == ["RAP-LINT001"]

    def test_select_restricts_and_ignore_removes(self, tmp_path):
        source = (
            "import time\nimport random\n"
            "a = time.time()\nb = random.random()\n"
        )
        only_clock = lint_snippet(
            tmp_path, "experiments/demo.py", source, select=["RAP-LINT005"]
        )
        assert codes(only_clock) == ["RAP-LINT005"]
        without_clock = lint_snippet(
            tmp_path, "experiments/demo.py", source, ignore=["RAP-LINT005"]
        )
        assert codes(without_clock) == ["RAP-LINT001"]

    def test_unknown_rule_code_raises(self):
        with pytest.raises(ValueError, match="unknown rule code"):
            select_rules(select=["RAP-LINT999"])

    def test_syntax_error_reported_not_raised(self, tmp_path):
        report = lint_snippet(tmp_path, "broken.py", "def nope(:\n")
        assert codes(report) == ["RAP-SYNTAX"]

    def test_missing_path_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([str(tmp_path / "no_such_dir")])

    def test_registry_exposes_every_rule(self):
        assert all_rule_codes() == [
            f"RAP-LINT{index:03d}" for index in range(1, 26)
        ]


class TestJsonSchema:
    """The --format json payload is a stable contract for CI."""

    TOP_LEVEL_KEYS = {
        "version",
        "files_checked",
        "violation_count",
        "rules",
        "violations",
    }
    VIOLATION_KEYS = {
        "rule", "path", "line", "column", "message", "flow_trace",
    }
    FLOW_STEP_KEYS = {"line", "column", "event"}

    def test_schema_shape_with_violations(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/demo.py",
            "import random\nx = random.random()\n",
        )
        payload = json.loads(report.to_json())
        assert set(payload) == self.TOP_LEVEL_KEYS
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["violation_count"] == 1
        assert payload["files_checked"] == 1
        entry = payload["violations"][0]
        assert set(entry) == self.VIOLATION_KEYS
        assert entry["rule"] == "RAP-LINT001"
        assert entry["line"] == 2
        assert entry["flow_trace"] == []  # syntactic rules carry no trace
        rule_summary = payload["rules"]["RAP-LINT001"]
        assert rule_summary == {"name": "unseeded-rng", "count": 1}

    def test_flow_violation_carries_witness_trace(self, tmp_path):
        """The bumped schema: flow findings have a non-empty flow_trace."""
        report = lint_snippet(
            tmp_path,
            "core/laundered.py",
            "def f(node):\n"
            "    c = node.count\n"
            "    x = c / 2\n"
            "    return x\n",
            select=["RAP-LINT006"],
        )
        payload = json.loads(report.to_json())
        assert payload["version"] == JSON_SCHEMA_VERSION == 2
        entry = payload["violations"][0]
        assert set(entry) == self.VIOLATION_KEYS
        assert entry["rule"] == "RAP-LINT006"
        trace = entry["flow_trace"]
        assert trace, "flow rules must emit a witness path"
        assert all(set(step) == self.FLOW_STEP_KEYS for step in trace)
        assert trace[0]["line"] == 2  # the aliasing assignment
        assert "c = node.count" in trace[0]["event"]
        assert trace[-1]["line"] == 3  # the float-context use

    def test_schema_shape_when_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "clean.py", "x = 1\n")
        payload = json.loads(report.to_json())
        assert set(payload) == self.TOP_LEVEL_KEYS
        assert payload["violation_count"] == 0
        assert payload["violations"] == []
        assert all(
            entry["count"] == 0 for entry in payload["rules"].values()
        )

    def test_json_is_deterministic(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/demo.py",
            "import time\nt = time.time()\n",
        )
        assert report.to_json() == report.to_json()


class TestCounterFloatFlow:
    """RAP-LINT006: counter taint reaching float contexts via aliases."""

    def test_flags_alias_into_division(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/bad.py",
            "def f(node):\n"
            "    c = node.count\n"
            "    x = c / 2\n"
            "    return x\n",
            select=["RAP-LINT006"],
        )
        assert codes(report) == ["RAP-LINT006"]
        violation = report.violations[0]
        assert violation.line == 3
        assert violation.flow_trace
        assert "c = node.count" in violation.flow_trace[0].event

    def test_syntactic_rule_misses_the_alias(self, tmp_path):
        """The motivating gap: RAP-LINT002 alone does not see the alias."""
        source = (
            "def f(node):\n"
            "    c = node.count\n"
            "    x = c / 2\n"
            "    return x\n"
        )
        syntactic = lint_snippet(
            tmp_path, "core/bad.py", source, select=["RAP-LINT002"]
        )
        assert syntactic.ok
        flow = lint_snippet(
            tmp_path, "core/bad.py", source, select=["RAP-LINT006"]
        )
        assert codes(flow) == ["RAP-LINT006"]

    def test_taint_survives_a_second_hop(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/bad.py",
            "def f(node):\n"
            "    c = node.count\n"
            "    d = c + 1\n"
            "    return float(d)\n",
            select=["RAP-LINT006"],
        )
        assert codes(report) == ["RAP-LINT006"]
        events = [step.event for step in report.violations[0].flow_trace]
        assert any("c = node.count" in event for event in events)
        assert any("d = c + 1" in event for event in events)

    def test_floor_division_alias_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/good.py",
            "def f(node):\n"
            "    c = node.count\n"
            "    return c // 2\n",
            select=["RAP-LINT006"],
        )
        assert report.ok, report.render_text()

    def test_rebinding_clears_the_taint(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/good.py",
            "def f(node, n):\n"
            "    c = node.count\n"
            "    c = n\n"
            "    return c / 2\n",
            select=["RAP-LINT006"],
        )
        assert report.ok, report.render_text()

    def test_rule_is_scoped_to_core(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "analysis/elsewhere.py",
            "def f(node):\n"
            "    c = node.count\n"
            "    return c / 2\n",
            select=["RAP-LINT006"],
        )
        assert report.ok

    def test_noqa_suppresses(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/justified.py",
            "def f(node, n):\n"
            "    c = node.count\n"
            "    return c / n  # noqa: RAP-LINT006 - display fraction\n",
            select=["RAP-LINT006"],
        )
        assert report.ok


class TestRngFlow:
    """RAP-LINT007: unseeded RNG objects reaching uses via variables."""

    def test_flags_none_seed_through_alias(self, tmp_path):
        """seed=None via a variable dodges RAP-LINT001 entirely."""
        source = (
            "import numpy as np\n"
            "def f():\n"
            "    seed = None\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.integers(0, 9)\n"
        )
        syntactic = lint_snippet(
            tmp_path, "experiments/demo.py", source, select=["RAP-LINT001"]
        )
        assert syntactic.ok
        flow = lint_snippet(
            tmp_path, "experiments/demo.py", source, select=["RAP-LINT007"]
        )
        assert codes(flow) == ["RAP-LINT007"]
        trace = flow.violations[0].flow_trace
        assert trace and trace[-1].line == 5

    def test_flags_unseeded_rng_passed_to_call(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/demo.py",
            "import numpy as np\n"
            "def f(tree):\n"
            "    rng = np.random.default_rng()\n"
            "    feed(tree, rng)\n",
            select=["RAP-LINT007"],
        )
        assert codes(report) == ["RAP-LINT007"]
        assert "passed into" in report.violations[0].message

    def test_seeded_rng_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "experiments/demo.py",
            "import numpy as np\n"
            "def f(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.integers(0, 9)\n",
            select=["RAP-LINT007"],
        )
        assert report.ok, report.render_text()

    def test_distributions_module_is_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "workloads/distributions.py",
            "import numpy as np\n"
            "def f():\n"
            "    rng = np.random.default_rng()\n"
            "    return rng.random()\n",
            select=["RAP-LINT007"],
        )
        assert report.ok


class TestNodeAliasMutation:
    """RAP-LINT008: live children lists escaping into mutated aliases."""

    def test_flags_aliased_append(self, tmp_path):
        source = (
            "def graft(node, extra):\n"
            "    kids = node.children\n"
            "    kids.append(extra)\n"
        )
        syntactic = lint_snippet(
            tmp_path, "analysis/bad.py", source, select=["RAP-LINT003"]
        )
        assert syntactic.ok  # the alias hides the mutation from 003
        flow = lint_snippet(
            tmp_path, "analysis/bad.py", source, select=["RAP-LINT008"]
        )
        assert codes(flow) == ["RAP-LINT008"]
        assert "kids = node.children" in (
            flow.violations[0].flow_trace[0].event
        )

    def test_flags_item_assignment_through_alias(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "analysis/bad.py",
            "def swap(node, other):\n"
            "    kids = node.children\n"
            "    kids[0] = other\n",
            select=["RAP-LINT008"],
        )
        assert codes(report) == ["RAP-LINT008"]

    def test_copy_mutation_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "analysis/good.py",
            "def scratch(node, extra):\n"
            "    kids = list(node.children)\n"
            "    kids.append(extra)\n"
            "    return kids\n",
            select=["RAP-LINT008"],
        )
        assert report.ok, report.render_text()

    def test_tree_classes_own_their_children(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/good.py",
            "class RapTree:\n"
            "    def _merge(self, node, child):\n"
            "        kids = node.children\n"
            "        kids.append(child)\n",
            select=["RAP-LINT008"],
        )
        assert report.ok, report.render_text()


class TestDeadCode:
    """RAP-LINT009: unreachable statements and dead stores."""

    def test_flags_code_after_return(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/bad.py",
            "def f(x):\n"
            "    return x\n"
            "    cleanup(x)\n",
            select=["RAP-LINT009"],
        )
        assert codes(report) == ["RAP-LINT009"]
        assert report.violations[0].line == 3
        assert "unreachable" in report.violations[0].message

    def test_flags_else_of_constant_condition(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "hardware/bad.py",
            "def f(x):\n"
            "    if True:\n"
            "        return x\n"
            "    return -x\n",
            select=["RAP-LINT009"],
        )
        assert codes(report) == ["RAP-LINT009"]
        assert report.violations[0].line == 4

    def test_flags_dead_store(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/bad.py",
            "def f(x):\n"
            "    y = x + 1\n"
            "    return x\n",
            select=["RAP-LINT009"],
        )
        assert codes(report) == ["RAP-LINT009"]
        assert "never read" in report.violations[0].message

    def test_loop_carried_and_conditional_uses_are_live(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/good.py",
            "def f(values, flag):\n"
            "    total = 0\n"
            "    for value in values:\n"
            "        total += value\n"
            "    best = None\n"
            "    if flag:\n"
            "        best = total\n"
            "    return best\n",
            select=["RAP-LINT009"],
        )
        assert report.ok, report.render_text()

    def test_closure_capture_counts_as_a_use(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/good.py",
            "def f(x):\n"
            "    base = x + 1\n"
            "    def inner():\n"
            "        return base\n"
            "    return inner\n",
            select=["RAP-LINT009"],
        )
        assert report.ok, report.render_text()

    def test_code_after_while_true_with_break_is_reachable(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/good.py",
            "def f(queue):\n"
            "    while True:\n"
            "        item = queue.next()\n"
            "        if item is None:\n"
            "            break\n"
            "    return queue\n",
            select=["RAP-LINT009"],
        )
        assert report.ok, report.render_text()

    def test_underscore_and_out_of_scope_are_ignored(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "analysis/unscoped.py",
            "def f(x):\n"
            "    return x\n"
            "    cleanup(x)\n",
            select=["RAP-LINT009"],
        )
        assert report.ok  # scoped to core/ and hardware/
        report = lint_snippet(
            tmp_path,
            "core/good.py",
            "def f(pair):\n"
            "    _ignored = pair.validate()\n"
            "    return pair\n",
            select=["RAP-LINT009"],
        )
        assert report.ok, report.render_text()


class TestUnclosedResource:
    """RAP-LINT010: open() outside with, not closed on all paths."""

    def test_flags_unclosed_open(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "workloads/bad.py",
            "def dump(path, data):\n"
            "    f = open(path, 'wb')\n"
            "    f.write(data)\n",
            select=["RAP-LINT010"],
        )
        assert codes(report) == ["RAP-LINT010"]
        assert report.violations[0].line == 2
        assert report.violations[0].flow_trace

    def test_flags_close_missing_on_exception_path(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "workloads/bad.py",
            "def dump(path, data):\n"
            "    f = open(path, 'wb')\n"
            "    try:\n"
            "        f.write(data)\n"
            "    except OSError:\n"
            "        return None\n"
            "    f.close()\n",
            select=["RAP-LINT010"],
        )
        assert codes(report) == ["RAP-LINT010"]

    def test_close_in_finally_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "workloads/good.py",
            "def dump(path, data):\n"
            "    f = open(path, 'wb')\n"
            "    try:\n"
            "        f.write(data)\n"
            "    finally:\n"
            "        f.close()\n",
            select=["RAP-LINT010"],
        )
        assert report.ok, report.render_text()

    def test_with_block_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "workloads/good.py",
            "def dump(path, data):\n"
            "    with open(path, 'wb') as f:\n"
            "        f.write(data)\n",
            select=["RAP-LINT010"],
        )
        assert report.ok, report.render_text()

    def test_returned_handle_transfers_ownership(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "workloads/good.py",
            "def open_trace(path):\n"
            "    f = open(path, 'rb')\n"
            "    return f\n",
            select=["RAP-LINT010"],
        )
        assert report.ok, report.render_text()


class TestExplain:
    """rap lint --explain covers every registered rule."""

    @pytest.mark.parametrize("code", [
        f"RAP-LINT{index:03d}" for index in range(1, 11)
    ])
    def test_explain_prints_rationale_example_fix(self, code, capsys):
        from repro.cli import main

        assert main(["lint", "--explain", code]) == 0
        out = capsys.readouterr().out
        assert code in out
        assert "rationale:" in out
        assert "example violation:" in out
        assert "suggested fix:" in out

    def test_explain_unknown_code_fails(self, capsys):
        from repro.cli import main

        assert main(["lint", "--explain", "RAP-LINT999"]) == 1
        assert "known rules" in capsys.readouterr().err
