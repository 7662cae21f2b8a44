"""Unit tests for the paper's C-style API (Section 3.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    RapTree,
    dump_tree,
    rap_add_points,
    rap_finalize,
    rap_init,
)
from repro.core.combine import IngestStage

# The v1 trio warns by design; TestDeprecationShim asserts the warnings
# explicitly, the legacy-contract tests below just ignore them.
pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


class TestRapInit:
    def test_single_universe_creates_default_profile(self):
        profile = rap_init(range_max=256, epsilon=0.05)
        assert set(profile.trees) == {"default"}
        assert profile.tree().config.range_max == 256

    def test_multiple_simultaneous_profiles(self):
        """rap_init "initializes data structures to enable profiling
        multiple events simultaneously"."""
        profile = rap_init({"pc": 2**32, "value": 2**16}, epsilon=0.02)
        assert set(profile.trees) == {"pc", "value"}
        assert profile.tree("pc").config.range_max == 2**32
        assert profile.tree("value").config.range_max == 2**16

    def test_rejects_empty_mapping(self):
        with pytest.raises(ValueError):
            rap_init({})

    def test_unknown_profile_name_raises(self):
        profile = rap_init(256)
        with pytest.raises(KeyError, match="no profile"):
            profile.tree("nope")

    def test_config_overrides_forwarded(self):
        profile = rap_init(256, epsilon=0.5, branching=2,
                           merge_initial_interval=32)
        config = profile.tree().config
        assert config.branching == 2
        assert config.merge_initial_interval == 32


class TestRapAddPoints:
    def test_plain_values(self):
        profile = rap_init(256)
        rap_add_points(profile, [1, 2, 3, 3])
        assert profile.tree().events == 4

    def test_counted_pairs(self):
        profile = rap_init(256)
        rap_add_points(profile, [(5, 10), (9, 2)])
        assert profile.tree().events == 12

    def test_mixed_forms(self):
        profile = rap_init(256)
        rap_add_points(profile, [1, (2, 3), 4])
        assert profile.tree().events == 5

    def test_named_profile_routing(self):
        profile = rap_init({"pc": 256, "value": 256})
        rap_add_points(profile, [1, 2], name="pc")
        rap_add_points(profile, [3], name="value")
        assert profile.tree("pc").events == 2
        assert profile.tree("value").events == 1

    def test_rejects_after_finalize(self):
        profile = rap_init(256)
        rap_add_points(profile, [1])
        rap_finalize(profile)
        with pytest.raises(RuntimeError, match="finalized"):
            rap_add_points(profile, [2])


class TestRapFinalize:
    def test_summary_fields(self):
        profile = rap_init(256, epsilon=0.05)
        rap_add_points(profile, [42] * 500 + list(range(200)))
        summaries = rap_finalize(profile, hot_fraction=0.10)
        summary = summaries["default"]
        assert summary.events == 700
        assert summary.node_count >= 1
        assert summary.max_nodes >= summary.node_count
        assert summary.splits > 0
        assert summary.hot_ranges
        assert summary.dump.startswith("RAPTREE")

    def test_finalize_runs_a_last_merge(self):
        profile = rap_init(256, epsilon=0.5)
        rap_add_points(profile, list(range(256)) * 3)
        tree = profile.tree()
        before = tree.stats.merge_batches
        rap_finalize(profile)
        assert tree.stats.merge_batches == before + 1

    def test_dump_file_written(self, tmp_path):
        profile = rap_init({"pc": 256}, epsilon=0.05)
        rap_add_points(profile, [1, 2, 3], name="pc")
        rap_finalize(profile, dump_path=str(tmp_path / "out"))
        dumped = (tmp_path / "out.pc.rap").read_text()
        assert dumped.startswith("RAPTREE")

    def test_dump_round_trips(self):
        from repro.core import load_tree

        profile = rap_init(256, epsilon=0.05)
        rap_add_points(profile, [9] * 100 + [200] * 50)
        summary = rap_finalize(profile)["default"]
        clone = load_tree(summary.dump)
        assert clone.events == 150
        assert clone.estimate(9, 9) == profile.tree().estimate(9, 9)

    def test_empty_profile_finalizes_cleanly(self):
        profile = rap_init(256)
        summaries = rap_finalize(profile)
        assert summaries["default"].events == 0
        assert summaries["default"].hot_ranges == []


class TestDeprecationShim:
    """The v1 trio still works but steers callers to Profiler (API v2)."""

    def test_rap_init_warns_with_migration_hint(self):
        with pytest.warns(DeprecationWarning, match="Profiler.from_config"):
            rap_init(256)

    def test_rap_add_points_warns_with_migration_hint(self):
        profile = rap_init(256)
        with pytest.warns(DeprecationWarning, match="Profiler.ingest"):
            rap_add_points(profile, [1, 2, 3])

    def test_rap_finalize_warns_with_migration_hint(self):
        profile = rap_init(256)
        with pytest.warns(DeprecationWarning, match="Profiler.close"):
            rap_finalize(profile)

    def test_warnings_point_at_the_migration_table(self):
        with pytest.warns(DeprecationWarning, match="README.md"):
            rap_init(256)

    def test_shim_is_backed_by_a_serial_profiler(self):
        profile = rap_init(256)
        profiler = profile.profilers["default"]
        assert type(profiler).__name__ == "Profiler"
        assert profiler.shards == 1
        rap_add_points(profile, [5] * 10)
        assert profiler.snapshot().events == 10

    def test_each_batch_is_one_ingest_stage_window(self):
        # Every rap_add_points call is one counted frame through the
        # profiler's ingest stage, flushed before the call returns: the
        # first builds the fresh tree offline, later ones go online.
        rng = np.random.default_rng(11)
        batches = [
            [int(v) for v in rng.zipf(1.4, 3_000) % 256],
            [(int(v), 3) for v in rng.integers(0, 256, 500)] + [7, 7, 9],
        ]
        profile = rap_init(256, epsilon=0.05)
        oracle = IngestStage(
            RapTree.from_config(profile.tree().config)
        )
        for points in batches:
            rap_add_points(profile, points)
            pairs = [
                point if isinstance(point, tuple) else (point, 1)
                for point in points
            ]
            oracle.push(*(np.array(column) for column in zip(*pairs)))
            oracle.flush()
        assert dump_tree(profile.tree()) == dump_tree(oracle.tree)

