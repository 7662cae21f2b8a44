"""Partitioner unit tests: determinism, agreement, conservation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import HashPartitioner, RangePartitioner, make_partitioner

UNIVERSE = 2**32


class TestHashPartitioner:
    def test_scalar_and_vector_paths_agree(self):
        partitioner = HashPartitioner(4)
        rng = np.random.default_rng(11)
        values = rng.integers(0, UNIVERSE, size=2000, dtype=np.uint64)
        parts = partitioner.split(values)
        for shard, part in enumerate(parts):
            for value in part.tolist():
                assert partitioner.shard_of(int(value)) == shard

    def test_split_is_a_permutation_preserving_shard_order(self):
        partitioner = HashPartitioner(3)
        values = np.arange(1000, dtype=np.uint64)
        parts = partitioner.split(values)
        assert sum(len(part) for part in parts) == len(values)
        assert sorted(
            int(v) for part in parts for v in part
        ) == list(range(1000))
        for part in parts:
            # Within a shard, input order is preserved (ascending here).
            assert list(part) == sorted(part)

    def test_skewed_stream_spreads_across_shards(self):
        """The point of hashing: a hot value's neighbours spread out."""
        partitioner = HashPartitioner(8)
        dense = np.arange(64, dtype=np.uint64)  # one hot cache line
        parts = partitioner.split(dense)
        occupied = sum(1 for part in parts if len(part))
        assert occupied >= 4

    def test_single_shard_passthrough(self):
        partitioner = HashPartitioner(1)
        values = np.array([5, 6, 7], dtype=np.uint64)
        parts = partitioner.split(values)
        assert len(parts) == 1 and list(parts[0]) == [5, 6, 7]
        assert partitioner.shard_of(123456) == 0

    def test_huge_values_do_not_overflow(self):
        partitioner = HashPartitioner(4)
        values = np.array([2**64 - 1, 2**63, 0], dtype=np.uint64)
        parts = partitioner.split(values)
        for shard, part in enumerate(parts):
            for value in part.tolist():
                assert partitioner.shard_of(int(value)) == shard


class TestRangePartitioner:
    def test_contiguous_slices(self):
        partitioner = RangePartitioner(4, 100)
        assert partitioner.shard_of(0) == 0
        assert partitioner.shard_of(24) == 0
        assert partitioner.shard_of(25) == 1
        assert partitioner.shard_of(99) == 3

    def test_scalar_and_vector_paths_agree(self):
        partitioner = RangePartitioner(5, UNIVERSE)
        rng = np.random.default_rng(13)
        values = rng.integers(0, UNIVERSE, size=2000, dtype=np.uint64)
        parts = partitioner.split(values)
        for shard, part in enumerate(parts):
            for value in part.tolist():
                assert partitioner.shard_of(int(value)) == shard

    def test_every_value_lands_somewhere(self):
        partitioner = RangePartitioner(3, 10)
        for value in range(10):
            assert 0 <= partitioner.shard_of(value) < 3


class TestAssign:
    @pytest.mark.parametrize(
        "partitioner",
        [HashPartitioner(4), RangePartitioner(4, UNIVERSE)],
        ids=["hash", "range"],
    )
    def test_assign_agrees_with_split_and_shard_of(self, partitioner):
        rng = np.random.default_rng(17)
        values = rng.integers(0, UNIVERSE, size=2000, dtype=np.uint64)
        assignment = partitioner.assign(values)
        assert [
            int(shard) for shard in assignment
        ] == [partitioner.shard_of(int(value)) for value in values]
        for shard, part in enumerate(partitioner.split(values)):
            assert part.tolist() == values[assignment == shard].tolist()


class TestMakePartitioner:
    def test_schemes(self):
        assert isinstance(
            make_partitioner("hash", 2, 100), HashPartitioner
        )
        assert isinstance(
            make_partitioner("range", 2, 100), RangePartitioner
        )

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError, match="unknown partition scheme"):
            make_partitioner("modulo", 2, 100)

    def test_invalid_shard_count_raises(self):
        with pytest.raises(ValueError, match="shards"):
            make_partitioner("hash", 0, 100)
