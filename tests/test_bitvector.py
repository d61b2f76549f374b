"""Unit tests for the rank/select bit vector."""

import numpy as np
import pytest

from repro.succinct import BitVector


class TestBasics:
    def test_empty(self):
        vec = BitVector(0)
        assert len(vec) == 0
        assert vec.count() == 0
        assert vec.rank1(0) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            BitVector(-1)

    def test_set_get_clear(self):
        vec = BitVector(130)
        vec.set(0)
        vec.set(63)
        vec.set(64)
        vec.set(129)
        assert vec[0] and vec[63] and vec[64] and vec[129]
        assert not vec[1] and not vec[128]
        vec.clear(64)
        assert not vec[64]

    def test_out_of_range(self):
        vec = BitVector(10)
        with pytest.raises(IndexError):
            vec[10]
        with pytest.raises(IndexError):
            vec.set(-1)
        with pytest.raises(IndexError):
            vec.rank1(11)

    def test_from_indices(self):
        vec = BitVector.from_indices(100, [3, 50, 99])
        assert vec[3] and vec[50] and vec[99]
        assert vec.count() == 3

    def test_from_indices_out_of_range(self):
        with pytest.raises(IndexError):
            BitVector.from_indices(10, [10])

    def test_from_indices_duplicates_collapse(self):
        vec = BitVector.from_indices(16, [5, 5, 5])
        assert vec.count() == 1


class TestRankSelect:
    @pytest.fixture
    def random_vec(self):
        rng = np.random.default_rng(42)
        size = 1000
        indices = np.sort(rng.choice(size, 137, replace=False))
        return BitVector.from_indices(size, indices), set(indices.tolist()), size

    def test_rank1_matches_naive(self, random_vec):
        vec, members, size = random_vec
        for index in range(0, size + 1, 17):
            assert vec.rank1(index) == sum(1 for m in members if m < index)

    def test_rank0_complements_rank1(self, random_vec):
        vec, _, size = random_vec
        for index in (0, 100, size):
            assert vec.rank0(index) + vec.rank1(index) == index

    def test_select1_inverts_rank1(self, random_vec):
        vec, members, _ = random_vec
        ordered = sorted(members)
        for rank, index in enumerate(ordered):
            assert vec.select1(rank) == index
            assert vec.rank1(index) == rank

    def test_select_out_of_range(self, random_vec):
        vec, members, _ = random_vec
        with pytest.raises(IndexError):
            vec.select1(len(members))

    def test_set_indices_roundtrip(self, random_vec):
        vec, members, _ = random_vec
        assert vec.set_indices().tolist() == sorted(members)

    def test_rank_invalidated_on_mutation(self):
        vec = BitVector(100)
        vec.set(10)
        assert vec.rank1(100) == 1
        vec.set(20)
        assert vec.rank1(100) == 2
        vec.clear(10)
        assert vec.rank1(100) == 1

    def test_serialized_size(self):
        assert BitVector(64).serialized_size_bytes() == 8
        assert BitVector(65).serialized_size_bytes() == 16


class TestRangeReads:
    @pytest.mark.parametrize("size", [1, 63, 64, 65, 200])
    def test_count_and_get_range_match_bits(self, size):
        rng = np.random.default_rng(size)
        members = set(rng.choice(size, size=max(1, size // 3), replace=False).tolist())
        vec = BitVector.from_indices(size, sorted(members))
        bounds = sorted({0, 1, 62, 63, 64, 65, 127, 128, size - 1, size} & set(range(size + 1)))
        for start in bounds:
            for end in bounds:
                if end < start:
                    continue
                expected = [i in members for i in range(start, end)]
                assert vec.count_range(start, end) == sum(expected)
                assert vec.get_range(start, end).tolist() == expected

    def test_range_out_of_bounds(self):
        vec = BitVector(10)
        with pytest.raises(IndexError):
            vec.count_range(0, 11)
        with pytest.raises(IndexError):
            vec.count_range(5, 4)
        with pytest.raises(IndexError):
            vec.get_range(-1, 3)

    def test_word_lists_track_mutation(self):
        vec = BitVector(130)
        vec.set(64)
        blocks, ranks = vec.word_lists()
        assert blocks == [0, 1, 0] and ranks == [0, 0, 1, 1]
        vec.set(129)
        blocks, ranks = vec.word_lists()
        assert blocks == [0, 1, 2] and ranks == [0, 0, 1, 2]
        vec.clear(64)
        assert vec.word_lists() == ([0, 0, 2], [0, 0, 0, 1])
